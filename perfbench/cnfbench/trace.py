"""In-memory spans and counters for the traced pass.

A span is (name, start, end, parent, instance).  Spans are kept in memory and
written out once, when the run ends, so the file I/O is not measured.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, instance]
        self.counters = defaultdict(int)
        self._open = []
        self.instance = None

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.instance]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, amount=1):
        self.counters[name] += amount

    def self_times(self):
        """Per span name: duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[idx]
        return totals

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, instance in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "instance": instance}) + "\n")
