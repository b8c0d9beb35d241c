"""Preprocessing stats document and atomic file writes.

The stats document is a single self-describing JSON object:

    {
      "schema": "cnfkit-stats/1",
      "clauses_before": 12,
      "clauses_after": 7,
      "techniques": {
        "bce": {"clauses_removed": 5, "clauses_added": 0,
                "literals_added": 3, "rounds": 2, "seconds": 0.0012}
      }
    }

Counters always satisfy: total removed - total added = before - after.
``literals_added`` counts the literals that extension and covered literal
addition added to working clauses.  The tautology, blocked and covered
families stop an extension at its first conflict and count the literals
added up to it; hse and ase run it to the full fixpoint, past any conflict,
and count every literal it adds.  It counts only the checks actually run: a
clause is checked again only after a clause its last check read was
removed, so a round does not count again the literals of a clause whose
check could not have changed.
"""

import json
import os
import stat

__all__ = ["STATS_SCHEMA", "render_stats", "atomic_write"]

STATS_SCHEMA = "cnfkit-stats/1"


def render_stats(report) -> str:
    doc = {
        "schema": STATS_SCHEMA,
        "clauses_before": report.clauses_before,
        "clauses_after": report.clauses_after,
        # a ``TechniqueStats`` holds just its fields, in declaration order
        "techniques": {tid: vars(st)
                       for tid, st in sorted(report.techniques.items())},
    }
    return json.dumps(doc, indent=2) + "\n"


def atomic_write(path, text: str):
    """Write via a sibling temp file and rename, so readers never see a
    partial file.  A file keeps its permission bits, and a new one gets
    those of ``open(path, "w")``: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    # O_EXCL: a new file of ours alone; the umask applies as in open()
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            try:
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
