"""Harness: set-up, timed passes, checks, digests and metrics.

A run sets up (imports, seeded inputs, a first call) five times, once in
its own process and four times in fresh ones, and reports the median.  It then
repeats passes over all of the workload's instances until the run's seconds
are used (at least one pass), and times each instance by its fastest pass.
With tracing off, every pass goes through cnfkit's command line in-process
and gives the end-to-end metrics.  With tracing on, untraced and traced
passes alternate; the traced passes give the per-layer metrics and must
reproduce the untraced output digests.
"""

import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from .trace import Tracer

END_TO_END_UNITS = {
    "wall_s": "s", "instance_ms_p50": "ms", "instance_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "clauses_out": "count",
    "literals_out": "count", "pass_ratio": "ratio",
}
SETUP_RUNS = 5         # one in the run's own process, the others in fresh ones
RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "run.py")
ELIM_TECHNIQUES = ("te", "hte", "ate", "se", "hse", "ase", "bce", "hbce",
                   "abce", "cce", "hcce", "acce")
FORMULA_TECHNIQUES = ("pl", "fle", "els", "ve")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.parse_s": "s", "cli.calls": "count"}
    for t in ELIM_TECHNIQUES:
        units.update({f"elim.{t}_s": "s", f"elim.{t}.removed": "count",
                      f"elim.{t}.literals_added": "count"})
    for t in FORMULA_TECHNIQUES:
        units.update({f"formula.{t}_s": "s", f"formula.{t}.clause_delta": "count"})
    units["formula.ve.vars_eliminated"] = "count"
    for name in ("reconstruct.model_s", "reconstruct.to_text_s", "oracle.sat_s",
                 "io.dimacs.parse_s", "io.dimacs.write_s", "io.bcformat.parse_s",
                 "io.stats.write_s", "circuit.simplify_s", "circuit.normalize_s",
                 "encode.tseitin_s", "encode.pg_s", "oracle.masks_s",
                 "trace.overhead_s"):
        units[name] = "s"
    for name in ("reconstruct.stack_entries", "oracle.calls",
                 "oracle.assignments", "io.dimacs.bytes_in",
                 "io.dimacs.bytes_out", "io.bcformat.gates_in",
                 "circuit.gates_simplified", "circuit.gates_normalized",
                 "circuit.errors", "encode.clauses"):
        units[name] = "count"
    return units


class WorkDir:
    def __init__(self, root):
        self.inp = os.path.join(root, "in")
        self.out = os.path.join(root, "out")

    def reset_outputs(self):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() if isinstance(chunk, str) else chunk)
        h.update(b"\0")
    return h.hexdigest()


def _failure_text(exc):
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
    return f"{type(exc).__name__}: {str(exc)[:120]} (at {where})"


class Pass:
    def __init__(self):
        self.latency = {}       # instance index -> seconds inside cnfkit
        self.elapsed = {}       # instance index -> seconds of the whole instance
        self.failures = {}      # instance index -> text
        self.status = {}        # instance index -> exit codes or "failed"
        self.digest = None
        self.tracer = None


def run_pass(workload, instances, d, tracer=None):
    """One pass over every instance; a failure of one instance is recorded
    and the pass goes on."""
    from .commands import Cli, Traced
    d.reset_outputs()
    result = Pass()
    result.tracer = tracer
    for inst in instances:
        cli = Cli() if tracer is None else None
        start = time.perf_counter()
        try:
            if tracer is None:
                codes = workload.run(d, inst, cli)
            else:
                tracer.instance = inst.index
                with tracer.span("instance"):
                    codes = workload.run(d, inst, Traced(tracer))
            result.status[inst.index] = codes
        except Exception as exc:  # instance boundary: record and go on
            result.failures[inst.index] = _failure_text(exc)
            result.status[inst.index] = "failed"
        result.elapsed[inst.index] = time.perf_counter() - start
        result.latency[inst.index] = (result.elapsed[inst.index]
                                      if cli is None else cli.seconds)
    result.digest = _digest(_output_chunks(workload, d, instances, result.status))
    return result


def _output_chunks(workload, d, instances, status):
    for inst in instances:
        yield f"{inst.index} {status[inst.index]}"
        for path in workload.outputs(d, inst):
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    yield os.path.basename(path)
                    yield handle.read()


def set_up(workload_name, seed, count, root):
    """Everything before timing starts: import cnfkit, build the inputs,
    write them, and make the first call on the first instance.  Returns
    (seconds, workload, instances, input digest, work directory)."""
    start = time.perf_counter()
    from . import commands, workloads    # imports cnfkit
    workload = workloads.WORKLOADS[workload_name]
    instances = workload.build(seed, count or workload.count)
    d = WorkDir(root)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(d.inp)
    chunks = []
    for inst in instances:
        for name, text in sorted(inst.inputs.items()):
            with open(os.path.join(d.inp, name), "w") as handle:
                handle.write(text)
            chunks += [name, text]
    warm = WorkDir(os.path.join(root, "warmup"))
    warm.inp = d.inp
    warm.reset_outputs()
    try:
        workload.run(warm, instances[0], commands.Cli())
    except Exception:  # the passes record the failure; set-up goes on
        pass
    seconds = time.perf_counter() - start
    return seconds, workload, instances, _digest(chunks), d


def set_up_elsewhere(workload_name, seed, count, root):
    """Seconds of one more set-up, made in a fresh interpreter so that
    imports and first calls are paid again."""
    argv = [sys.executable, RUN_PY, "--workload", workload_name,
            "--seed", str(seed), "--setup-only", root]
    if count:
        argv += ["--count", str(count)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=120)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return float(done.stdout.split()[-1])


def run(workload_name, seed, seconds, trace, root, count=None):
    """One benchmark run; returns the result document."""
    setup_s, workload, instances, input_digest, d = set_up(
        workload_name, seed, count, root)
    setups = [setup_s] + [
        set_up_elsewhere(workload_name, seed, count, f"{root}-setup{k}")
        for k in range(1, SETUP_RUNS)]

    # Priming, if the workload has any, is timed on its own; then passes
    # repeat until the run's seconds are used (at least one pass).
    from .commands import Cli
    warm = WorkDir(os.path.join(root, "prime"))
    warm.reset_outputs()
    start = time.perf_counter()
    workload.prime(warm, Cli())
    prime_s = time.perf_counter() - start
    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        cycle = time.perf_counter()
        untraced.append(run_pass(workload, instances, d))
        if trace:
            traced.append(run_pass(workload, instances, d, Tracer()))
        cycle = time.perf_counter() - cycle
        # stop where the run ends closest to its seconds
        if time.perf_counter() - start + cycle / 2 > seconds:
            break
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = untraced[0]
    checks = {"failed": {}, "checked": 0}
    clauses_out = literals_out = 0
    # every pass left the same files (digests agree), so check them once
    for inst in instances:
        if inst.index in first.failures:
            continue
        try:
            for clauses in workload.check(d, inst):
                clauses_out += len(clauses)
                literals_out += sum(map(len, clauses))
            checks["checked"] += 1
        except Exception as exc:  # a check that cannot run counts as failed
            checks["failed"][inst.index] = _failure_text(exc)
    digests = {p.digest for p in untraced + traced}
    failures = dict(checks["failed"])
    for p in untraced + traced:
        for index, text in p.failures.items():
            failures.setdefault(index, text)
    correct = not checks["failed"] and len(digests) == 1

    attempted = len(instances)
    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "instances": attempted,
        "untraced_passes": len(untraced), "traced_passes": len(traced),
        "measured_s": measured_s,
        "input_sha256": input_digest,
        "output_sha256": first.digest,
        "traced_output_sha256": traced[0].digest if traced else None,
        "digests_agree": len(digests) == 1,
        "checks": {"covers": workload.covers, "instances_checked": checks["checked"],
                   "failed": {str(k): v for k, v in sorted(checks["failed"].items())}},
        "failures": {instances[i].label: text
                     for i, text in sorted(failures.items())},
        "attempted": attempted, "failed": len(failures), "correct": correct,
        "setup_s": setups, "prime_s": prime_s,
    }

    # Each instance's time is its fastest over the run's passes: the machine
    # only ever slows a measurement down, so the minimum is the steadiest
    # estimate of the work itself.  A pass costs the sum of those times.
    best = _fastest(untraced, "latency")
    latency_ms = [1000 * best[inst.index] for inst in instances
                  if inst.index not in failures]
    deciles = statistics.quantiles(latency_ms, n=10) if len(latency_ms) > 1 \
        else latency_ms * 9
    e2e = {
        "wall_s": sum(best.values()),
        "instance_ms_p50": statistics.median(latency_ms) if latency_ms else 0.0,
        "instance_ms_p90": deciles[8] if latency_ms else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "clauses_out": clauses_out,
        "literals_out": literals_out,
        "pass_ratio": (attempted - len(failures)) / attempted,
    }
    result["latency_ms"] = {inst.label: 1000 * best[inst.index]
                            for inst in instances if inst.index not in failures}
    result["latency_samples"] = len(latency_ms)
    result["latency_beyond_p90"] = sum(x > e2e["instance_ms_p90"] for x in latency_ms)
    result["end_to_end"] = e2e

    if trace:
        units = per_layer_units()
        layer = {name: 0.0 if unit == "s" else 0 for name, unit in units.items()}
        per_pass = [p.tracer.self_times() for p in traced]
        for name in units:
            if name.endswith("_s") and name[:-2] in per_pass[0]:
                layer[name] = min(t.get(name[:-2], 0.0) for t in per_pass)
        for name, value in traced[0].tracer.counters.items():
            layer[name] = value
        layer["oracle.masks_s"] = prime_s
        layer["trace.overhead_s"] = (sum(_fastest(traced, "elapsed").values())
                                     - sum(_fastest(untraced, "elapsed").values()))
        result["per_layer"] = layer
        result["_tracer"] = traced[-1].tracer
    return result


def _fastest(passes, field):
    """Instance index -> its smallest time over the passes."""
    return {i: min(getattr(p, field)[i] for p in passes)
            for i in getattr(passes[0], field)}


def summary(result, trace):
    """The result line: end-to-end metrics, or per-layer ones when traced."""
    units = per_layer_units() if trace else END_TO_END_UNITS
    values = result["per_layer" if trace else "end_to_end"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
