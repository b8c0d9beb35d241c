"""cnfkit benchmark.

    python3 perfbench/run.py --workload prep_circuit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cnfkit is imported from ./src.
Workloads: prep_circuit, verify_small, encode_circuit.  With --trace 0 the
last stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics.  The full result document goes to perfbench/results/, and the spans
of a traced run next to it; `python3 perfbench/report.py` summarises them.
--count shrinks a workload for a quick look; --setup-only is how a run times
its extra set-ups in fresh interpreters.
"""

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    """Commit of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("prep_circuit", "verify_small", "encode_circuit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, help="instances (default: the "
                        "workload's own count)")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up once in DIR and print the seconds it took")
    args = parser.parse_args(argv)
    if args.seconds is None and args.setup_only is None:
        parser.error("--seconds is required")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cnfkit", "__init__.py")):
        print(f"error: no cnfkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from cnfbench import bench

    if args.setup_only:
        seconds = bench.set_up(args.workload, args.seed, args.count,
                               args.setup_only)[0]
        print(seconds)
        return 0
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), work, args.count)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tracer = result.pop("_tracer", None)
    result.update(git_sha=git_sha(), python=platform.python_version(),
                  nproc=os.cpu_count())
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    line = bench.summary(result, args.trace)
    print(f"# {args.workload} seed {args.seed}: {result['instances']} instances, "
          f"{result['untraced_passes']} untraced / {result['traced_passes']} "
          f"traced passes, {result['latency_samples']} latency samples, "
          f"set-ups {', '.join(f'{x:.3f}' for x in result['setup_s'])} s")
    print(f"# inputs {result['input_sha256'][:16]}  outputs "
          f"{result['output_sha256'][:16]}  digests agree: {result['digests_agree']}")
    for label, text in result["failures"].items():
        print(f"# failed {label}: {text}")
    for name, metric in line["metrics"].items():
        print(f"# {name:32} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
