"""Command-line driver.

Subcommands: prep (preprocess a CNF), encode (circuit to CNF), gen (benchmark
families), verify (equisatisfiability / reconstruction checks), solve (oracle
or external solver).

Exit codes: 0 success / agreement, 1 usage error or any failure (reported as
one `error:` line, never a traceback), 2 verification disagreement, 10
satisfiable, 20 unsatisfiable (or empty clause derived by prep).  All file
outputs are written atomically.  `--bound` on verify and solve sets the
oracle variable bound.
"""

import argparse
import functools
import json
import sys

from . import bench, oracle
from .circuit import normalize_circuit, simplify_fixpoint
from .elim import PipelineConfig, run_pipeline
from .encode import _encode, build_varmap
from .formula import satisfies
from .io import (SolverResult, atomic_write, dimacs_text, model_text,
                 parse_dimacs_with_report, parse_model, render_stats,
                 run_external_solver, write_dimacs)
from .io.bcformat import _parse
from .reconstruct import ReconstructionStack, VarEntry, reconstruct_model

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DISAGREE = 2
EXIT_SAT = 10
EXIT_UNSAT = 20

GENERATORS = {"php": bench.gen_php, "ephp": bench.gen_ephp,
              "xorring": bench.gen_xor_unsat}


def _read(path):
    with open(path) as handle:
        return handle.read()


def _load_cnf(path, strict=False):
    formula, report = parse_dimacs_with_report(_read(path), strict=strict)
    for warning in report.warnings:
        print(f"c warning: {path}: {warning}", file=sys.stderr)
    return formula


def _names(text):
    return [name.strip() for name in text.split(",") if name.strip()]


def cmd_prep(args):
    config = PipelineConfig(global_fixpoint=args.fixpoint,
                            ve_growth_bound=args.ve_bound)
    formula = _load_cnf(args.input, strict=args.strict)
    formula, stack, report = run_pipeline(formula, _names(args.techniques),
                                          config)
    # compact the declared variable count to what the result mentions
    formula.num_vars = formula.max_mentioned_var()
    atomic_write(args.output, write_dimacs(formula))
    if args.stack:
        atomic_write(args.stack, stack.to_text())
    if args.stats:
        atomic_write(args.stats, render_stats(report))
    return EXIT_UNSAT if formula.has_empty_clause else EXIT_OK


def cmd_encode(args):
    # read without a check: the first pass below validates the circuit
    circuit = _parse(_read(args.input))
    fixed = {}
    if args.simplify:
        circuit, fixed = simplify_fixpoint(circuit, _names(args.simplify))
    circuit = normalize_circuit(circuit)
    vm = build_varmap(circuit)
    vm.fixed_inputs.update(fixed)
    # dimacs_text turns each gate's rows into text as they are made: no
    # clause list of the whole formula
    rows = _encode(circuit, vm, restricted=args.encoding == "pg")
    del circuit  # so the exhausted generator frees it before the final join
    atomic_write(args.output, dimacs_text(vm.num_vars, rows))
    # the layout of json.dumps(doc, indent=2), whose `indent` would switch
    # json to its pure-Python encoder
    atomic_write(args.map or args.output + ".map",
                 '{\n  "schema": "cnfkit-varmap/1",\n'
                 f'  "vars": {_json_object(vm.gate_to_var)},\n'
                 f'  "fixed_inputs": {_json_object(vm.fixed_inputs)}\n}}\n')
    return EXIT_OK


def _json_object(obj):
    """A flat dict as `json.dumps` writes it one level into `indent=2`.
    The separators give that layout in one call to json's C encoder."""
    if not obj:
        return "{}"
    items = json.dumps(obj, separators=(",\n    ", ": "))[1:-1]
    return f"{{\n    {items}\n  }}"


def cmd_gen(args):
    atomic_write(args.output, write_dimacs(GENERATORS[args.family](args.n)))
    return EXIT_OK


def cmd_verify(args):
    if args.reconstruct:
        stack_path, model_path, original_path = args.reconstruct
        stack = ReconstructionStack.from_text(_read(stack_path))
        model = parse_model(_read(model_path))
        original = _load_cnf(original_path)
        # the replay and the check read only the variables that the stack
        # and the original mention: no defaults past the last of them
        top = max((abs(l) for e in stack.entries for c in
                   (e.saved if isinstance(e, VarEntry) else (s for s, _ in e))
                   for l in c), default=0)
        top = min(max(top, original.max_mentioned_var()), original.num_vars)
        repaired = reconstruct_model(stack, model, top)
        if satisfies(original, repaired):
            print("c reconstruction ok")
            return EXIT_OK
        print("c reconstructed model does not satisfy the original")
        return EXIT_DISAGREE
    if len(args.formulas) != 2:
        raise ValueError("verify needs two CNF files or --reconstruct")
    fa = _load_cnf(args.formulas[0])
    fb = _load_cnf(args.formulas[1])
    if oracle.equisat(fa, fb, args.bound):
        print("c equisatisfiable")
        return EXIT_OK
    print("c satisfiability differs")
    return EXIT_DISAGREE


def cmd_solve(args):
    formula = _load_cnf(args.input)
    if args.oracle:
        model = oracle.brute_force_sat(formula, args.bound)
        result = SolverResult("unsat" if model is None else "sat", model)
    else:
        result = run_external_solver(args.solver, formula,
                                     timeout=args.timeout)
    if result.status == "sat":
        print("s SATISFIABLE")
        # the oracle always gives a v line; a solver that gave none gets none
        if args.oracle or result.model:
            print(model_text(result.model), end="")
        return EXIT_SAT
    if result.status == "unsat":
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print(f"s UNKNOWN ({result.reason})")
    return EXIT_ERROR


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cnfkit",
        description="CNF preprocessing and circuit encoding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="preprocess a DIMACS file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--techniques", required=True,
                   help="comma-separated, e.g. te,se,bce")
    p.add_argument("--fixpoint", action="store_true",
                   help="repeat the whole technique order until stable")
    p.add_argument("--ve-bound", type=int, default=0,
                   help="variable elimination growth bound")
    p.add_argument("--stack", help="write the reconstruction stack here")
    p.add_argument("--stats", help="write the stats document here")
    p.add_argument("--strict", action="store_true",
                   help="treat header count mismatches as errors")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("encode", help="encode a circuit file as CNF")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--encoding", choices=("tst", "pg"), default="tst")
    p.add_argument("--simplify", default="",
                   help="comma-separated subset of coi,nsi,mir")
    p.add_argument("--map", help="gate-to-variable sidecar path "
                                 "(default: OUTPUT.map)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("gen", help="generate a benchmark family instance")
    p.add_argument("family", choices=tuple(GENERATORS))
    p.add_argument("n", type=int)
    p.add_argument("output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="equisatisfiability or reconstruction check")
    p.add_argument("formulas", nargs="*", metavar="CNF")
    p.add_argument("--reconstruct", nargs=3,
                   metavar=("STACK", "MODEL", "ORIGINAL"))
    p.add_argument("--bound", type=int, default=oracle.DEFAULT_BOUND)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="decide satisfiability")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--oracle", action="store_true")
    group.add_argument("--solver", help="path to an external solver")
    p.add_argument("--timeout", type=float)
    p.add_argument("--bound", type=int, default=oracle.DEFAULT_BOUND)
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # keep the documented exit-code contract: usage errors are 1
        return 0 if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
