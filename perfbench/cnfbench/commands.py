"""Two ways to run one cnfkit command line.

`Cli` runs it through ``cnfkit.cli.main`` in-process, exactly as a user's
command line would, and adds up the time spent there.  `Traced` parses the
same arguments with the CLI's own parser and then makes the public library
calls that the subcommand makes, with a span around each call and counters
for the work it did.  Both write byte-identical files and return the same
(exit code, stdout) pair, so a workload's command sequence is written once.
"""

import contextlib
import io
import json
import os
import time

from cnfkit.circuit import CircuitError, normalize_circuit, simplify_fixpoint
from cnfkit.cli import build_parser, main as cnfkit_main
from cnfkit.elim import ElimReport, PipelineConfig, run_pipeline
from cnfkit.encode import plaisted_greenbaum, tseitin
from cnfkit.formula import satisfies
from cnfkit.io import (atomic_write, parse_circuit, parse_dimacs_with_report,
                       render_stats, write_dimacs)
from cnfkit.oracle import DEFAULT_BOUND, brute_force_sat
from cnfkit.reconstruct import ReconstructionStack, VarEntry, reconstruct_model

from . import check
from .bench import ELIM_TECHNIQUES


def _read(path):
    with open(path) as handle:
        return handle.read()


class Cli:
    def __init__(self):
        self.seconds = 0.0

    def __call__(self, argv):
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cnfkit_main(argv)
        finally:  # a call that raises still took the user's time
            self.seconds += time.perf_counter() - start
        return code, out.getvalue()


class Traced:
    def __init__(self, tracer):
        self.tr = tracer

    def __call__(self, argv):
        with self.tr.span("cli.parse"):
            args = build_parser().parse_args(argv)
        self.tr.count("cli.calls")
        return getattr(self, args.command)(args)

    def _parse_cnf(self, path):
        text = _read(path)
        with self.tr.span("io.dimacs.parse"):
            formula, _ = parse_dimacs_with_report(text)
        self.tr.count("io.dimacs.bytes_in", len(text))
        return formula

    def prep(self, args):
        """One run_pipeline call per technique: the same sequence as the
        single non-fixpoint call the CLI makes."""
        tr = self.tr
        config = PipelineConfig(ve_growth_bound=args.ve_bound)
        formula = self._parse_cnf(args.input)
        stack = ReconstructionStack()
        report = ElimReport()
        report.clauses_before = len(formula.clauses)
        for tid in args.techniques.split(","):
            if formula.has_empty_clause:
                break
            before = len(formula.clauses)
            layer = "elim" if tid in ELIM_TECHNIQUES else "formula"
            with tr.span(f"{layer}.{tid}"):
                formula, part, step = run_pipeline(formula, [tid], config)
            stack.entries.extend(part.entries)
            report.techniques.update(step.techniques)
            if layer == "elim":
                tr.count(f"elim.{tid}.removed", step.techniques[tid].clauses_removed)
                tr.count(f"elim.{tid}.literals_added",
                         step.techniques[tid].literals_added)
            else:
                tr.count(f"formula.{tid}.clause_delta",
                         len(formula.clauses) - before)
            if tid == "ve":
                tr.count("formula.ve.vars_eliminated",
                         sum(isinstance(e, VarEntry) for e in part.entries))
        report.clauses_after = len(formula.clauses)
        formula.num_vars = formula.max_mentioned_var()
        with tr.span("io.dimacs.write"):
            text = write_dimacs(formula)
        tr.count("io.dimacs.bytes_out", len(text))
        with tr.span("reconstruct.to_text"):
            stack_text = stack.to_text()
        tr.count("reconstruct.stack_entries", len(stack.entries))
        with tr.span("io.stats.write"):
            atomic_write(args.output, text)
            if args.stack:
                atomic_write(args.stack, stack_text)
            if args.stats:
                atomic_write(args.stats, render_stats(report))
        return (20 if formula.has_empty_clause else 0), ""

    def solve(self, args):
        formula = self._parse_cnf(args.input)
        bound = args.bound or int(os.environ.get("CNFKIT_ORACLE_BOUND")
                                  or DEFAULT_BOUND)
        with self.tr.span("oracle.sat"):
            model = brute_force_sat(formula, bound)
        self.tr.count("oracle.calls")
        self.tr.count("oracle.assignments", 2 ** formula.num_vars)
        if model is None:
            return 20, "s UNSATISFIABLE\n"
        return 10, "s SATISFIABLE\n" + check.model_text(model)

    def verify(self, args):
        """Only the --reconstruct form."""
        stack_path, model_path, original_path = args.reconstruct
        with self.tr.span("reconstruct.model"):
            stack = ReconstructionStack.from_text(_read(stack_path))
        model = check.read_model(_read(model_path))
        original = self._parse_cnf(original_path)
        with self.tr.span("reconstruct.model"):
            repaired = reconstruct_model(stack, model, original.num_vars)
        return (0 if satisfies(original, repaired) else 2), ""

    def encode(self, args):
        tr = self.tr
        text = _read(args.input)
        with tr.span("io.bcformat.parse"):
            circuit = parse_circuit(text)
        tr.count("io.bcformat.gates_in", len(circuit.gates))
        fixed = {}
        try:
            if args.simplify:
                before = len(circuit.gates)
                with tr.span("circuit.simplify"):
                    circuit, fixed = simplify_fixpoint(
                        circuit, tuple(args.simplify.split(",")))
                tr.count("circuit.gates_simplified", before - len(circuit.gates))
            with tr.span("circuit.normalize"):
                circuit = normalize_circuit(circuit)
        except (CircuitError, RecursionError):
            tr.count("circuit.errors")
            raise
        tr.count("circuit.gates_normalized", len(circuit.gates))
        if args.encoding == "tst":
            with tr.span("encode.tseitin"):
                formula, vm = tseitin(circuit)
        else:
            with tr.span("encode.pg"):
                formula, vm = plaisted_greenbaum(circuit)
        tr.count("encode.clauses", len(formula.clauses))
        vm.fixed_inputs.update(fixed)
        with tr.span("io.dimacs.write"):
            cnf = write_dimacs(formula)
        tr.count("io.dimacs.bytes_out", len(cnf))
        doc = {"schema": "cnfkit-varmap/1", "vars": vm.gate_to_var,
               "fixed_inputs": vm.fixed_inputs}
        with tr.span("io.stats.write"):
            atomic_write(args.output, cnf)
            atomic_write(args.map or args.output + ".map",
                         json.dumps(doc, indent=2) + "\n")
        return 0, ""
