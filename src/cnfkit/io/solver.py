"""External SAT solver runner.

Writes the formula to a temporary DIMACS file, invokes the solver on it, and
interprets the usual conventions: exit code 10 or an `s SATISFIABLE` line
means satisfiable (model taken from `v` lines), exit code 20 or
`s UNSATISFIABLE` means unsatisfiable, and a timeout yields unknown.
"""

import os
import subprocess
import tempfile
from dataclasses import dataclass

from .dimacs import DimacsError, parse_model, write_dimacs

__all__ = ["SolverResult", "SpawnFailure", "SolverParseFailure",
           "run_external_solver"]


class SpawnFailure(Exception):
    pass


class SolverParseFailure(Exception):
    pass


@dataclass
class SolverResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: dict | None = None
    reason: str | None = None


def run_external_solver(path, formula, timeout=None) -> SolverResult:
    """Run one solver process on the formula.  Raises SpawnFailure when the
    executable cannot be started and SolverParseFailure when its output fits
    no known convention."""
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as tmp:
        tmp.write(write_dimacs(formula))
        cnf_path = tmp.name
    try:
        try:
            proc = subprocess.run([path, cnf_path], capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return SolverResult("unknown", reason="timeout")
        except OSError as exc:
            raise SpawnFailure(f"cannot run {path!r}: {exc}") from exc
    finally:
        os.unlink(cnf_path)

    out_lines = proc.stdout.splitlines()
    status_lines = [l.strip() for l in out_lines if l.startswith("s")]
    v_lines = [l for l in out_lines if l.startswith("v")]

    if proc.returncode == 10 or "s SATISFIABLE" in status_lines:
        try:
            return SolverResult("sat", model=parse_model("\n".join(v_lines)))
        except DimacsError as exc:
            raise SolverParseFailure(str(exc)) from None
    if proc.returncode == 20 or "s UNSATISFIABLE" in status_lines:
        return SolverResult("unsat")
    if any(l == "s UNKNOWN" for l in status_lines):
        return SolverResult("unknown", reason="solver reported unknown")
    raise SolverParseFailure(
        f"unrecognized solver outcome (exit {proc.returncode})")
