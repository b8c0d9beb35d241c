"""Parsers, writers, the external solver runner, and stats emission."""

from .dimacs import (DimacsError, LiteralOutOfRange, MalformedHeader,
                     ParseReport, UnterminatedClause, parse_dimacs,
                     model_text, parse_dimacs_with_report, parse_model,
                     write_dimacs)
from .bcformat import (CIRCUIT_HEADER, CircuitFormatError, UnknownFunction,
                       parse_circuit, write_circuit)
from .solver import (SolverParseFailure, SolverResult, SpawnFailure,
                     run_external_solver)
from .stats import STATS_SCHEMA, atomic_write, render_stats

__all__ = [
    "DimacsError", "MalformedHeader", "LiteralOutOfRange", "UnterminatedClause",
    "ParseReport", "parse_dimacs", "parse_dimacs_with_report", "write_dimacs",
    "parse_model", "model_text",
    "CIRCUIT_HEADER", "CircuitFormatError", "UnknownFunction",
    "parse_circuit", "write_circuit",
    "SolverResult", "SpawnFailure", "SolverParseFailure", "run_external_solver",
    "STATS_SCHEMA", "render_stats", "atomic_write",
]
