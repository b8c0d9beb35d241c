"""cnfkit: CNF preprocessing, clause elimination, and circuit encoding."""

from .formula import (CnfFormula, bcp, bounded_variable_elim,
                      equivalent_literal_substitution, failed_literal_probe,
                      normalize_clause, pure_literal_elim, satisfies)
from .elim import (ElimReport, ExtensionMode, PipelineConfig, TechniqueId,
                   blocking_literal, covered_literal_additions,
                   eliminate_blocked, eliminate_covered, eliminate_subsumed,
                   eliminate_tautologies, extend_clause, is_tautology,
                   run_pipeline)
from .reconstruct import ReconstructionStack, reconstruct_model
from .circuit import (Circuit, circuit_sat, coi_reduce, eval_circuit,
                      mir_reduce, normalize_circuit, nsi_reduce, polarity,
                      simplify_fixpoint, validate)
from .encode import VarMap, build_varmap, gate_clauses, plaisted_greenbaum, tseitin
from .oracle import BoundExceeded, brute_force_sat, count_models, equisat

__version__ = "0.1.0"

__all__ = [
    "CnfFormula", "bcp", "bounded_variable_elim",
    "equivalent_literal_substitution", "failed_literal_probe",
    "normalize_clause", "pure_literal_elim", "satisfies",
    "ElimReport", "ExtensionMode", "PipelineConfig", "TechniqueId",
    "blocking_literal", "covered_literal_additions", "eliminate_blocked",
    "eliminate_covered", "eliminate_subsumed", "eliminate_tautologies",
    "extend_clause", "is_tautology", "run_pipeline",
    "ReconstructionStack", "reconstruct_model",
    "Circuit", "circuit_sat", "coi_reduce", "eval_circuit", "mir_reduce",
    "normalize_circuit", "nsi_reduce", "polarity", "simplify_fixpoint",
    "validate",
    "VarMap", "build_varmap", "gate_clauses", "plaisted_greenbaum", "tseitin",
    "BoundExceeded", "brute_force_sat", "count_models", "equisat",
    "__version__",
]
