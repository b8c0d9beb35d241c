"""Clause elimination procedures and the technique pipeline.

The extension operators grow a clause without changing its meaning relative
to the rest of the formula.  Hidden and asymmetric literal addition to a
clause C of F are unit propagation of the negation of C over F without C,
over the binary clauses only for hidden and over all clauses for asymmetric
(Heule, Jarvisalo and Biere, *Clause Elimination Procedures for CNF
Formulas*, LPAR 2010); both run on ``formula.propagate``.  On top of them sit
four elimination families (tautology, subsumption, blocked, covered), each
available plain, hidden, or asymmetric.  Removals that are not implied by the
remaining formula push witness steps onto a reconstruction stack so models of
the reduced formula can be repaired afterwards.
"""

import time
from dataclasses import dataclass, field
from enum import Enum

from .formula import (CnfFormula, bounded_variable_elim, failed_literal_probe,
                      lit_key, propagate, pure_literal_elim,
                      substitute_equivalent_literals)
from .reconstruct import ReconstructionStack

__all__ = [
    "ExtensionMode", "TechniqueId", "TechniqueStats", "ElimReport",
    "PipelineConfig", "extend_clause", "is_tautology", "blocking_literal",
    "covered_literal_additions", "CoveredOutcome",
    "eliminate_tautologies", "eliminate_subsumed", "eliminate_blocked",
    "eliminate_covered", "is_extended_tautology", "find_subsumer",
    "is_blocked", "run_pipeline",
]


class ExtensionMode(Enum):
    NONE = "none"
    HIDDEN = "hidden"
    ASYMMETRIC = "asymmetric"


@dataclass
class TechniqueStats:
    clauses_removed: int = 0
    clauses_added: int = 0
    literals_added: int = 0
    rounds: int = 0
    seconds: float = 0.0


class ElimReport:
    """Per-technique counters; removed minus added matches the size delta."""

    def __init__(self):
        self.techniques: dict[str, TechniqueStats] = {}
        self.clauses_before = 0
        self.clauses_after = 0

    def stats(self, technique) -> TechniqueStats:
        key = technique.value if isinstance(technique, TechniqueId) else str(technique)
        return self.techniques.setdefault(key, TechniqueStats())

    @property
    def total_removed(self):
        return sum(s.clauses_removed for s in self.techniques.values())

    @property
    def total_added(self):
        return sum(s.clauses_added for s in self.techniques.values())


def is_tautology(lits) -> bool:
    s = set(lits)
    return any(-l in s for l in s)


def _extend(formula, base, exclude_id, mode, early_exit=True):
    """Extend a working clause per the mode.  Returns (literal set, tautology
    flag, number of literals added); see ``propagate`` for ``early_exit``."""
    if mode is ExtensionMode.NONE:
        wset = set(base)
        return wset, any(-l in wset for l in wset), 0
    wset, taut = propagate(formula, base, exclude_id,
                           mode is ExtensionMode.HIDDEN, early_exit)
    return wset, taut, len(wset) - len(base)


def extend_clause(formula, cid, mode, *, early_exit=True):
    """Hidden/asymmetric extension of one formula clause (the clause itself is
    excluded from the search).  Always a superset of the original clause."""
    wset, _, _ = _extend(formula, formula.clauses[cid], cid, mode, early_exit)
    return tuple(sorted(wset, key=lit_key))


def _resolvent_is_taut(wset, lit, cset):
    """Is (W | (C' - {-lit})) - {lit} a tautology?  W is assumed
    complement-free; pairs internal to C' are checked."""
    for x in cset:
        if x != lit and x != -lit and (-x in wset or -x in cset):
            return True
    return False


def blocking_literal(formula, lits, exclude_id):
    """Smallest literal of the clause all of whose resolvents against the
    rest of the formula are tautologies; None if there is none.  A literal
    whose complement never occurs qualifies vacuously."""
    wset = set(lits)
    return _blocking_literal(formula, wset, wset, exclude_id)


def _blocking_literal(formula, wset, candidates, exclude_id):
    """``blocking_literal`` of the working set ``wset``, trying only the
    ``candidates``.  For an extension W of a clause C, C's literals are the
    only candidates needed: the extension adds a literal l only as the
    complement of the last open literal u of a clause D other than C with
    D - u inside W, so the resolvent of W on l with D is W - l, which is no
    tautology, and l never blocks."""
    for lit in sorted(candidates, key=lit_key):
        for cid in formula.occ_ids(-lit):
            if cid == exclude_id:
                continue
            if not _resolvent_is_taut(wset, lit, formula.clauses[cid]):
                break
        else:
            return lit
    return None


@dataclass
class CoveredOutcome:
    removable: bool
    witness: int | None
    lits: tuple[int, ...]
    steps: list = field(default_factory=list)


def _covered(formula, wset, exclude_id):
    """Covered literal additions to fixpoint.

    Probes each literal in canonical order.  A literal with no resolution
    candidates makes the clause removable on the spot; otherwise the literals
    common to all candidates are added (recording the probed literal as the
    step witness), and an addition that completes a complementary pair also
    makes the clause removable.  Each recorded step snapshots the working
    clause as it was when the step was taken, which is what replay needs.
    """
    steps = []
    added = 0
    while True:
        progress = False
        for lit in sorted(wset, key=lit_key):
            candidates = []
            for cid in formula.occ_ids(-lit):
                if cid == exclude_id:
                    continue
                clause = formula.clauses[cid]
                if not _resolvent_is_taut(wset, lit, clause):
                    candidates.append(clause)
            if not candidates:
                steps.append((tuple(wset), lit))
                return True, lit, wset, steps, added
            covered = set(candidates[0])
            for clause in candidates[1:]:
                covered.intersection_update(clause)
            covered.discard(-lit)
            new = covered - wset
            if not new:
                continue
            steps.append((tuple(wset), lit))
            wset |= new
            added += len(new)
            if any(-k in wset for k in new):
                return True, lit, wset, steps, added
            progress = True
        if not progress:
            return False, None, wset, steps, added


def covered_literal_additions(formula, cid) -> CoveredOutcome:
    removable, witness, wset, steps, _ = _covered(
        formula, set(formula.clauses[cid]), cid)
    return CoveredOutcome(removable, witness,
                          tuple(sorted(wset, key=lit_key)), steps)


def _worklist(formula, stats, check, scan_order=None):
    """Run rounds of ``check`` over the clauses until a round removes nothing.

    ``check(cid)`` is called on a live clause.  It returns None to have the
    clause removed (after pushing any stack entry), or else the variables of
    the clauses it read, its final working set, to keep it.  Each round scans
    a snapshot of the ids (or ``scan_order``) in order, but checks only the
    dirty clauses: every clause starts dirty, a check makes it clean, and
    removing a clause makes dirty again every kept clause whose check read
    one of the removed clause's variables.

    The re-check rule is exact because a procedure only removes clauses: a
    clean clause's check read no clause removed since, and could not have
    read a clause it did not see, so it would keep the clause again.  The
    removals, their order and the number of rounds are those of checking
    every clause in every round.  A check that no removal can turn from
    keeping to removing registers nothing: it returns an empty set.
    """
    dirty = set(formula.clauses)
    readers: dict[int, set[int]] = {}
    changed = True
    while changed:
        stats.rounds += 1
        changed = False
        for cid in (scan_order if scan_order is not None else formula.ids()):
            if cid not in dirty or cid not in formula.clauses:
                continue
            dirty.discard(cid)
            reads = check(cid)
            if reads is None:
                stats.clauses_removed += 1
                changed = True
                for l in formula.remove_clause(cid):
                    dirty.update(readers.pop(abs(l), ()))
            else:
                for var in reads:
                    readers.setdefault(var, set()).add(cid)
    return formula


def eliminate_tautologies(formula, mode=ExtensionMode.NONE, stack=None,
                          stats=None):
    """TE / HTE / ATE: drop clauses whose extension contains a complementary
    pair.  Pure deletion; the removed clause is implied by the rest, so
    nothing goes on the stack."""
    stats = stats or TechniqueStats()

    def check(cid):
        _, taut, added = _extend(formula, formula.clauses[cid], cid, mode)
        stats.literals_added += added
        # removals only shrink an extension, so a kept clause stays kept
        return None if taut else ()

    return _worklist(formula, stats, check)


def eliminate_subsumed(formula, mode=ExtensionMode.NONE, stack=None,
                       stats=None):
    """SE / HSE / ASE: drop a clause whose extension is a superset of some
    other clause.  Between duplicate clauses the lower id survives.  Pure
    deletion, so nothing goes on the stack."""
    stats = stats or TechniqueStats()

    def check(cid):
        ext, _, added = _extend(formula, formula.clauses[cid], cid, mode,
                                early_exit=False)
        stats.literals_added += added
        if _find_subsumer_of(formula, cid, ext) is not None:
            return None
        # removals only shrink the extension and the subsumer candidates
        return ()

    return _worklist(formula, stats, check)


def _find_subsumer_of(formula, cid, ext):
    """Lowest id of a clause other than ``cid`` contained in ``ext``; a
    duplicate of clause ``cid`` counts only with a lower id.  A nonempty
    subsumer occurs under its first literal, which is in ``ext``, so only
    those occurrence lists and the empty clauses are looked at."""
    clauses = formula.clauses
    own = clauses[cid]
    best = None
    for oid in formula.short:
        if not clauses[oid] and oid != cid and (own or oid < cid):
            best = oid if best is None else min(best, oid)
    for l in ext:
        for oid in formula.occ.get(l, ()):
            if (clauses[oid][0] != l or oid == cid
                    or (best is not None and oid > best)):
                continue
            other = clauses[oid]
            if ext.issuperset(other) and (other != own or oid < cid):
                best = oid
    return best


def eliminate_blocked(formula, mode=ExtensionMode.NONE, stack=None,
                      stats=None, scan_order=None):
    """BCE / HBCE / ABCE: remove clauses whose extension has a blocking
    literal.  Each removal pushes (extension, blocking literal) so the witness
    can be flipped during reconstruction; tautological extensions are deleted
    outright."""
    stats = stats or TechniqueStats()

    def check(cid):
        clause = formula.clauses[cid]
        wset, taut, added = _extend(formula, clause, cid, mode)
        stats.literals_added += added
        if taut:
            return None
        lit = _blocking_literal(formula, wset, clause, cid)
        if lit is None:
            return {abs(l) for l in wset}
        if stack is not None:
            stack.push_clause([(wset, lit)])
        return None

    order = list(scan_order) if scan_order is not None else None
    return _worklist(formula, stats, check, order)


def eliminate_covered(formula, mode=ExtensionMode.NONE, stack=None, stats=None):
    """CCE / HCCE / ACCE: alternate the mode's extension with covered literal
    additions until the working clause is removable, tautological, or stable.

    Both steps are closures: each returns at its own fixpoint, so running one
    again on its own result adds nothing.  A sweep therefore runs first, and
    again only after an extension that added a literal, and the clause is
    stable once either step adds nothing.

    A tautology reached through the extension alone is a pure deletion, but if
    covered additions contributed, the accumulated steps are pushed because
    those additions are only satisfiability-preserving with their witnesses.
    """
    stats = stats or TechniqueStats()

    def check(cid):
        wset = set(formula.clauses[cid])
        steps = []
        while True:
            wset, removable, added = _extend(formula, wset, cid, mode)
            stats.literals_added += added
            if not removable and (added or not steps):
                removable, _, wset, csteps, added = _covered(formula, wset, cid)
                stats.literals_added += added
                steps.extend(csteps)
            if removable:
                if steps and stack is not None:
                    stack.push_clause(steps)
                return None
            if not added:
                return {abs(l) for l in wset}

    return _worklist(formula, stats, check)


# --- predicates used by the hierarchy property suites -----------------------

def is_extended_tautology(formula, cid, mode):
    _, taut, _ = _extend(formula, formula.clauses[cid], cid, mode,
                         early_exit=False)
    return taut


def find_subsumer(formula, cid, mode):
    ext, _, _ = _extend(formula, formula.clauses[cid], cid, mode,
                        early_exit=False)
    return _find_subsumer_of(formula, cid, ext)


def is_blocked(formula, cid, mode):
    """Removable by the blocked-clause rule under the given extension mode
    (tautological extension counts)."""
    clause = formula.clauses[cid]
    wset, taut, _ = _extend(formula, clause, cid, mode)
    return taut or _blocking_literal(formula, wset, clause, cid) is not None


# --- pipeline ----------------------------------------------------------------

@dataclass
class PipelineConfig:
    global_fixpoint: bool = False
    ve_growth_bound: int = 0


# technique name -> (procedure, extension mode).  An elimination procedure is
# called as procedure(formula, mode, stack, stats) and keeps its own counters.
# A formula-level one (mode None) is called as procedure(formula, stack,
# config) and counts as one round, its net change in size as removed or added.
_TECHNIQUES = {
    "te": (eliminate_tautologies, ExtensionMode.NONE),
    "hte": (eliminate_tautologies, ExtensionMode.HIDDEN),
    "ate": (eliminate_tautologies, ExtensionMode.ASYMMETRIC),
    "se": (eliminate_subsumed, ExtensionMode.NONE),
    "hse": (eliminate_subsumed, ExtensionMode.HIDDEN),
    "ase": (eliminate_subsumed, ExtensionMode.ASYMMETRIC),
    "bce": (eliminate_blocked, ExtensionMode.NONE),
    "hbce": (eliminate_blocked, ExtensionMode.HIDDEN),
    "abce": (eliminate_blocked, ExtensionMode.ASYMMETRIC),
    "cce": (eliminate_covered, ExtensionMode.NONE),
    "hcce": (eliminate_covered, ExtensionMode.HIDDEN),
    "acce": (eliminate_covered, ExtensionMode.ASYMMETRIC),
    "pl": (lambda f, stack, config: pure_literal_elim(f, stack), None),
    "fle": (lambda f, stack, config: failed_literal_probe(f), None),
    "els": (lambda f, stack, config: substitute_equivalent_literals(f, stack),
            None),
    "ve": (lambda f, stack, config: bounded_variable_elim(
        f, config.ve_growth_bound, stack), None),
}

# one member per row of ``_TECHNIQUES``, in its order: ``TechniqueId.HBCE``
# is ``"hbce"``
TechniqueId = Enum("TechniqueId", {n.upper(): n for n in _TECHNIQUES},
                   type=str, module=__name__)


def run_pipeline(formula: CnfFormula, order, config=None):
    """Apply each technique to fixpoint in the given order.

    Returns (formula, stack, report).  Unsatisfiability discovered by a step
    surfaces immediately as an empty clause in the result.  With
    config.global_fixpoint the whole order repeats until nothing changes.
    """
    config = config or PipelineConfig()
    try:
        order = [TechniqueId(t) for t in order]
    except ValueError as exc:
        raise ValueError(f"unknown technique: {exc}") from None
    if len(set(order)) != len(order):
        raise ValueError("techniques in a pipeline must be distinct")
    stack = ReconstructionStack()
    report = ElimReport()
    report.clauses_before = len(formula.clauses)

    while True:
        if config.global_fixpoint:
            signature = formula.clause_multiset()
        for tid in order:
            if formula.has_empty_clause:
                break
            procedure, mode = _TECHNIQUES[tid]
            stats = report.stats(tid)
            start = time.perf_counter()
            if mode is not None:
                procedure(formula, mode, stack, stats)
            else:
                before = len(formula.clauses)
                stats.rounds += 1
                procedure(formula, stack, config)
                # net accounting keeps removed-added equal to the size delta
                delta = len(formula.clauses) - before
                if delta < 0:
                    stats.clauses_removed -= delta
                else:
                    stats.clauses_added += delta
            stats.seconds += time.perf_counter() - start
        if (formula.has_empty_clause or not config.global_fixpoint
                or formula.clause_multiset() == signature):
            break

    report.clauses_after = len(formula.clauses)
    return formula, stack, report
