"""The occurrence-driven schedules against the whole-formula rescans they
replaced, kept here as the references: VE and PL restarting at variable 1
after every step, subsumer search over every clause, and elimination rounds
that check every clause left."""

import random

import pytest

from cnfkit.circuit import normalize_circuit
from cnfkit.elim import (ExtensionMode, TechniqueStats, _blocking_literal,
                         _covered, _extend, blocking_literal,
                         eliminate_blocked, eliminate_covered,
                         eliminate_subsumed, eliminate_tautologies,
                         find_subsumer)
from cnfkit.encode import tseitin
from cnfkit.formula import bounded_variable_elim, pure_literal_elim
from cnfkit.io import parse_dimacs
from cnfkit.reconstruct import ReconstructionStack
from conftest import parity_circuit, random_circuit, random_formula
from test_golden import CORPUS as GOLDEN_CORPUS, LARGE_CORPUS

MODES = list(ExtensionMode)


# --- references ---------------------------------------------------------------

def reference_bounded_variable_elim(formula, growth_bound, stack):
    while True:
        eliminated = False
        for var in range(1, formula.num_vars + 1):
            pos = sorted(formula.occ_ids(var))
            neg = sorted(formula.occ_ids(-var))
            if not pos or not neg:
                continue
            resolvents = []
            for pid in pos:
                pc = frozenset(formula.clauses[pid])
                for nid in neg:
                    merged = (pc | frozenset(formula.clauses[nid])) - {var, -var}
                    if any(-l in merged for l in merged):
                        continue
                    resolvents.append(merged)
            if len(resolvents) > len(pos) + len(neg) + growth_bound:
                continue
            saved = [formula.clauses[cid] for cid in sorted(set(pos) | set(neg))]
            stack.push_var(var, saved)
            for cid in sorted(set(pos) | set(neg)):
                formula.remove_clause(cid)
            for merged in resolvents:
                formula.add_clause(merged)
            eliminated = True
            if formula.has_empty_clause:
                return formula
            break
        if not eliminated:
            return formula


def reference_pure_literal_elim(formula, stack):
    while True:
        pure = None
        for var in range(1, formula.num_vars + 1):
            for lit in (var, -var):
                if formula.occ_ids(lit) and not formula.occ_ids(-lit):
                    pure = lit
                    break
            if pure is not None:
                break
        if pure is None:
            return formula
        for cid in sorted(formula.occ_ids(pure)):
            clause = formula.remove_clause(cid)
            stack.push_clause([(clause, pure)])


def reference_find_subsumer_of(formula, cid, own, ext):
    for oid in formula.ids():
        if oid == cid:
            continue
        oset = frozenset(formula.clauses[oid])
        if oset <= ext and (oset != own or oid < cid):
            return oid
    return None


def reference_find_subsumer(formula, cid, mode):
    ext, _, _ = _extend(formula, formula.clauses[cid], cid, mode,
                        early_exit=False)
    return reference_find_subsumer_of(formula, cid, frozenset(formula.clauses[cid]), ext)


def reference_tautologies(formula, mode, stack, stats):
    changed = True
    while changed:
        stats.rounds += 1
        changed = False
        for cid in formula.ids():
            _, taut, added = _extend(formula, formula.clauses[cid], cid, mode)
            stats.literals_added += added
            if taut:
                formula.remove_clause(cid)
                stats.clauses_removed += 1
                changed = True
    return formula


def reference_subsumed(formula, mode, stack, stats):
    changed = True
    while changed:
        stats.rounds += 1
        changed = False
        for cid in formula.ids():
            if cid not in formula.clauses:
                continue
            ext, _, added = _extend(formula, formula.clauses[cid], cid, mode,
                                    early_exit=False)
            stats.literals_added += added
            own = frozenset(formula.clauses[cid])
            if reference_find_subsumer_of(formula, cid, own, ext) is not None:
                formula.remove_clause(cid)
                stats.clauses_removed += 1
                changed = True
    return formula


def reference_blocked(formula, mode, stack, stats, scan_order=None):
    base_order = list(scan_order) if scan_order is not None else None
    changed = True
    while changed:
        stats.rounds += 1
        changed = False
        ids = base_order if base_order is not None else formula.ids()
        for cid in ids:
            if cid not in formula.clauses:
                continue
            wset, taut, added = _extend(formula, formula.clauses[cid], cid, mode)
            stats.literals_added += added
            if taut:
                formula.remove_clause(cid)
                stats.clauses_removed += 1
                changed = True
                continue
            lit = blocking_literal(formula, wset, cid)
            if lit is not None:
                stack.push_clause([(wset, lit)])
                formula.remove_clause(cid)
                stats.clauses_removed += 1
                changed = True
    return formula


def reference_covered(formula, mode, stack, stats):
    changed = True
    while changed:
        stats.rounds += 1
        changed = False
        for cid in formula.ids():
            if cid not in formula.clauses:
                continue
            wset = set(formula.clauses[cid])
            steps = []
            while True:
                before = set(wset)
                wset, taut, added = _extend(formula, wset, cid, mode)
                stats.literals_added += added
                if taut:
                    if steps:
                        stack.push_clause(steps)
                    formula.remove_clause(cid)
                    stats.clauses_removed += 1
                    changed = True
                    break
                removable, _, wset, csteps, cadded = _covered(formula, wset, cid)
                stats.literals_added += cadded
                steps.extend(csteps)
                if removable:
                    stack.push_clause(steps)
                    formula.remove_clause(cid)
                    stats.clauses_removed += 1
                    changed = True
                    break
                if wset == before:
                    break
    return formula


PROCEDURES = [
    (eliminate_tautologies, reference_tautologies),
    (eliminate_subsumed, reference_subsumed),
    (eliminate_blocked, reference_blocked),
    (eliminate_covered, reference_covered),
]


# --- corpora ------------------------------------------------------------------

def random_corpus():
    """Random formulas, every fifth with a tautological clause added."""
    rng = random.Random(404)
    corpus = [random_formula(rng, max_vars=10, max_clauses=30)
              for _ in range(150)]
    for f in corpus[::5]:
        var = rng.randint(1, f.num_vars)
        f.add_clause([var, -var, rng.randint(1, f.num_vars)])
    return corpus


def circuit_corpus():
    rng = random.Random(4040)
    corpus = [tseitin(normalize_circuit(random_circuit(rng, max_gates=16)))[0]
              for _ in range(30)]
    corpus += [tseitin(normalize_circuit(parity_circuit(rng, gates)))[0]
               for gates in (20, 30, 40, 50, 60, 80)]
    return corpus


CORPUS = random_corpus() + circuit_corpus()


def outcome(formula, stack, stats):
    return (list(formula.clauses.items()), formula.num_vars, stack.to_text(),
            stats.clauses_removed, stats.clauses_added, stats.rounds)


# --- tests --------------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("procedure, reference", PROCEDURES,
                         ids=lambda p: p.__name__)
def test_elimination_rounds_match_reference(procedure, reference, mode):
    checked = removed = multi_round = 0
    for f in CORPUS:
        new, old = f.copy(), f.copy()
        new_stack, old_stack = ReconstructionStack(), ReconstructionStack()
        new_stats, old_stats = TechniqueStats(), TechniqueStats()
        procedure(new, mode, new_stack, new_stats)
        reference(old, mode, old_stack, old_stats)
        assert outcome(new, new_stack, new_stats) == \
            outcome(old, old_stack, old_stats)
        # only checks that ran count their literals
        assert new_stats.literals_added <= old_stats.literals_added
        new.check_integrity()
        checked += 1
        removed += new_stats.clauses_removed
        multi_round += new_stats.rounds > 2
    assert checked == len(CORPUS) and removed > 0
    if procedure in (eliminate_blocked, eliminate_covered):
        assert multi_round > 0


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_blocked_scan_orders_match_reference(mode):
    rng = random.Random(77)
    for f in CORPUS[::3]:
        for _ in range(3):
            order = f.ids()
            rng.shuffle(order)
            new, old = f.copy(), f.copy()
            new_stack, old_stack = ReconstructionStack(), ReconstructionStack()
            new_stats, old_stats = TechniqueStats(), TechniqueStats()
            eliminate_blocked(new, mode, new_stack, new_stats, scan_order=order)
            reference_blocked(old, mode, old_stack, old_stats, scan_order=order)
            assert outcome(new, new_stack, new_stats) == \
                outcome(old, old_stack, old_stats)


@pytest.mark.parametrize("mode", [ExtensionMode.HIDDEN,
                                  ExtensionMode.ASYMMETRIC],
                         ids=lambda m: m.value)
def test_blocking_candidates_are_the_clause_literals(mode):
    """A literal the extension added never blocks, so trying only the
    clause's own literals finds the literal that trying the whole extension
    finds."""
    golden = [parse_dimacs(text) for text in GOLDEN_CORPUS + LARGE_CORPUS]
    extended = blocked = 0
    for f in CORPUS + golden:
        for cid in f.ids():
            clause = f.clauses[cid]
            wset, taut, added = _extend(f, clause, cid, mode)
            if taut:
                continue
            lit = blocking_literal(f, wset, cid)
            assert _blocking_literal(f, wset, clause, cid) == lit
            extended += added > 0
            blocked += added > 0 and lit is not None
    assert extended > 1000 and blocked > 100


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_find_subsumer_matches_reference(mode):
    found = 0
    for f in CORPUS:
        for cid in f.ids():
            expected = reference_find_subsumer(f, cid, mode)
            assert find_subsumer(f, cid, mode) == expected
            found += expected is not None
    assert found > 0


def test_find_subsumer_duplicates_and_empty_clauses():
    rng = random.Random(9)
    for f in CORPUS[:60]:
        f = f.copy()
        ids = f.ids()
        for cid in rng.sample(ids, min(3, len(ids))):
            f.add_clause(f.clauses[cid])
        if rng.random() < 0.3:
            f.add_clause([])
            f.add_clause([])
        for mode in MODES:
            for cid in f.ids():
                assert find_subsumer(f, cid, mode) == \
                    reference_find_subsumer(f, cid, mode)


@pytest.mark.parametrize("growth_bound", [0, 1, 4])
def test_bounded_variable_elim_matches_reference(growth_bound):
    eliminated = 0
    for f in CORPUS:
        new, old = f.copy(), f.copy()
        new_stack, old_stack = ReconstructionStack(), ReconstructionStack()
        bounded_variable_elim(new, growth_bound, new_stack)
        reference_bounded_variable_elim(old, growth_bound, old_stack)
        assert list(new.clauses.items()) == list(old.clauses.items())
        assert new_stack.to_text() == old_stack.to_text()
        new.check_integrity()
        eliminated += len(new_stack)
    assert eliminated > 0


def test_pure_literal_elim_matches_reference():
    removed = 0
    for f in CORPUS:
        new, old = f.copy(), f.copy()
        new_stack, old_stack = ReconstructionStack(), ReconstructionStack()
        pure_literal_elim(new, new_stack)
        reference_pure_literal_elim(old, old_stack)
        assert list(new.clauses.items()) == list(old.clauses.items())
        assert new_stack.to_text() == old_stack.to_text()
        removed += len(new_stack)
    assert removed > 0
