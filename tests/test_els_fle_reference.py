"""Equivalent-literal substitution and failed-literal probing on the
occurrence index, against the procedures they replaced, kept here as the
references: a separate binary implication graph with sorted node and
successor views, and a unit application that rewrites every clause, called
from a probe loop that recomputes the top-level closure at each restart."""

import random

import pytest

from cnfkit.circuit import normalize_circuit
from cnfkit.encode import tseitin
from cnfkit.formula import (CnfFormula, _scc_tarjan, bcp, clause_satisfied,
                            equivalent_literal_substitution,
                            failed_literal_probe, lit_key, normalize_clause,
                            propagate, substitute_equivalent_literals)
from cnfkit.reconstruct import ReconstructionStack
from conftest import parity_circuit, random_circuit, random_formula


# --- references ---------------------------------------------------------------

class BinaryImplicationGraph:
    def __init__(self):
        self.succ = {}

    def add_binary(self, a, b):
        self.succ.setdefault(-a, set()).add(b)
        self.succ.setdefault(-b, set()).add(a)

    def nodes(self):
        names = set(self.succ)
        for targets in self.succ.values():
            names |= targets
        return sorted(names, key=lit_key)

    def successors(self, lit):
        return sorted(self.succ.get(lit, ()), key=lit_key)


def build_big(formula):
    big = BinaryImplicationGraph()
    for clause in formula.clauses.values():
        if len(clause) == 2:
            big.add_binary(clause[0], clause[1])
    return big


def reference_scc_tarjan(big):
    index, low, on_stack, stack, sccs = {}, {}, set(), [], []
    counter = 0
    for root in big.nodes():
        if root in index:
            continue
        work = [(root, iter(big.successors(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(big.successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(comp)
    return sccs


def reference_equivalent_literal_substitution(formula):
    subst = {}
    for comp in reference_scc_tarjan(build_big(formula)):
        members = set(comp)
        if any(-l in members for l in members):
            formula.add_clause([])
            return formula, {}
        if len(members) < 2:
            continue
        rep = min(members, key=lit_key)
        for l in members:
            if l != rep:
                subst[l] = rep
                subst[-l] = -rep
    if not subst:
        return formula, {}
    seen = {}
    for cid in formula.ids():
        clause, taut = normalize_clause(
            [subst.get(l, l) for l in formula.clauses[cid]])
        if taut:
            formula.remove_clause(cid)
            continue
        if clause != formula.clauses[cid]:
            formula.replace_clause(cid, clause)
        if clause in seen:
            formula.remove_clause(cid)
        else:
            seen[clause] = cid
    return formula, subst


def reference_substitute_equivalent_literals(formula, stack):
    while True:
        _, subst = reference_equivalent_literal_substitution(formula)
        if not subst:
            return formula
        for var in sorted({abs(l) for l in subst}):
            rep = subst[var]
            stack.push_var(var, [tuple(sorted((-var, rep), key=lit_key)),
                                 tuple(sorted((var, -rep), key=lit_key))])


def reference_propagate_units(formula, assign):
    for cid in formula.ids():
        clause = formula.clauses[cid]
        if clause_satisfied(clause, assign):
            formula.remove_clause(cid)
            continue
        kept = [l for l in clause if abs(l) not in assign]
        if len(kept) != len(clause):
            formula.replace_clause(cid, kept)
    for var in sorted(assign):
        formula.add_clause([var if assign[var] else -var])
    return formula


def reference_failed_literal_probe(formula):
    learned = []
    while True:
        base = bcp(formula)
        if base is None:
            formula.add_clause([])
            return formula, learned
        progress = False
        for var in range(1, formula.num_vars + 1):
            if var in base:
                continue
            if not formula.occ_ids(var) and not formula.occ_ids(-var):
                continue
            for lit in (var, -var):
                if propagate(formula, (-lit,))[1]:
                    learned.append(-lit)
                    formula.add_clause([-lit])
                    assign = bcp(formula)
                    if assign is None:
                        formula.add_clause([])
                        return formula, learned
                    reference_propagate_units(formula, assign)
                    progress = True
                    break
            if progress:
                break
        if not progress:
            if base:
                reference_propagate_units(formula, base)
            return formula, learned


# --- corpus -------------------------------------------------------------------

def dense_formula(rng, widths):
    """Many short clauses over few variables, so implication cycles,
    components holding a literal and its negation, and failed literals are
    common."""
    num_vars = rng.randint(2, 10)
    formula = CnfFormula(num_vars=num_vars)
    for _ in range(rng.randint(1, 4 * num_vars)):
        clause, taut = normalize_clause(
            [rng.choice((-1, 1)) * rng.randint(1, num_vars)
             for _ in range(rng.choice(widths))])
        if not taut:
            formula.add_clause(clause)
    return formula


def build_corpus():
    rng = random.Random(1011)
    parts = {
        "random": [random_formula(rng, max_vars=8, max_clauses=24)
                   for _ in range(200)],
        "binary": [dense_formula(rng, (1, 2, 2, 2, 2, 2, 3))
                   for _ in range(250)],
        "ternary": [dense_formula(rng, (2, 3, 3)) for _ in range(250)],
        "circuits": [tseitin(normalize_circuit(random_circuit(rng)))[0]
                     for _ in range(60)],
    }
    parts["circuits"] += [tseitin(normalize_circuit(parity_circuit(rng, gates)))[0]
                          for gates in (20, 40, 60, 80)]
    return parts


PARTS = build_corpus()
CORPUS = [f for part in PARTS.values() for f in part]


def occurrence_orders(formula):
    """Every iteration order a later technique can observe."""
    return ([(l, list(ids)) for l, ids in formula.occ.items()],
            list(formula.short))


# --- ELS ----------------------------------------------------------------------

def nontrivial(sccs):
    return {frozenset(comp) for comp in sccs if len(comp) > 1}


def contradictory(sccs):
    return any(-l in comp for comp in map(set, sccs) for l in comp)


def test_components_match_reference():
    contradictions = collapsing = 0
    for f in CORPUS:
        new = _scc_tarjan(f)
        old = reference_scc_tarjan(build_big(f))
        assert nontrivial(new) == nontrivial(old)
        assert contradictory(new) == contradictory(old)
        contradictions += contradictory(old)
        collapsing += bool(nontrivial(old))
    assert contradictions > 20 and collapsing > 100


def test_components_are_closed_under_negation():
    for f in CORPUS:
        comps = nontrivial(_scc_tarjan(f))
        assert {frozenset(-l for l in comp) for comp in comps} == comps


def test_substitution_matches_reference():
    substituted = 0
    for f in CORPUS:
        new, old = f.copy(), f.copy()
        _, new_subst = equivalent_literal_substitution(new)
        _, old_subst = reference_equivalent_literal_substitution(old)
        assert new_subst == old_subst
        assert list(new.clauses.items()) == list(old.clauses.items())
        assert occurrence_orders(new) == occurrence_orders(old)
        new.check_integrity()
        substituted += bool(new_subst)
    assert substituted > 100


def test_substitution_to_fixpoint_matches_reference():
    for f in CORPUS:
        new, old = f.copy(), f.copy()
        new_stack, old_stack = ReconstructionStack(), ReconstructionStack()
        substitute_equivalent_literals(new, new_stack)
        reference_substitute_equivalent_literals(old, old_stack)
        assert list(new.clauses.items()) == list(old.clauses.items())
        assert new_stack.to_text() == old_stack.to_text()


# --- FLE ----------------------------------------------------------------------

@pytest.mark.parametrize("part", sorted(PARTS))
def test_failed_literal_probe_matches_reference(part):
    restarts = unsat = 0
    for f in PARTS[part]:
        new, old = f.copy(), f.copy()
        _, new_learned = failed_literal_probe(new)
        _, old_learned = reference_failed_literal_probe(old)
        assert new_learned == old_learned
        assert list(new.clauses.items()) == list(old.clauses.items())
        assert occurrence_orders(new) == occurrence_orders(old)
        new.check_integrity()
        restarts += len(new_learned) > 1
        unsat += new.has_empty_clause
    assert restarts > 0
    if part != "circuits":
        assert unsat > 0
