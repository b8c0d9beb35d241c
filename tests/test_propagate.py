"""The propagation kernel against the hidden/asymmetric literal addition
loops it replaced, kept here as the reference."""

import random

from cnfkit.formula import CnfFormula, bcp, lit_key, propagate
from conftest import random_formula


def reference_extension(formula, base, exclude_id, hidden):
    """Hidden (binary clauses) or asymmetric (all clauses) literal addition
    to the full fixpoint.  Returns (literal set, tautology flag)."""
    wset = set(base)
    taut = any(-l in wset for l in wset)
    if hidden:
        queue = sorted(wset, key=lit_key)
        while queue:
            l0 = queue.pop(0)
            for cid in sorted(formula.occ_ids(l0)):
                if cid == exclude_id:
                    continue
                clause = formula.clauses[cid]
                if len(clause) != 2:
                    continue
                other = clause[1] if clause[0] == l0 else clause[0]
                add = -other
                if add in wset:
                    continue
                if -add in wset:
                    taut = True
                wset.add(add)
                queue.append(add)
        return wset, taut

    # asymmetric: add the complement of l whenever another clause minus l
    # is contained in the working clause
    changed = True
    while changed:
        changed = False
        for cid in formula.ids():
            if cid == exclude_id:
                continue
            cset = frozenset(formula.clauses[cid])
            diff = cset - wset
            if len(diff) > 1:
                continue
            if len(diff) == 1:
                (l,) = diff
                if -l not in wset:
                    wset.add(-l)
                    changed = True
            else:  # clause entirely contained: every literal's complement applies
                taut = True
                for l in sorted(cset, key=lit_key):
                    if -l not in wset:
                        wset.add(-l)
                        changed = True
    return wset, taut


def has_pair(lits):
    return any(-l in lits for l in lits)


def corpus(seed, count, max_vars, max_clauses):
    rng = random.Random(seed)
    return [random_formula(rng, max_vars, max_clauses) for _ in range(count)]


def test_extension_matches_reference():
    checks = conflicts = 0
    for f in corpus(1, 400, 6, 14) + corpus(2, 150, 10, 30):
        for cid in f.ids():
            for hidden in (True, False):
                ref, ref_taut = reference_extension(f, f.clauses[cid], cid, hidden)
                full, taut = propagate(f, f.clauses[cid], cid, hidden,
                                       early_exit=False)
                assert (full, taut) == (ref, ref_taut)
                early, early_taut = propagate(f, f.clauses[cid], cid, hidden)
                assert early_taut == taut
                assert set(f.clauses[cid]) <= early <= full
                if taut:
                    assert has_pair(full) and has_pair(early)
                    conflicts += 1
                checks += 1
    # both outcomes are well represented
    assert checks > 5000 and 1000 < conflicts < checks - 1000


def test_bcp_matches_reference():
    rng = random.Random(3)
    conflicts = 0
    for f in corpus(4, 600, 8, 20):
        assumptions = {rng.choice((-1, 1)) * rng.randint(1, f.num_vars)
                       for _ in range(rng.randint(0, 3))}
        ref, ref_conflict = reference_extension(
            f, [-l for l in assumptions], None, hidden=False)
        assign = bcp(f, assumptions)
        if ref_conflict:
            assert assign is None
            conflicts += 1
        else:
            assert assign == {abs(l): l < 0 for l in ref}
    assert 100 < conflicts < 500


def test_short_clause_index():
    f = CnfFormula(clauses=[[1, 2], [3], [-1, -2, 3]])
    g = f.copy()
    f.replace_clause(0, [1])
    f.remove_clause(1)
    cid = f.add_clause([])
    f.check_integrity()
    assert f.short == {0, cid} and f.has_empty_clause
    assert g.short == {1} and not g.has_empty_clause
    assert propagate(f, ())[1] and not propagate(f, (), exclude=cid)[1]
