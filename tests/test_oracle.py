import pytest

from cnfkit.bench import gen_php
from cnfkit.formula import CnfFormula, bcp
from cnfkit.oracle import (BoundExceeded, _true_mask, all_models,
                           brute_force_sat, count_models, equisat)
from conftest import random_formula


def F(*clauses, num_vars=0):
    return CnfFormula(num_vars=num_vars, clauses=clauses)


class TestBruteForceSat:
    def test_empty_formula(self):
        assert brute_force_sat(F()) == {}
        assert brute_force_sat(F(num_vars=2)) == {1: False, 2: False}

    def test_empty_clause(self):
        assert brute_force_sat(F([])) is None

    def test_php2_unsat(self):
        assert brute_force_sat(gen_php(2)) is None

    def test_least_model(self):
        # var 1 is the least significant bit of the enumeration
        assert brute_force_sat(F([1, 2])) == {1: True, 2: False}
        assert brute_force_sat(F([2])) == {1: False, 2: True}

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            brute_force_sat(F(num_vars=25))


class TestCountModels:
    def test_free_vars(self):
        assert count_models(F(num_vars=2)) == 4

    def test_unit(self):
        assert count_models(F([1])) == 1

    def test_binary_clause(self):
        assert count_models(F([1, 2])) == 3

    def test_renaming_invariance(self, rng):
        for _ in range(100):
            f = random_formula(rng, max_vars=5, max_clauses=10)
            perm = list(range(1, f.num_vars + 1))
            rng.shuffle(perm)
            mapping = {v: perm[v - 1] for v in range(1, f.num_vars + 1)}
            g = CnfFormula(num_vars=f.num_vars)
            for clause in f.clauses.values():
                g.add_clause([(1 if l > 0 else -1) * mapping[abs(l)]
                              for l in clause])
            assert count_models(f) == count_models(g)


class TestEquisat:
    def test_reflexive(self):
        f = F([1, 2])
        assert equisat(f, f)

    def test_both_sat(self):
        assert equisat(F([1]), F([-1]))

    def test_differs(self):
        assert not equisat(F([1], [-1]), F([2]))


class TestAgainstBcp:
    def test_propagation_decided_formulas(self, rng):
        # when unit propagation alone decides the formula, the oracle agrees
        for _ in range(300):
            f = random_formula(rng, max_vars=6, max_clauses=12)
            assign = bcp(f)
            if assign is None:
                assert brute_force_sat(f) is None
            elif len(assign) == f.num_vars:
                from cnfkit.formula import satisfies
                if satisfies(f, assign):
                    assert brute_force_sat(f) is not None


class TestAllModels:
    def test_enumeration_order(self):
        models = list(all_models(F([1, 2])))
        assert len(models) == 3
        assert models[0] == {1: True, 2: False}
        assert models[-1] == {1: True, 2: True}

    def test_order_matches_counting(self, rng):
        # every satisfying assignment, in increasing binary-counting order
        for _ in range(100):
            f = random_formula(rng, max_vars=7, max_clauses=10)
            n = f.num_vars
            expected = []
            for k in range(1 << n):
                assign = {v: bool((k >> (v - 1)) & 1) for v in range(1, n + 1)}
                if all(any(assign[abs(l)] == (l > 0) for l in c)
                       for c in f.clauses.values()):
                    expected.append(assign)
            assert list(all_models(f)) == expected


def test_true_mask_matches_bit_definition():
    for n in range(1, 11):
        for var in range(1, n + 1):
            expected = sum(1 << k for k in range(1 << n) if (k >> (var - 1)) & 1)
            assert _true_mask(var, n) == expected
