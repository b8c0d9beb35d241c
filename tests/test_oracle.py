import itertools
import random
import tracemalloc

import pytest

from cnfkit import oracle
from cnfkit.bench import gen_php
from cnfkit.cli import main
from cnfkit.formula import CnfFormula, bcp, normalize_clause
from cnfkit.io import model_text, write_dimacs
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
            assert list(all_models(f)) == enumerate_models(f)


def enumerate_models(formula):
    """Every model, assignment by assignment in binary-counting order."""
    n = formula.num_vars
    models = []
    for k in range(1 << n):
        assign = {v: bool((k >> (v - 1)) & 1) for v in range(1, n + 1)}
        if all(any(assign[abs(l)] == (l > 0) for l in c)
               for c in formula.clauses.values()):
            models.append(assign)
    return models


def test_true_mask_matches_bit_definition():
    for n in range(1, 11):
        for var in range(1, n + 1):
            expected = sum(1 << k for k in range(1 << n) if (k >> (var - 1)) & 1)
            assert _true_mask(var, n) == expected


# The one-mask evaluation that the blocked scan replaced, kept as a reference:
# one 2^n-bit mask per variable and per clause, ANDed over the formula.

def reference_mask(formula):
    """Bit k is set iff assignment k (var 1 least significant) is a model."""
    n = formula.num_vars
    full = (1 << (1 << n)) - 1
    true = {}
    for var in range(1, n + 1):
        width = 1 << (var - 1)
        mask = ((1 << width) - 1) << width
        width *= 2
        while width < 1 << n:
            mask |= mask << width
            width *= 2
        true[var] = mask
    mask = full
    for clause in formula.clauses.values():
        cm = 0
        for lit in clause:
            cm |= true[abs(lit)] if lit > 0 else full ^ true[abs(lit)]
        mask &= cm
    return mask


def reference_indices(mask, limit):
    """The first `limit` set bits of `mask`, lowest first."""
    indices = []
    while mask and len(indices) < limit:
        low = mask & -mask
        mask ^= low
        indices.append(low.bit_length() - 1)
    return indices


def index_of(model, n):
    assert sorted(model) == list(range(1, n + 1))
    return sum(1 << (v - 1) for v, value in model.items() if value)


def seeded_formula(rng, n, ratio):
    """`ratio * n` clauses of 1-4 random literals over variables 1..n."""
    formula = CnfFormula(num_vars=n)
    for _ in range(round(ratio * n)):
        lits = [rng.choice((-1, 1)) * rng.randint(1, n)
                for _ in range(rng.randint(1, 4))]
        clause, taut = normalize_clause(lits)
        if not taut:
            formula.add_clause(clause)
    return formula


def special_formulas():
    """Edge cases around the block boundary at 2^16 assignments."""
    yield F()                                   # no variables at all
    yield F(num_vars=17)                        # no clauses, two blocks
    yield F([], num_vars=20)                    # the empty clause
    yield F([17], [-19], [20])                  # units above 16 only
    yield F([18], [-18], num_vars=20)           # UNSAT above 16 only
    yield F([1, 17], [-1, 17], [-17, 2], [-17, -2], num_vars=19)  # UNSAT
    yield F([-1, -20], [1], [20, 3], [-3, 18, 16])
    yield gen_php(4)                            # UNSAT, 20 variables


def assert_matches_reference(formula, limit=4096):
    n = formula.num_vars
    mask = reference_mask(formula)
    least = reference_indices(mask, 1)
    model = brute_force_sat(formula)
    assert (model is None) == (not least)
    if model is not None:
        assert index_of(model, n) == least[0]
    assert count_models(formula) == mask.bit_count()
    models = itertools.islice(all_models(formula), limit)
    assert [index_of(m, n) for m in models] == reference_indices(mask, limit)
    return bool(mask)


class TestBlockedScan:
    def test_matches_one_mask_reference(self):
        rng = random.Random(17)
        verdicts = []
        for n in range(21):
            for ratio in (0.5, 1.0, 1.5, 2.5, 5.0):
                formula = seeded_formula(rng, n, ratio)
                verdicts.append((formula, assert_matches_reference(formula)))
        for formula in special_formulas():
            verdicts.append((formula, assert_matches_reference(formula)))
        assert {sat for _, sat in verdicts} == {True, False}
        for (f1, sat1), (f2, sat2) in zip(verdicts, verdicts[1:]):
            assert equisat(f1, f2) == (sat1 == sat2)

    def test_special_cases(self):
        assert brute_force_sat(F([17], [-19], [20])) == {
            v: v in (17, 20) for v in range(1, 21)}
        assert count_models(F([17], [-19], [20])) == 1 << 17
        assert count_models(F(num_vars=18)) == 1 << 18
        assert brute_force_sat(F([], num_vars=20)) is None
        assert list(all_models(F([18], [-18], num_vars=20))) == []

    def test_narrow_blocks_match_enumeration(self, monkeypatch):
        # with 2^3-assignment blocks, n = 4..10 spans 2 to 128 blocks
        monkeypatch.setattr(oracle, "_LOW", 3)
        rng = random.Random(3)
        for n in range(1, 11):
            for ratio in (0.5, 1.5, 3.0, 4.5):
                formula = seeded_formula(rng, n, ratio)
                expected = enumerate_models(formula)
                assert list(all_models(formula)) == expected
                assert brute_force_sat(formula) == (expected[0] if expected
                                                    else None)
                assert count_models(formula) == len(expected)


def traced(fn):
    """Run fn() under tracemalloc: (result, retained bytes, peak bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


class TestMaskMemory:
    MB = 1 << 20

    def test_priming_retains_block_masks_only(self, monkeypatch):
        # one clause over all n variables for n = 1..20, as perfbench primes
        monkeypatch.setattr(oracle, "_var_masks", {})
        _, retained, _ = traced(lambda: [
            brute_force_sat(F(list(range(1, n + 1)))) for n in range(1, 21)])
        assert max(n for _, n in oracle._var_masks) == oracle._LOW == 16
        assert retained < 0.5 * self.MB

    def test_twenty_variable_solve_peak(self, monkeypatch):
        monkeypatch.setattr(oracle, "_var_masks", {})
        formula = seeded_formula(random.Random(20), 20, 2.5)
        model, _, peak = traced(lambda: brute_force_sat(formula))
        assert peak < 1.5 * self.MB
        # the least of its 8 models lies in the ninth block
        assert index_of(model, 20) == reference_indices(
            reference_mask(formula), 1)[0] == 561544

    @pytest.mark.parametrize("ratio, code", [(1.5, 10), (2.5, 20)])
    def test_cli_bound_above_twenty(self, tmp_path, capsys, monkeypatch,
                                    ratio, code):
        # seeded 22-variable formulas, one SAT and one UNSAT
        monkeypatch.setattr(oracle, "_var_masks", {})
        formula = seeded_formula(random.Random(22), 22, ratio)
        least = reference_indices(reference_mask(formula), 1)
        expected = "s UNSATISFIABLE\n"
        if least:
            expected = "s SATISFIABLE\n" + model_text(
                {v: bool((least[0] >> (v - 1)) & 1) for v in range(1, 23)})
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(formula))
        result, _, peak = traced(lambda: main(
            ["solve", str(path), "--oracle", "--bound", "22"]))
        assert (result, capsys.readouterr().out) == (code, expected)
        assert peak < 2 * self.MB
