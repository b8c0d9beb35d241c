import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfkit.formula import (CnfFormula, bcp, bounded_variable_elim,
                            equivalent_literal_substitution,
                            failed_literal_probe, normalize_clause,
                            pure_literal_elim, satisfies)
from cnfkit.oracle import brute_force_sat, equisat
from cnfkit.reconstruct import ReconstructionStack, reconstruct_model
from conftest import random_formula


def F(*clauses, num_vars=0):
    return CnfFormula(num_vars=num_vars, clauses=clauses)


class TestNormalizeClause:
    def test_duplicate_removal(self):
        assert normalize_clause([1, 1, 2]) == ((1, 2), False)

    def test_complementary_pair(self):
        assert normalize_clause([1, -1]) == ((1, -1), True)

    def test_empty(self):
        assert normalize_clause([]) == ((), False)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_clause([0, 1])

    @given(st.lists(st.integers(min_value=-8, max_value=8).filter(bool)))
    @settings(deadline=None)
    def test_idempotent_and_sorted(self, lits):
        clause, taut = normalize_clause(lits)
        assert normalize_clause(clause) == (clause, taut)
        assert len(set(clause)) == len(clause)
        assert set(clause) == set(lits)


class TestOccurrenceIndex:
    def test_random_mutations_keep_index_consistent(self, rng):
        f = CnfFormula()
        live = []
        for step in range(300):
            if live and rng.random() < 0.4:
                cid = live.pop(rng.randrange(len(live)))
                f.remove_clause(cid)
            else:
                lits = [rng.choice((-1, 1)) * rng.randint(1, 6)
                        for _ in range(rng.randint(0, 4))]
                live.append(f.add_clause(lits))
            f.check_integrity()

    def test_copy_is_independent(self):
        f = F([1, 2])
        g = f.copy()
        g.add_clause([3])
        assert len(f.clauses) == 1 and len(g.clauses) == 2
        f.check_integrity()
        g.check_integrity()


class TestBcp:
    def test_single_unit(self):
        assert bcp(F([1])) == {1: True}

    def test_chain(self):
        assert bcp(F([1], [-1, 2])) == {1: True, 2: True}

    def test_conflict(self):
        assert bcp(F([1], [-1])) is None

    def test_empty_clause_conflicts(self):
        assert bcp(F([])) is None

    def test_assumption(self):
        assert bcp(F([-1, 2]), (1,)) == {1: True, 2: True}

    def test_fixpoint_is_order_independent(self, rng):
        # permuting clause insertion order must not change the fixpoint
        for _ in range(200):
            f = random_formula(rng, max_vars=6, max_clauses=12)
            clauses = list(f.clauses.values())
            expected = bcp(f)
            for _ in range(3):
                rng.shuffle(clauses)
                assert bcp(CnfFormula(num_vars=f.num_vars, clauses=clauses)) \
                    == expected


class TestFailedLiteralProbe:
    def test_learns_failed_literal(self):
        f, learned = failed_literal_probe(F([-1, 2], [-1, -2]))
        assert learned == [-1]
        assert list(f.clauses.values()) == [(-1,)]

    def test_no_probe_fails(self):
        f, learned = failed_literal_probe(F([1, 2]))
        assert learned == []
        assert list(f.clauses.values()) == [(1, 2)]

    def test_unsat(self):
        f, _ = failed_literal_probe(F([1], [-1]))
        assert f.has_empty_clause

    def test_result_is_equivalent(self, rng):
        for _ in range(200):
            f = random_formula(rng, max_vars=6, max_clauses=12)
            if f.has_empty_clause:
                continue
            orig = f.copy()
            out, _ = failed_literal_probe(f)
            assert equisat(orig, out)


class TestPureLiteralElim:
    def test_pure_removes_and_records(self):
        stack = ReconstructionStack()
        f = pure_literal_elim(F([1, 2], [1, -2]), stack)
        assert not f.clauses
        assert len(stack) == 2
        model = reconstruct_model(stack, {}, 2)
        assert satisfies(F([1, 2], [1, -2]), model)

    def test_no_pure_literal(self):
        f = F([1], [-1])
        pure_literal_elim(f, ReconstructionStack())
        assert list(f.clauses.values()) == [(1,), (-1,)]

    def test_empty(self):
        f = pure_literal_elim(F(), ReconstructionStack())
        assert not f.clauses


class TestEquivalentLiteralSubstitution:
    def test_direct_equivalence(self):
        f, sub = equivalent_literal_substitution(F([1, -2], [2, -1]))
        assert sub == {2: 1, -2: -1}
        assert not f.clauses

    def test_negated_equivalence(self):
        f, sub = equivalent_literal_substitution(F([1, 2], [-1, -2]))
        assert sub == {2: -1, -2: 1}
        assert not f.clauses

    def test_no_binary_clauses(self):
        f, sub = equivalent_literal_substitution(F([1, 2, 3]))
        assert sub == {}
        assert list(f.clauses.values()) == [(1, 2, 3)]

    def test_unsat_cycle(self):
        # all four literals of vars 1,2 end up in one component
        f, _ = equivalent_literal_substitution(
            F([1, 2], [-1, 2], [1, -2], [-1, -2]))
        assert f.has_empty_clause

    def test_models_extend(self, rng):
        for _ in range(300):
            f = random_formula(rng, max_vars=6, max_clauses=12)
            orig = f.copy()
            out, sub = equivalent_literal_substitution(f)
            assert equisat(orig, out)
            model = brute_force_sat(out)
            if model is None or not sub:
                continue
            extended = dict(model)
            for lit, rep in sub.items():
                if lit > 0:
                    extended[lit] = extended[rep] if rep > 0 else not extended[-rep]
            assert satisfies(orig, extended)


class TestBoundedVariableElim:
    def test_single_resolvent(self):
        f = bounded_variable_elim(F([1, 2], [-1, 3]), 0)
        assert list(f.clauses.values()) == [(2, 3)]

    def test_four_by_four(self):
        f = bounded_variable_elim(F([1, 2], [1, 3], [-1, 4], [-1, 5]), 0)
        assert sorted(f.clauses.values()) == [(2, 4), (2, 5), (3, 4), (3, 5)]

    def test_complementary_units(self):
        f = bounded_variable_elim(F([1], [-1]), 0)
        assert list(f.clauses.values()) == [()]

    def test_growth_bound_respected(self):
        f = F([1, 2], [1, 3], [-1, 4], [-1, 5], [-1, 6])
        out = bounded_variable_elim(f.copy(), 0)
        assert sorted(out.clauses.values()) == sorted(f.clauses.values())
        out = bounded_variable_elim(f.copy(), 1)
        assert len(out.clauses) == 6

    def test_reconstruction(self, rng):
        for _ in range(300):
            f = random_formula(rng, max_vars=6, max_clauses=10)
            orig = f.copy()
            stack = ReconstructionStack()
            out = bounded_variable_elim(f, rng.choice((0, 1, 2)), stack)
            assert equisat(orig, out)
            model = brute_force_sat(out)
            if model is not None:
                repaired = reconstruct_model(stack, model, orig.num_vars)
                assert satisfies(orig, repaired)
