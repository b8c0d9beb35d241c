import random

import pytest

from cnfkit.elim import (ExtensionMode, PipelineConfig, TechniqueId,
                         _covered, _extend, blocking_literal,
                         covered_literal_additions, eliminate_blocked,
                         eliminate_covered, eliminate_subsumed,
                         eliminate_tautologies, extend_clause, find_subsumer,
                         is_blocked, is_extended_tautology, is_tautology,
                         run_pipeline)
from cnfkit.formula import CnfFormula, satisfies
from cnfkit.oracle import brute_force_sat, equisat
from cnfkit.reconstruct import ReconstructionStack, reconstruct_model
from conftest import random_formula

NONE, HIDDEN, ASYM = (ExtensionMode.NONE, ExtensionMode.HIDDEN,
                      ExtensionMode.ASYMMETRIC)


def F(*clauses, num_vars=0):
    return CnfFormula(num_vars=num_vars, clauses=clauses)


class TestExtendClause:
    def test_hidden_single_step(self):
        f = F([1, 2], [2, -3])
        assert extend_clause(f, 0, HIDDEN) == (1, 2, 3)

    def test_hidden_no_other_clauses(self):
        f = F([1, 2])
        assert extend_clause(f, 0, HIDDEN) == (1, 2)

    def test_asymmetric_reaches_tautology(self):
        f = F([1], [1, 2], [1, -2])
        ext = extend_clause(f, 0, ASYM)
        assert is_tautology(ext)
        assert set(ext) >= {1}

    def test_none_is_identity(self):
        f = F([1, 2], [2, -3])
        assert extend_clause(f, 0, NONE) == (1, 2)

    def test_fixpoint(self, rng):
        # re-extending an extension adds nothing
        for _ in range(150):
            f = random_formula(rng, max_vars=6, max_clauses=10)
            for cid in f.ids():
                for mode in (HIDDEN, ASYM):
                    ext = extend_clause(f, cid, mode, early_exit=False)
                    probe = f.copy()
                    probe.remove_clause(cid)
                    again = probe.add_clause(ext)
                    assert set(extend_clause(probe, again, mode,
                                             early_exit=False)) == set(ext)

    def test_extension_is_a_closure(self, rng):
        # eliminate_covered stops on this: extending a non-tautological
        # extension, of a clause or of its covered additions, adds nothing
        for _ in range(150):
            f = random_formula(rng, max_vars=6, max_clauses=10)
            for cid in f.ids():
                covered = covered_literal_additions(f, cid).lits
                for base in (f.clauses[cid], covered):
                    for mode in ExtensionMode:
                        wset, taut, _ = _extend(f, base, cid, mode)
                        if not taut:
                            assert _extend(f, wset, cid, mode) == \
                                (wset, False, 0)

    def test_covered_additions_are_a_closure(self, rng):
        # eliminate_covered sweeps again only after the extension added a
        # literal: a sweep of a sweep's kept result adds nothing
        for _ in range(150):
            f = random_formula(rng, max_vars=6, max_clauses=10)
            for cid in f.ids():
                for mode in ExtensionMode:
                    base, taut, _ = _extend(f, f.clauses[cid], cid, mode)
                    if taut:
                        continue
                    removable, _, wset, _, _ = _covered(f, base, cid)
                    if not removable:
                        again = set(wset)
                        assert _covered(f, again, cid) == \
                            (False, None, wset, [], 0)


class TestIsTautology:
    def test_pair(self):
        assert is_tautology((1, -1))

    def test_plain(self):
        assert not is_tautology((1, 2))

    def test_empty(self):
        assert not is_tautology(())


class TestBlockingLiteral:
    def test_tautological_resolvent(self):
        f = F([1, 2], [-1, -2])
        assert blocking_literal(f, f.clauses[0], 0) == 1

    def test_no_blocking_literal(self):
        f = F([1, 2], [-1, 2], [1, -2], [-1, -2])
        assert blocking_literal(f, f.clauses[0], 0) is None

    def test_vacuous(self):
        f = F([3])
        assert blocking_literal(f, f.clauses[0], 0) == 3


class TestEliminateTautologies:
    def test_plain(self):
        f = eliminate_tautologies(F([1, -1], [2]), NONE)
        assert list(f.clauses.values()) == [(2,)]

    def test_hidden(self):
        f = eliminate_tautologies(F([1, 2], [1, -3], [1, 3]), HIDDEN)
        assert list(f.clauses.values()) == [(1, -3), (1, 3)]

    def test_asymmetric(self):
        f = eliminate_tautologies(F([1], [1, 2], [1, -2]), ASYM)
        assert list(f.clauses.values()) == [(1, 2), (1, -2)]


class TestEliminateSubsumed:
    def test_direct(self):
        f = eliminate_subsumed(F([1], [1, 2]), NONE)
        assert list(f.clauses.values()) == [(1,)]

    def test_hidden(self):
        f = eliminate_subsumed(F([1, 3], [3, -2], [1, 2, 3]), HIDDEN)
        assert list(f.clauses.values()) == [(-2, 3), (1, 2, 3)]

    def test_duplicates_keep_lower_id(self):
        f = eliminate_subsumed(F([1, 2], [1, 2]), NONE)
        assert list(f.clauses.items()) == [(0, (1, 2))]


class TestEliminateBlocked:
    def test_both_blocked(self):
        f = F([1, 2], [-1, -2])
        stack = ReconstructionStack()
        eliminate_blocked(f, NONE, stack)
        assert not f.clauses
        assert len(stack) == 2

    def test_unsat_formula_untouched(self):
        f = F([1, 2], [-1, 2], [1, -2], [-1, -2])
        eliminate_blocked(f, NONE)
        assert len(f.clauses) == 4

    def test_empty(self):
        for mode in (NONE, HIDDEN, ASYM):
            assert not eliminate_blocked(F(), mode).clauses


class TestCoveredLiteralAdditions:
    def test_blocked_on_first_probe(self):
        # canonical order probes literal 1 first; -1 never occurs
        f = F([1, 2], [-2, 3])
        out = covered_literal_additions(f, 0)
        assert out.removable and out.witness == 1

    def test_extension_stays(self):
        f = F([1, 2], [-1, 3], [-1, 4], [-2, 3], [-2, 4])
        out = covered_literal_additions(f, 0)
        assert not out.removable
        assert out.lits == (1, 2)

    def test_vacuously_blocked(self):
        f = F([5])
        out = covered_literal_additions(f, 0)
        assert out.removable and out.witness == 5

    def test_covered_addition_then_blocked(self):
        # both phases of 1 occur, so probing moves on; 2's candidates all
        # contain 3, and 3 has no complement occurrences
        f = F([1, 2], [-1, 2], [-2, 3])
        out = covered_literal_additions(f, 0)
        assert out.removable and out.witness == 3
        assert out.steps[0][1] == 2  # covered literal 3 added via witness 2


class TestEliminateCovered:
    def test_removes_covered_clause(self):
        f = F([1, 2], [-2, 3])
        stack = ReconstructionStack()
        eliminate_covered(f, NONE, stack)
        # (1,2) goes first; (-2,3) is then vacuously blocked, so the
        # fixpoint empties the formula
        assert not f.clauses
        model = reconstruct_model(stack, {}, 3)
        assert satisfies(F([1, 2], [-2, 3]), model)

    def test_unsat_untouched(self):
        f = F([1, 2], [-1, 2], [1, -2], [-1, -2])
        eliminate_covered(f, NONE, ReconstructionStack())
        assert len(f.clauses) == 4

    def test_subsumes_blocked_elimination(self, rng):
        for _ in range(200):
            f = random_formula(rng, max_vars=6, max_clauses=12)
            blocked = {cid for cid in f.ids() if is_blocked(f, cid, NONE)}
            out = eliminate_covered(f.copy(), NONE, ReconstructionStack())
            assert blocked.isdisjoint(out.clauses.keys())


class TestHierarchy:
    def test_extension_monotone(self, rng):
        for _ in range(200):
            f = random_formula(rng, max_vars=6, max_clauses=12)
            for cid in f.ids():
                base = set(f.clauses[cid])
                hla = set(extend_clause(f, cid, HIDDEN, early_exit=False))
                ala = set(extend_clause(f, cid, ASYM, early_exit=False))
                assert base <= hla <= ala

    def test_predicate_monotone(self, rng):
        for _ in range(200):
            f = random_formula(rng, max_vars=6, max_clauses=12)
            for cid in f.ids():
                if is_tautology(f.clauses[cid]):
                    assert is_extended_tautology(f, cid, HIDDEN)
                if is_extended_tautology(f, cid, HIDDEN):
                    assert is_extended_tautology(f, cid, ASYM)
                if find_subsumer(f, cid, NONE) is not None:
                    assert find_subsumer(f, cid, HIDDEN) is not None
                if find_subsumer(f, cid, HIDDEN) is not None:
                    assert find_subsumer(f, cid, ASYM) is not None
                if is_blocked(f, cid, NONE):
                    assert is_blocked(f, cid, HIDDEN)


class TestRunPipeline:
    def test_te_only(self):
        f, stack, report = run_pipeline(F([1, -1]), [TechniqueId.TE])
        assert not f.clauses and not len(stack)
        assert report.techniques["te"].clauses_removed == 1

    def test_bce(self):
        f, stack, _ = run_pipeline(F([1, 2], [-1, -2]), ["bce"])
        assert not f.clauses
        assert len(stack) == 2

    def test_empty_formula(self):
        f, stack, _ = run_pipeline(F(), list(TechniqueId))
        assert not f.clauses and not len(stack)

    def test_duplicate_techniques_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(F(), ["te", "te"])

    def test_unknown_technique_named(self):
        with pytest.raises(ValueError, match="unknown technique: 'bogus'"):
            run_pipeline(F([1, 2]), ["bogus"])

    def test_unsat_surfaces(self):
        f, _, _ = run_pipeline(F([1], [-1]), ["fle", "bce"])
        assert f.has_empty_clause

    def test_global_fixpoint(self):
        # SE exposes a pure literal only after TE removes the tautology
        config = PipelineConfig(global_fixpoint=True)
        f, _, report = run_pipeline(F([1, 2], [1, 2, 3], [3, -3]),
                                    ["se", "te", "pl"], config)
        assert not f.clauses

    def test_deterministic(self, rng):
        order = ["fle", "els", "te", "se", "bce", "cce", "pl", "ve"]
        for _ in range(50):
            f = random_formula(rng)
            a, stack_a, _ = run_pipeline(f.copy(), order)
            b, stack_b, _ = run_pipeline(f.copy(), order)
            assert list(a.clauses.items()) == list(b.clauses.items())
            assert stack_a.to_text() == stack_b.to_text()

    def test_report_counters_match_delta(self, rng):
        order = ["te", "se", "bce", "pl", "ve"]
        for _ in range(100):
            f = random_formula(rng)
            before = len(f.clauses)
            out, _, report = run_pipeline(f, order)
            if out.has_empty_clause:
                continue
            delta = before - len(out.clauses)
            assert report.total_removed - report.total_added == delta
            assert report.clauses_before - report.clauses_after == delta


class TestReconstruction:
    def test_bce_pair_replay(self):
        f = F([1, 2], [-1, -2])
        stack = ReconstructionStack()
        eliminate_blocked(f, NONE, stack)
        model = reconstruct_model(stack, {}, 2)
        assert model == {1: True, 2: False}
        assert satisfies(F([1, 2], [-1, -2]), model)

    def test_empty_stack_is_identity(self):
        model = {1: True, 2: False}
        assert reconstruct_model(ReconstructionStack(), model, 2) == model

    def test_ve_entry_assigns_eliminated_var(self):
        stack = ReconstructionStack()
        stack.push_var(1, [(1, 2), (-1, 3)])
        model = reconstruct_model(stack, {2: False, 3: True}, 3)
        assert model[1] is True

    def test_full_pipeline_reconstruction(self, rng):
        order = ["els", "hte", "ase", "hbce", "acce", "pl", "fle", "ve"]
        for _ in range(300):
            f = random_formula(rng, max_vars=6, max_clauses=12)
            orig = f.copy()
            out, stack, _ = run_pipeline(f, order)
            assert equisat(orig, out)
            model = brute_force_sat(out)
            if model is not None:
                repaired = reconstruct_model(stack, model, orig.num_vars)
                assert satisfies(orig, repaired)


class TestStackTextFormat:
    def test_round_trip(self):
        stack = ReconstructionStack()
        stack.push_clause([((1, 2), 1)])
        stack.push_var(3, [(3, 1), (-3, 2)])
        stack.push_clause([((1, 2), 1), ((1, 2, 4), 4)])
        text = stack.to_text()
        again = ReconstructionStack.from_text(text)
        assert again.to_text() == text
        assert again.entries == stack.entries

    def test_empty(self):
        assert ReconstructionStack.from_text("").to_text() == ""

    def test_witness_must_be_in_snapshot(self):
        with pytest.raises(ValueError):
            ReconstructionStack().push_clause([((1, 2), 3)])

    def test_push_clause_stores_canonical_snapshots(self):
        stack = ReconstructionStack()
        stack.push_clause([({3, -1, 2}, 2), ((2, 2, 1), 1)])
        assert stack.entries == [(((-1, 2, 3), 2), ((1, 2), 1))]

    def test_push_rejects_zero_and_bad_variables(self):
        with pytest.raises(ValueError):
            ReconstructionStack().push_clause([((1, 0, 2), 1)])
        with pytest.raises(ValueError):
            ReconstructionStack().push_var(0, [(1,)])
