import itertools

import pytest

from cnfkit.circuit import (AND, CARD, EQUIV, EVEN, FALSE, IMPLY, INPUT, ITE,
                            NEG, NOT, OR, POS, TRUE, XOR, Circuit,
                            _child_marks, circuit_sat, normalize_circuit,
                            simplify_fixpoint)
from cnfkit.elim import ExtensionMode, eliminate_blocked
from cnfkit.encode import (UnnormalizedGate, build_varmap, gate_clauses,
                           plaisted_greenbaum, tseitin)
from cnfkit.formula import CnfFormula, satisfies
from cnfkit.oracle import brute_force_sat, count_models
from conftest import random_circuit
from test_circuit import circuit_of


def and_circuit():
    return circuit_of([("x", INPUT), ("y", INPUT), ("g", AND, ("x", "y"))],
                      ["g"])


class TestVarMap:
    def test_inputs_first_then_topological(self):
        c = circuit_of([("b", INPUT), ("a", INPUT), ("g", AND, ("a", "b")),
                        ("h", NOT, ("g",))], ["h"])
        vm = build_varmap(c)
        assert vm.gate_to_var == {"a": 1, "b": 2, "g": 3, "h": 4}

    def test_deterministic(self, rng):
        for _ in range(50):
            c = random_circuit(rng)
            assert build_varmap(c).gate_to_var == build_varmap(c).gate_to_var


class TestGateClauses:
    def test_and_pos(self):
        c = and_circuit()
        vm = build_varmap(c)
        g, x, y = vm.var("g"), vm.var("x"), vm.var("y")
        assert gate_clauses(c, "g", vm, POS) == [
            tuple(sorted((-g, x), key=abs)), tuple(sorted((-g, y), key=abs))]

    def test_input_is_silent(self):
        c = and_circuit()
        vm = build_varmap(c)
        assert gate_clauses(c, "x", vm, POS) == []
        assert gate_clauses(c, "x", vm, NEG) == []

    def test_ite_table_matches_semantics(self):
        c = circuit_of([("c", INPUT), ("t", INPUT), ("e", INPUT),
                        ("g", ITE, ("c", "t", "e"))])
        vm = build_varmap(c)
        rows = gate_clauses(c, "g", vm, POS) + gate_clauses(c, "g", vm, NEG)
        names = ["c", "t", "e", "g"]
        for bits in itertools.product((False, True), repeat=4):
            assign = {vm.var(n): b for n, b in zip(names, bits)}
            holds = all(any(assign[abs(l)] == (l > 0) for l in row)
                        for row in rows)
            cv, tv, ev, gv = bits
            assert holds == (gv == (tv if cv else ev))

    @pytest.mark.parametrize("func, n", [(XOR, 3), (CARD, 3), (EVEN, 2),
                                         (XOR, 1), (EQUIV, 1), (EQUIV, 3)])
    def test_unnormalized_rejected(self, rng, func, n):
        bounds = (1, 2) if func == CARD else ()
        c = circuit_of([("a", INPUT), ("b", INPUT), ("c2", INPUT),
                        ("g", func, ("a", "b", "c2")[:n], *bounds)])
        vm = build_varmap(c)
        text = rf"\({func}/{n}\) requires normalize_circuit first"
        with pytest.raises(UnnormalizedGate, match=text):
            gate_clauses(c, "g", vm, POS)

    @pytest.mark.parametrize("pol", [POS, NEG], ids=["POS", "NEG"])
    @pytest.mark.parametrize("func, n", [(NOT, 1), (AND, 1), (AND, 2),
                                         (AND, 3), (OR, 1), (OR, 2), (OR, 3),
                                         (IMPLY, 2), (XOR, 2), (EQUIV, 2),
                                         (ITE, 3)])
    def test_child_signs_match_polarity_marks(self, func, n, pol):
        """A child occurs in a gate's ``pol`` rows with exactly the signs
        that ``_child_marks`` passes it, which is what makes PG sound."""
        kids = ("a", "b", "c")[:n]
        c = circuit_of([("a", INPUT), ("b", INPUT), ("c", INPUT),
                        ("g", func, kids)])
        vm = build_varmap(c)
        kid_of = {vm.var(name): name for name in kids}
        signs = dict.fromkeys(kids, 0)
        for row in gate_clauses(c, "g", vm, pol):
            for lit in row:
                if abs(lit) in kid_of:
                    signs[kid_of[abs(lit)]] |= POS if lit > 0 else NEG
        assert signs == dict(_child_marks(c.gates["g"], pol))


class TestTseitin:
    def test_and_gate(self):
        f, vm = tseitin(and_circuit())
        assert len(f.clauses) == 4
        assert count_models(f) == 1

    def test_unconstrained_circuit_counts_input_extensions(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g", AND, ("x", "y"))])
        f, _ = tseitin(c)
        assert count_models(f) == 4  # each input valuation extends uniquely

    def test_empty_circuit(self):
        f, vm = tseitin(Circuit())
        assert not f.clauses and f.num_vars == 0

    def test_projection(self, rng):
        # every CNF model restricted to inputs satisfies the circuit, and the
        # circuit evaluation reproduces every gate variable
        from cnfkit.circuit import eval_circuit
        from cnfkit.oracle import all_models
        checked = 0
        for _ in range(40):
            c = normalize_circuit(random_circuit(rng, max_gates=5, max_inputs=4))
            if len(c.gates) > 14:
                continue
            f, vm = tseitin(c)
            for model in itertools.islice(all_models(f), 8):
                assign = {n: model[vm.var(n)] for n in c.inputs()}
                vals = eval_circuit(c, assign)
                ok = all(vals[n] == req for n, req in c.constraints)
                assert ok
                for name in c.gates:
                    assert vals[name] == model[vm.var(name)]
                checked += 1
        assert checked > 20


class TestPlaistedGreenbaum:
    def test_and_positive_side_only(self):
        f, vm = plaisted_greenbaum(and_circuit())
        g, x, y = vm.var("g"), vm.var("x"), vm.var("y")
        assert set(f.clauses.values()) == {
            tuple(sorted((-g, x), key=abs)),
            tuple(sorted((-g, y), key=abs)), (g,)}

    def test_xor_constrained_true_emits_positive_side(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g", XOR, ("x", "y"))],
                       ["g"])
        f, vm = plaisted_greenbaum(c)
        assert len(f.clauses) == 3  # two positive rows plus the unit

    def test_gate_outside_cone_is_silent(self):
        c = circuit_of([("x", INPUT), ("g", NOT, ("x",)),
                        ("h", NOT, ("x",))], ["g"])
        f, vm = plaisted_greenbaum(c)
        h = vm.var("h")
        assert all(h not in map(abs, clause) for clause in f.clauses.values())

    def test_subset_of_tseitin(self, rng):
        for _ in range(150):
            c = normalize_circuit(random_circuit(rng))
            vm = build_varmap(c)
            full, _ = tseitin(c, vm)
            pg, _ = plaisted_greenbaum(c, vm)
            assert set(pg.clauses.values()) <= set(full.clauses.values())

    def test_equisatisfiable_with_circuit(self, rng):
        for _ in range(60):
            c = normalize_circuit(random_circuit(rng, max_gates=6, max_inputs=4))
            if len(c.gates) > 16:
                continue
            expected = circuit_sat(c) is not None
            full, _ = tseitin(c)
            pg, _ = plaisted_greenbaum(c)
            assert (brute_force_sat(full) is not None) == expected
            assert (brute_force_sat(pg) is not None) == expected


class TestSimulationContainment:
    def test_and_collapse(self):
        c = and_circuit()
        n = normalize_circuit(c)
        vm = build_varmap(n)
        tst, _ = tseitin(n, vm)
        bce = eliminate_blocked(tst.copy(), ExtensionMode.NONE)
        simp, _ = simplify_fixpoint(n)
        pg, _ = plaisted_greenbaum(simp, vm)
        assert set(bce.clauses.values()) <= set(pg.clauses.values())

    def test_constant_gate_case(self):
        c = circuit_of([("x", INPUT), ("f", FALSE), ("g", AND, ("x", "f"))],
                       ["g"])
        n = normalize_circuit(c)
        vm = build_varmap(n)
        tst, _ = tseitin(n, vm)
        bce = eliminate_blocked(tst.copy(), ExtensionMode.NONE)
        simp, _ = simplify_fixpoint(n)
        pg, _ = plaisted_greenbaum(simp, vm)
        assert set(bce.clauses.values()) <= set(pg.clauses.values())
