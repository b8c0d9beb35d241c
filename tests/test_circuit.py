import gc
import itertools
import weakref

import pytest

from cnfkit.circuit import (AND, BOTH, CARD, EQUIV, EVEN, FALSE, IMPLY, INPUT,
                            ITE, NEG, NOT, OR, POS, TRUE, XOR, ArityError,
                            Circuit, CircuitError, CycleError, Gate,
                            circuit_sat, coi_reduce, eval_circuit, mir_reduce,
                            normalize_circuit, nsi_reduce, polarity,
                            polarity_is_closed, simplify_fixpoint, validate)
from cnfkit.oracle import BoundExceeded
from conftest import random_circuit


def circuit_of(gates, constraints=()):
    c = Circuit()
    for name, func, *rest in gates:
        children = rest[0] if rest else ()
        lo, hi = (rest[1], rest[2]) if len(rest) > 1 else (None, None)
        c.add_gate(name, func, children, lo, hi)
    for item in constraints:
        name, req = item if isinstance(item, tuple) else (item, True)
        c.add_constraint(name, req)
    return c


def and_or_cycle():
    """a := AND(b, x), b := OR(a, y), a constrained true: not a circuit,
    since a and b read each other."""
    return circuit_of([("x", INPUT), ("y", INPUT), ("a", AND, ("b", "x")),
                       ("b", OR, ("a", "y"))], ["a"])


def sat_status(circuit):
    return circuit_sat(circuit) is not None


class TestValidate:
    def test_topological_order(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g1", AND, ("x", "y"))],
                       ["g1"])
        order = validate(c)
        assert order.index("x") < order.index("g1")
        assert order.index("y") < order.index("g1")

    def test_cycle(self):
        c = Circuit()
        c.gates["g1"] = c.gates.get("g1")  # placeholder replaced next line
        from cnfkit.circuit import Gate
        c.gates["g1"] = Gate(NOT, ("g1",))
        with pytest.raises(CycleError):
            validate(c)

    def test_arity(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g1", ITE, ("x", "y"))])
        with pytest.raises(ArityError):
            validate(c)

    def test_card_bounds(self):
        c = Circuit()
        c.add_input("x")
        c.add_gate("g", CARD, ("x",), 2, 1)
        with pytest.raises(ArityError):
            validate(c)

    def test_unknown_function(self):
        c = Circuit()
        c.add_input("x")
        c.gates["g"] = Gate("FOO", ("x",))
        with pytest.raises(CircuitError,
                           match="^unknown gate function 'FOO'$"):
            validate(c)


class TestEval:
    def test_and(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g", AND, ("x", "y"))])
        assert eval_circuit(c, {"x": True, "y": False})["g"] is False

    def test_card(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("z", INPUT),
                        ("g", CARD, ("x", "y", "z"), 1, 2)])
        vals = eval_circuit(c, {"x": True, "y": True, "z": False})
        assert vals["g"] is True

    def test_xor_odd_parity(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("z", INPUT),
                        ("g", XOR, ("x", "y", "z"))])
        assert eval_circuit(c, {"x": True, "y": True, "z": True})["g"] is True

    def test_all_funcs(self):
        c = circuit_of([
            ("a", INPUT), ("b", INPUT),
            ("t", TRUE), ("f", FALSE),
            ("n", NOT, ("a",)), ("e", EVEN, ("a", "b")),
            ("q", EQUIV, ("a", "b")), ("i", IMPLY, ("a", "b")),
            ("m", ITE, ("a", "b", "t")), ("o", OR, ("a", "f")),
        ])
        vals = eval_circuit(c, {"a": True, "b": False})
        assert vals == {"a": True, "b": False, "t": True, "f": False,
                        "n": False, "e": False, "q": False, "i": False,
                        "m": False, "o": True}


class TestCircuitSat:
    def test_and_constrained(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g", AND, ("x", "y"))],
                       ["g"])
        assert circuit_sat(c) == {"x": True, "y": True}

    def test_contradiction(self):
        c = circuit_of([("x", INPUT), ("n", NOT, ("x",)),
                        ("g", AND, ("x", "n"))], ["g"])
        assert circuit_sat(c) is None

    def test_no_constraints(self):
        c = circuit_of([("x", INPUT)])
        assert circuit_sat(c) == {"x": False}

    def test_bound(self):
        c = Circuit()
        for i in range(25):
            c.add_input(f"x{i}")
        with pytest.raises(BoundExceeded):
            circuit_sat(c, bound=20)


class TestPolarity:
    def test_or_and_all_positive(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("z", INPUT),
                        ("a", AND, ("y", "z")), ("o", OR, ("x", "a"))], ["o"])
        pol = polarity(c)
        assert all(pol[n] == POS for n in ("x", "y", "z", "a", "o"))

    def test_not_flips(self):
        c = circuit_of([("x", INPUT), ("o", NOT, ("x",))], ["o"])
        assert polarity(c)["x"] == NEG

    def test_xor_forces_both(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("o", XOR, ("x", "y"))],
                       ["o"])
        pol = polarity(c)
        assert pol["x"] == BOTH and pol["y"] == BOTH and pol["o"] == POS

    def test_cycle_gets_the_least_map(self):
        # marks only grow, so the least map exists without an order
        assert polarity(and_or_cycle()) == dict.fromkeys("abxy", POS)

    def test_least_closure(self, rng):
        # removing any single mark must break closure
        checked = 0
        for _ in range(100):
            c = random_circuit(rng)
            pol = polarity(c)
            assert polarity_is_closed(c, pol)
            for name in sorted(pol):
                for bit in (POS, NEG):
                    if pol[name] & bit:
                        weaker = dict(pol)
                        weaker[name] = pol[name] & ~bit
                        assert not polarity_is_closed(c, weaker)
                        checked += 1
        assert checked > 50


class TestCoi:
    def test_unreachable_cone_removed(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g1", NOT, ("x",)),
                        ("g2", NOT, ("y",))], ["g1"])
        out = coi_reduce(c)
        assert set(out.gates) == {"x", "g1"}

    def test_all_reachable(self):
        c = circuit_of([("x", INPUT), ("g", NOT, ("x",))], ["g"])
        assert coi_reduce(c) == c

    def test_no_constraints_empties(self):
        c = circuit_of([("x", INPUT), ("g", NOT, ("x",))])
        out = coi_reduce(c)
        assert not out.gates
        assert sat_status(out) and sat_status(c)


class TestNsi:
    def test_applicable(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g", AND, ("x", "y"))],
                       ["g"])
        out = nsi_reduce(c)
        assert out.gates["g"].func == INPUT
        assert "x" not in out.gates and "y" not in out.gates
        assert sat_status(out) == sat_status(c)

    def test_shared_child_blocks(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g", AND, ("x", "y")),
                        ("h", NOT, ("x",))], ["g", "h"])
        assert nsi_reduce(c) == c

    def test_constant_card_blocks(self):
        c = circuit_of([("x", INPUT), ("y", INPUT),
                        ("g", CARD, ("x", "y"), 0, 2)], ["g"])
        assert nsi_reduce(c) == c

    def test_constrained_child_blocks(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("g", AND, ("x", "y"))],
                       ["g", ("x", False)])
        assert nsi_reduce(c) == c


class TestMir:
    def test_or_collapses(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("o", OR, ("x", "y"))],
                       ["o"])
        out, fixed = mir_reduce(c)
        assert fixed == {"x": True, "y": True}
        assert not out.constraints

    def test_xor_fixes_nothing(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("o", XOR, ("x", "y"))],
                       ["o"])
        out, fixed = mir_reduce(c)
        assert fixed == {} and out == c

    def test_not_fixes_false(self):
        c = circuit_of([("x", INPUT), ("o", NOT, ("x",))], ["o"])
        out, fixed = mir_reduce(c)
        assert fixed == {"x": False}
        assert not out.constraints

    def test_ite_branch_left_alone(self):
        # x sits in an if-then-else branch: constant cannot be folded there
        c = circuit_of([("c", INPUT), ("x", INPUT), ("y", INPUT),
                        ("o", ITE, ("c", "x", "y"))], ["o"])
        out, fixed = mir_reduce(c)
        assert fixed == {} and out == c

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            mir_reduce(and_or_cycle())


class TestSimplifyFixpoint:
    def test_multi_round_collapse(self):
        # the constrained child blocks NSI, so MIR does the work and the
        # follow-up COI pass sweeps the dead constant gates
        c = circuit_of([("x", INPUT), ("y", INPUT), ("d", NOT, ("y",)),
                        ("o", OR, ("x", "d"))], ["o", ("y", False)])
        out, fixed = simplify_fixpoint(c)
        assert not out.gates
        assert fixed == {"x": True, "y": False}

    def test_already_reduced(self):
        c = circuit_of([("x", INPUT), ("y", INPUT), ("o", XOR, ("x", "y"))],
                       ["o"])
        out, fixed = simplify_fixpoint(c)
        # NSI turns the xor over private inputs into a free input, then MIR
        # fixes it; the constraint disappears
        assert fixed == {"o": True}
        assert not out.constraints

    def test_empty(self):
        out, fixed = simplify_fixpoint(Circuit())
        assert not out.gates and not fixed

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            simplify_fixpoint(and_or_cycle())

    def test_unknown_pass_rejected(self):
        c = circuit_of([("x", INPUT), ("o", NOT, ("x",))], ["o"])
        with pytest.raises(ValueError, match="'foo'"):
            simplify_fixpoint(c, ("coi", "foo"))

    def test_preserves_satisfiability(self, rng):
        for _ in range(300):
            c = random_circuit(rng, max_gates=8, max_inputs=5)
            out, _ = simplify_fixpoint(c)
            assert sat_status(out) == sat_status(c)
            for single in (coi_reduce(c), nsi_reduce(c), mir_reduce(c)[0]):
                assert sat_status(single) == sat_status(c)


class TestNormalize:
    def test_ternary_xor_chains(self):
        c = circuit_of([("a", INPUT), ("b", INPUT), ("c", INPUT),
                        ("g", XOR, ("a", "b", "c"))], ["g"])
        out = normalize_circuit(c)
        top = out.gates["g"]
        assert top.func == XOR and len(top.children) == 2
        left = out.gates[top.children[0]]
        assert left.func == XOR and left.children == ("a", "b")
        assert top.children[1] == "c"

    def test_card_1_1_folds_to_child(self):
        c = circuit_of([("a", INPUT), ("g", CARD, ("a",), 1, 1)], ["g"])
        out = normalize_circuit(c)
        assert out.constraints == [("a", True)]
        assert set(out.gates) == {"a"}

    def test_card_expansion_exhaustively(self):
        """Every CARD{lo,hi} over 1-6 inputs with 0 <= lo <= hi <= n + 2
        normalizes to a circuit whose constraint holds exactly when
        lo <= (number of true inputs) <= hi."""
        for n in range(1, 7):
            names = [f"x{i}" for i in range(n)]
            bounds = itertools.combinations_with_replacement(range(n + 3), 2)
            for lo, hi in bounds:
                c = circuit_of([(x, INPUT) for x in names]
                               + [("k", CARD, names, lo, hi)], ["k"])
                out = normalize_circuit(c)
                for bits in itertools.product((False, True), repeat=n):
                    vals = eval_circuit(out, dict(zip(names, bits)))
                    holds = all(vals[g] == req for g, req in out.constraints)
                    assert holds == (lo <= sum(bits) <= hi), (n, lo, hi, bits)

    def test_eval_preserved_exhaustively(self, rng):
        for _ in range(200):
            c = random_circuit(rng, max_gates=8, max_inputs=5)
            out = normalize_circuit(c)
            names = sorted(c.inputs())
            assert sorted(out.inputs()) == names
            for bits in itertools.product((False, True), repeat=len(names)):
                assign = dict(zip(names, bits))
                vals_in = eval_circuit(c, assign)
                vals_out = eval_circuit(out, assign)
                for name in vals_in:
                    if name in vals_out:
                        assert vals_in[name] == vals_out[name]
                ok_in = all(vals_in[n] == r for n, r in c.constraints)
                ok_out = all(vals_out[n] == r for n, r in out.constraints)
                assert ok_in == ok_out

    def test_no_card_or_wide_parity_left(self, rng):
        for _ in range(100):
            out = normalize_circuit(random_circuit(rng))
            for gate in out.gates.values():
                assert gate.func not in (CARD, EVEN)
                if gate.func in (XOR, EQUIV):
                    assert len(gate.children) == 2

    def test_result_is_freed_without_the_cyclic_collector(self):
        """No closure of the rewrite keeps the normalized circuit in a
        reference cycle: with the collector off, it dies with its last
        reference."""
        c = circuit_of([("a", INPUT), ("b", INPUT), ("c", INPUT),
                        ("x", XOR, ("a", "b", "c")),
                        ("e", EVEN, ("a", "b", "c", "x")),
                        ("k", CARD, ("a", "b", "c", "e"), 1, 2)], ["k"])
        gc.collect()
        gc.disable()
        try:
            out = normalize_circuit(c)
            assert {g.func for g in out.gates.values()} >= {XOR, NOT, ITE}
            ref = weakref.ref(out)
            del out
            assert ref() is None
        finally:
            gc.enable()

    def test_recursion_error_leaves_no_circuit_behind(self):
        """A CARD too wide for the recursive expansion fails with
        RecursionError, and the half-built circuit is freed at once."""
        c = Circuit()
        c.add_gate("k", CARD, [c.add_input(f"w{i}") for i in range(1100)], 1, 2)
        c.add_constraint("k")

        def live_circuits():
            return sum(isinstance(o, Circuit) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_circuits()
            try:
                normalize_circuit(c)
            except RecursionError:
                pass
            else:
                pytest.fail("expected a RecursionError")
            assert live_circuits() == before
        finally:
            gc.enable()
