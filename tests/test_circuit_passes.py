"""The circuit passes on one parent index against the rescans they replaced,
kept here as the references: ``validate`` with a sorted ready list, the
polarity rule written out twice, NSI rebuilding the parent index and
rescanning every gate after each rewrite, and MIR scanning every gate for
each folded constant with a recursive safety check."""

import itertools
import json
import random

import pytest

from cnfkit.circuit import (AND, BOTH, CARD, EQUIV, EVEN, FALSE, IMPLY, INPUT,
                            ITE, NEG, NOT, OR, POS, TRUE, XOR, CircuitError,
                            CycleError, Gate, _card_surjective, _flip,
                            coi_reduce, mir_reduce, nsi_reduce, polarity,
                            polarity_is_closed, simplify_fixpoint, validate)
from cnfkit.cli import main
from cnfkit.io import write_circuit
from conftest import or_chain, parity_circuit, random_circuit


# --- references ---------------------------------------------------------------

def reference_validate(circuit):
    pending = {n: len(set(g.children)) for n, g in circuit.gates.items()}
    parents = circuit.parent_index()
    ready = sorted(n for n, k in pending.items() if k == 0)
    order = []
    seen_child = {n: set() for n in circuit.gates}
    while ready:
        name = ready.pop(0)
        order.append(name)
        for parent, _ in parents.get(name, ()):
            if name in seen_child[parent]:
                continue
            seen_child[parent].add(name)
            pending[parent] -= 1
            if pending[parent] == 0:
                lo, hi = 0, len(ready)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if ready[mid] < parent:
                        lo = mid + 1
                    else:
                        hi = mid
                ready.insert(lo, parent)
    if len(order) != len(circuit.gates):
        stuck = min(n for n in circuit.gates if pending[n] > 0)
        seen = []
        node = stuck
        while node not in seen:
            seen.append(node)
            node = next(ch for ch in circuit.gates[node].children
                        if pending.get(ch, 0) > 0)
        raise CycleError(f"gate {node!r} lies on a cycle")
    return order


def reference_polarity(circuit):
    order = reference_validate(circuit)
    pol = {name: 0 for name in circuit.gates}
    for name, req in circuit.constraints:
        pol[name] |= POS if req else NEG
    for name in reversed(order):
        p = pol[name]
        if not p:
            continue
        gate = circuit.gates[name]
        if gate.func == NOT:
            pol[gate.children[0]] |= _flip(p)
        elif gate.func in (AND, OR):
            for child in gate.children:
                pol[child] |= p
        elif gate.func == IMPLY:
            pol[gate.children[0]] |= _flip(p)
            pol[gate.children[1]] |= p
        elif gate.func in (XOR, EVEN, EQUIV, CARD):
            for child in gate.children:
                pol[child] |= BOTH
        elif gate.func == ITE:
            pol[gate.children[0]] |= BOTH
            pol[gate.children[1]] |= p
            pol[gate.children[2]] |= p
    return pol


def reference_polarity_is_closed(circuit, pol):
    for name, req in circuit.constraints:
        if not pol.get(name, 0) & (POS if req else NEG):
            return False
    for name, gate in circuit.gates.items():
        p = pol.get(name, 0)
        if not p:
            continue
        need = {}
        if gate.func == NOT:
            need[gate.children[0]] = _flip(p)
        elif gate.func in (AND, OR):
            need = {c: p for c in gate.children}
        elif gate.func == IMPLY:
            need[gate.children[0]] = _flip(p)
            need[gate.children[1]] = need.get(gate.children[1], 0) | p
        elif gate.func in (XOR, EVEN, EQUIV, CARD):
            need = {c: BOTH for c in gate.children}
        elif gate.func == ITE:
            need[gate.children[0]] = BOTH
            for c in gate.children[1:]:
                need[c] = need.get(c, 0) | p
        for child, marks in need.items():
            if pol.get(child, 0) & marks != marks:
                return False
    return True


def reference_nsi_reduce(circuit):
    out = circuit.copy()
    while True:
        parents = out.parent_index()
        constrained = {name for name, _ in out.constraints}
        target = None
        for name in sorted(out.gates):
            gate = out.gates[name]
            if gate.func in (INPUT, TRUE, FALSE):
                continue
            kids = gate.children
            if len(set(kids)) != len(kids):
                continue
            if not all(out.gates[c].func == INPUT
                       and len(parents[c]) == 1
                       and c not in constrained
                       for c in kids):
                continue
            if gate.func == CARD and not _card_surjective(gate):
                continue
            target = name
            break
        if target is None:
            return out
        for child in out.gates[target].children:
            del out.gates[child]
        out.gates[target] = Gate(INPUT)


def reference_safe_const(circuit, parents, constrained, name, value, memo):
    key = (name, value)
    if key in memo:
        return memo[key]
    memo[key] = True
    ok = all(req == value for req in constrained.get(name, ()))
    if ok:
        for parent, pos in parents.get(name, ()):
            gate = circuit.gates[parent]
            if gate.func in (AND, OR):
                ok = reference_safe_const(circuit, parents, constrained,
                                          parent, value, memo)
            elif gate.func == NOT:
                ok = reference_safe_const(circuit, parents, constrained,
                                          parent, not value, memo)
            elif gate.func == IMPLY:
                if (pos == 0 and value is False) or (pos == 1 and value is True):
                    ok = reference_safe_const(circuit, parents, constrained,
                                              parent, True, memo)
                else:
                    ok = False
            else:
                ok = False
            if not ok:
                break
    memo[key] = ok
    return ok


def reference_mir_reduce(circuit):
    out = circuit.copy()
    fixed = {}
    while True:
        pol = reference_polarity(out)
        parents = out.parent_index()
        constrained = {}
        for name, req in out.constraints:
            constrained.setdefault(name, []).append(req)
        memo = {}
        batch = []
        for name in sorted(out.inputs()):
            if pol[name] == POS and reference_safe_const(
                    out, parents, constrained, name, True, memo):
                batch.append((name, True))
            elif pol[name] == NEG and reference_safe_const(
                    out, parents, constrained, name, False, memo):
                batch.append((name, False))
        if not batch:
            return out, fixed

        queue = list(batch)
        for name, value in batch:
            fixed[name] = value
            del out.gates[name]
        while queue:
            name, value = queue.pop(0)
            out.constraints = [(n, r) for n, r in out.constraints
                               if not (n == name and r == value)]
            holders = [(p, g) for p, g in out.gates.items() if name in g.children]
            for pname, gate in holders:
                if gate.func in (AND, OR):
                    absorbing = (gate.func == AND and not value) or \
                                (gate.func == OR and value)
                    if absorbing:
                        out.gates[pname] = Gate(TRUE if value else FALSE)
                        queue.append((pname, value))
                        continue
                    remaining = tuple(c for c in gate.children if c != name)
                    if remaining:
                        out.gates[pname] = Gate(gate.func, remaining)
                    else:
                        const = gate.func == AND
                        out.gates[pname] = Gate(TRUE if const else FALSE)
                        queue.append((pname, const))
                elif gate.func == NOT:
                    out.gates[pname] = Gate(TRUE if not value else FALSE)
                    queue.append((pname, not value))
                elif gate.func == IMPLY:
                    assert (gate.children[0] == name and value is False) or \
                           (gate.children[1] == name and value is True)
                    out.gates[pname] = Gate(TRUE)
                    queue.append((pname, True))
                else:
                    raise CircuitError(
                        f"constant folded into unfoldable gate {pname!r}")


def reference_simplify_fixpoint(circuit, passes):
    current = circuit.copy()
    fixed = {}
    while True:
        before_gates = dict(current.gates)
        before_constraints = list(current.constraints)
        if "coi" in passes:
            current = coi_reduce(current)
        if "nsi" in passes:
            current = reference_nsi_reduce(current)
        if "mir" in passes:
            current, newly = reference_mir_reduce(current)
            fixed.update(newly)
        if current.gates == before_gates and \
                current.constraints == before_constraints:
            return current, fixed


# --- corpus -------------------------------------------------------------------

def circuit_corpus():
    rng = random.Random(4025)
    corpus = [random_circuit(rng, max_gates=10, max_inputs=6)
              for _ in range(2500)]
    corpus += [random_circuit(rng, max_gates=40, max_inputs=24)
               for _ in range(2500)]
    corpus += [parity_circuit(rng, gates) for gates in (30, 60, 120, 200, 300)]
    corpus += [or_chain(length, value) for length in (1, 2, 5, 40, 300, 600)
               for value in (True, False)]
    return corpus


CORPUS = circuit_corpus()
SLICES = 10


def pinned(circuit, fixed=None):
    """Everything a pass returns, insertion order included."""
    return (list(circuit.gates.items()), list(circuit.constraints),
            None if fixed is None else list(fixed.items()))


def weakened(pol):
    """Each map with one mark removed."""
    for name, marks in pol.items():
        for bit in (POS, NEG):
            if marks & bit:
                yield {**pol, name: marks & ~bit}


# --- comparisons --------------------------------------------------------------

@pytest.mark.parametrize("part", range(SLICES))
def test_validate_and_polarity_match_reference(part):
    for circuit in CORPUS[part::SLICES]:
        assert validate(circuit) == reference_validate(circuit)
        pol = polarity(circuit)
        assert pol == reference_polarity(circuit)
        assert polarity_is_closed(circuit, pol) is True
        assert reference_polarity_is_closed(circuit, pol) is True
        for candidate in weakened(pol):
            assert polarity_is_closed(circuit, candidate) == \
                reference_polarity_is_closed(circuit, candidate)


# every nonempty subset of the passes, each in simplify_fixpoint's order
PASS_SETS = [passes for k in (1, 2, 3)
             for passes in itertools.combinations(("coi", "nsi", "mir"), k)]


@pytest.mark.parametrize("part", range(SLICES))
def test_passes_match_reference(part):
    for circuit in CORPUS[part::SLICES]:
        assert pinned(nsi_reduce(circuit)) == \
            pinned(reference_nsi_reduce(circuit))
        assert pinned(*mir_reduce(circuit)) == \
            pinned(*reference_mir_reduce(circuit))
        for passes in PASS_SETS:
            assert pinned(*simplify_fixpoint(circuit, passes)) == \
                pinned(*reference_simplify_fixpoint(circuit, passes))


@pytest.mark.parametrize("part", range(SLICES))
def test_coi_then_nsi_leaves_both_nothing(part):
    """One COI and one NSI are a fixpoint of both passes, which is why
    simplify_fixpoint stops once MIR fixes no input."""
    for circuit in CORPUS[part::SLICES]:
        reduced = nsi_reduce(coi_reduce(circuit))
        assert pinned(coi_reduce(reduced)) == pinned(reduced)
        assert pinned(nsi_reduce(reduced)) == pinned(reduced)


def test_cycle_report_matches_reference():
    for names in (("a",), ("a", "b"), ("b", "a", "c")):
        circuit = or_chain(3)
        for name, child in zip(names, names[1:] + names[:1]):
            circuit.gates[name] = Gate(AND, ("g3", child))
        with pytest.raises(CycleError) as got:
            validate(circuit)
        with pytest.raises(CycleError) as want:
            reference_validate(circuit)
        assert str(got.value) == str(want.value)


# --- deep circuits ------------------------------------------------------------

@pytest.mark.parametrize("passes", ["mir", "coi,nsi,mir"])
def test_deep_or_chain_encodes(tmp_path, passes):
    source, target = tmp_path / "chain.bc", tmp_path / "chain.cnf"
    source.write_text(write_circuit(or_chain(3000)))
    assert main(["encode", str(source), str(target), "--encoding", "pg",
                 "--simplify", passes]) == 0
    fixed = json.loads((tmp_path / "chain.cnf.map").read_text())["fixed_inputs"]
    assert all(fixed.values()) and fixed
