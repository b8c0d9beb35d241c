"""Shared corpus builders for the property and acceptance suites."""

import random

import pytest

from cnfkit.circuit import (AND, CARD, EQUIV, EVEN, FALSE, IMPLY, ITE, NOT,
                            OR, TRUE, XOR, Circuit, eval_circuit)
from cnfkit.formula import CnfFormula, normalize_clause


def random_formula(rng: random.Random, max_vars=8, max_clauses=20) -> CnfFormula:
    """Random CNF with clause widths 1-4; tautologies dropped as in parsing."""
    num_vars = rng.randint(1, max_vars)
    formula = CnfFormula(num_vars=num_vars)
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, 4)
        lits = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                for _ in range(width)]
        clause, taut = normalize_clause(lits)
        if not taut:
            formula.add_clause(clause)
    return formula


_NARY = (AND, OR, XOR, EVEN, EQUIV)


def random_circuit(rng: random.Random, max_gates=10, max_inputs=6) -> Circuit:
    """Random constrained circuit over every gate type, constants included.
    Children may repeat and gates may be left unconstrained or dead."""
    circuit = Circuit()
    pool = []
    for i in range(1, rng.randint(1, max_inputs) + 1):
        pool.append(circuit.add_input(f"x{i}"))
    for i in range(rng.randint(1, max_gates)):
        name = f"g{i}"
        roll = rng.random()
        if roll < 0.08:
            circuit.add_gate(name, rng.choice((TRUE, FALSE)))
        elif roll < 0.18:
            circuit.add_gate(name, NOT, (rng.choice(pool),))
        elif roll < 0.28:
            circuit.add_gate(name, IMPLY,
                             (rng.choice(pool), rng.choice(pool)))
        elif roll < 0.40:
            circuit.add_gate(name, ITE, tuple(rng.choice(pool)
                                              for _ in range(3)))
        elif roll < 0.52:
            width = rng.randint(1, 4)
            kids = tuple(rng.choice(pool) for _ in range(width))
            lo = rng.randint(0, width)
            hi = rng.randint(lo, width + 1)
            circuit.add_gate(name, CARD, kids, lo, hi)
        else:
            width = rng.randint(1, 4)
            circuit.add_gate(name, rng.choice(_NARY),
                             tuple(rng.choice(pool) for _ in range(width)))
        pool.append(name)
    for name in pool:
        if rng.random() < 0.22:
            circuit.add_constraint(name, rng.random() < 0.8)
    return circuit


def parity_circuit(rng: random.Random, num_gates: int) -> Circuit:
    """Satisfiable AND/OR/XOR/NOT/ITE circuit with one constraint: the parity
    of the newer half of its sinks takes its value under a random input
    assignment.  Children lean towards recent gates, so the circuit is deep,
    and the free sinks leave cones that clause elimination removes over
    several rounds."""
    circuit = Circuit()
    pool = [circuit.add_input(f"x{i}") for i in range(max(4, num_gates // 4))]
    arity = {NOT: (1, 1), ITE: (3, 3), XOR: (2, 2), AND: (2, 4), OR: (2, 4)}
    for i in range(num_gates):
        func = rng.choice(sorted(arity))
        kids = []
        while len(kids) < rng.randint(*arity[func]):
            back = min(len(pool) - 1, int(rng.expovariate(1 / 6)))
            child = pool[-1 - back] if rng.random() < 0.7 else rng.choice(pool)
            if child not in kids:
                kids.append(child)
        pool.append(circuit.add_gate(f"g{i}", func, kids))
    used = {k for gate in circuit.gates.values() for k in gate.children}
    sinks = [name for name in pool if name not in used]
    top = sinks[-1]
    for k, other in enumerate(sinks[-max(2, len(sinks) // 2):-1]):
        top = circuit.add_gate(f"p{k}", XOR, (top, other))
    values = eval_circuit(circuit, {x: rng.random() < 0.5
                                    for x in circuit.inputs()})
    circuit.add_constraint(top, values[top])
    return circuit


def or_chain(length: int, value: bool = True) -> Circuit:
    """g_i = OR(g_{i-1}, x_i) over fresh inputs, the last gate constrained to
    ``value``: one gate deeper per input."""
    circuit = Circuit()
    prev = circuit.add_input("x0")
    for i in range(1, length + 1):
        circuit.add_input(f"x{i}")
        prev = circuit.add_gate(f"g{i}", OR, (prev, f"x{i}"))
    circuit.add_constraint(prev, value)
    return circuit


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
