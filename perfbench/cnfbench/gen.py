"""Seeded input generators for the benchmark, standard library only.

Nothing here imports cnfkit: circuits are plain gate lists that this module
evaluates and writes itself (as a Tseitin DIMACS file or as BC1.1 text), so a
change to ``cnfkit.encode`` or ``cnfkit.io`` cannot change a workload's inputs.

Every circuit is satisfiable by construction.  One random input assignment is
evaluated, and each constrained gate is asserted to the value it takes under
that assignment, so the benchmark always knows one model.
"""

import random
from dataclasses import dataclass, field

AND, OR, XOR, NOT, ITE = "AND", "OR", "XOR", "NOT", "ITE"
EVEN, EQUIV, IMPLY, CARD, TRUE, FALSE = "EVEN", "EQUIV", "IMPLY", "CARD", "T", "F"

PREP_FUNCS = (AND, OR, XOR, NOT, ITE)
ALL_FUNCS = (AND, OR, XOR, NOT, ITE, EVEN, EQUIV, IMPLY, CARD)


@dataclass
class Circuit:
    """Gates in creation (topological) order as (name, func, kids, lo, hi);
    ``values`` holds every gate's value under the known input assignment."""
    inputs: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def add_input(self, name, value):
        self.inputs.append(name)
        self.values[name] = value
        return name

    def add_gate(self, name, func, kids=(), lo=None, hi=None):
        vals = [self.values[k] for k in kids]
        self.gates.append((name, func, tuple(kids), lo, hi))
        self.values[name] = gate_value(func, vals, lo, hi)
        return name


def gate_value(func, vals, lo=None, hi=None):
    if func == TRUE:
        return True
    if func == FALSE:
        return False
    if func == NOT:
        return not vals[0]
    if func == AND:
        return all(vals)
    if func == OR:
        return any(vals)
    if func == XOR:
        return sum(vals) % 2 == 1
    if func == EVEN:
        return sum(vals) % 2 == 0
    if func == EQUIV:
        return all(v == vals[0] for v in vals)
    if func == IMPLY:
        return (not vals[0]) or vals[1]
    if func == ITE:
        return vals[1] if vals[0] else vals[2]
    if func == CARD:
        return lo <= sum(vals) <= hi
    raise ValueError(f"unknown gate function {func}")


def _pick_children(rng, pool, k):
    """k distinct children, most drawn close to the newest gates so that
    depth keeps growing; the rest uniformly for long-range sharing."""
    kids = []
    while len(kids) < k:
        if rng.random() < 0.7:
            back = int(rng.expovariate(1 / 6))
            child = pool[max(0, len(pool) - 1 - back)]
        else:
            child = rng.choice(pool)
        if child not in kids:
            kids.append(child)
    return kids


def _random_gate(rng, circuit, pool, name, funcs):
    func = rng.choice(funcs)
    if func == NOT:
        circuit.add_gate(name, NOT, _pick_children(rng, pool, 1))
    elif func == IMPLY:
        circuit.add_gate(name, IMPLY, _pick_children(rng, pool, 2))
    elif func == ITE:
        circuit.add_gate(name, ITE, _pick_children(rng, pool, 3))
    elif func == CARD:
        width = rng.randint(2, 6)
        lo = rng.randint(0, 2)
        hi = rng.randint(lo, lo + 2)
        circuit.add_gate(name, CARD, _pick_children(rng, pool, width), lo, hi)
    elif func == XOR and EVEN not in funcs:
        # binary only: the Tseitin table of an n-ary parity is exponential
        circuit.add_gate(name, XOR, _pick_children(rng, pool, 2))
    elif func in (XOR, EVEN, EQUIV):
        circuit.add_gate(name, func, _pick_children(rng, pool, rng.randint(2, 3)))
    else:
        circuit.add_gate(name, func, _pick_children(rng, pool, rng.randint(2, 4)))


def _parity_top(circuit):
    """Join the newest half of the sinks (at least two) by a chain of binary
    XOR gates and return the top with its known value.  A parity constraint
    forces nothing by propagation alone, so no instance collapses to a
    trivial formula; the other sinks stay free, so their cones are blocked
    and removable.  With a quarter of the sinks, what preprocessing leaves
    of a circuit varied so much that the total over a workload's circuits
    spread by about 0.2 (quartile distance over median) from seed to seed;
    with half, by about 0.1."""
    names = [g[0] for g in circuit.gates]
    used = {k for _, _, kids, _, _ in circuit.gates for k in kids}
    sinks = [n for n in names if n not in used]
    chosen = sinks[-max(2, len(sinks) // 2):]
    if len(chosen) < 2:
        chosen = names[-2:]
    top = chosen[0]
    for k, other in enumerate(chosen[1:]):
        top = circuit.add_gate(f"p{k}", XOR, (top, other))
    return top, circuit.values[top]


def random_circuit(rng, num_gates, funcs):
    circuit = Circuit()
    pool = [circuit.add_input(f"x{i}", rng.random() < 0.5)
            for i in range(max(8, num_gates // 4))]
    for i in range(num_gates):
        name = f"g{i}"
        if CARD in funcs and rng.random() < 0.01:
            circuit.add_gate(name, rng.choice((TRUE, FALSE)))
        else:
            _random_gate(rng, circuit, pool, name, funcs)
        pool.append(name)
    circuit.constraints.append(_parity_top(circuit))
    return circuit


def or_chain(rng, length):
    """g_i = OR(g_{i-1}, x_i): one gate deep per input."""
    circuit = Circuit()
    circuit.add_input("x0", rng.random() < 0.5)
    prev = "x0"
    for i in range(1, length + 1):
        circuit.add_input(f"x{i}", rng.random() < 0.5)
        prev = circuit.add_gate(f"g{i}", OR, (prev, f"x{i}"))
    circuit.constraints = [(prev, circuit.values[prev])]
    return circuit


def wide_card(rng, width, base_gates=120):
    """A random circuit plus one CARD gate over ``width`` fresh inputs, few of
    them true so that either value of the gate can occur."""
    circuit = random_circuit(rng, base_gates, ALL_FUNCS)
    ones = set(rng.sample(range(width), rng.randint(0, 3)))
    kids = []
    for i in range(width):
        circuit.add_input(f"w{i}", i in ones)
        kids.append(f"w{i}")
    lo = rng.randint(0, 2)
    circuit.add_gate("card", CARD, kids, lo, lo + rng.randint(0, 1))
    circuit.constraints.append(("card", circuit.values["card"]))
    return circuit


def tseitin_clauses(circuit):
    """Full two-sided encoding of a circuit over AND/OR/XOR/NOT/ITE, one
    variable per input and gate, plus one unit per constraint.  Returns
    (num_vars, clauses, var_of)."""
    var_of = {name: i for i, name in enumerate(circuit.inputs, start=1)}
    for name, *_ in circuit.gates:
        var_of[name] = len(var_of) + 1
    clauses = []
    for name, func, kids, _, _ in circuit.gates:
        g = var_of[name]
        a = [var_of[k] for k in kids]
        if func == NOT:
            clauses += [[-g, -a[0]], [g, a[0]]]
        elif func == AND:
            clauses += [[-g, x] for x in a] + [[g] + [-x for x in a]]
        elif func == OR:
            clauses += [[g, -x] for x in a] + [[-g] + a]
        elif func == XOR:
            x, y = a
            clauses += [[-g, x, y], [-g, -x, -y], [g, -x, y], [g, x, -y]]
        elif func == ITE:
            c, t, e = a
            clauses += [[-g, -c, t], [-g, c, e], [g, -c, -t], [g, c, -e]]
        else:
            raise ValueError(f"no Tseitin table for {func}")
    for name, value in circuit.constraints:
        clauses.append([var_of[name] if value else -var_of[name]])
    return len(var_of), clauses, var_of


def dimacs_text(num_vars, clauses):
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def bc_text(circuit):
    lines = ["BC1.1"]
    for name, func, kids, lo, hi in circuit.gates:
        head = f"CARD{{{lo},{hi}}}" if func == CARD else func
        lines.append(f"{name} := {head}({', '.join(kids)});")
    for name, value in circuit.constraints:
        lines.append(f"ASSIGN {'' if value else '~'}{name};")
    return "\n".join(lines) + "\n"


def random_cnf(rng, num_vars, num_clauses):
    """Clauses of 1 to 4 distinct variables (never more than num_vars)."""
    clauses = []
    for _ in range(num_clauses):
        width = min(num_vars, rng.choice((1, 2, 2, 3, 3, 3, 4, 4)))
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def rng_for(seed, workload, index):
    """Independent stream per instance, so instance i does not depend on
    how many random draws instance i-1 made."""
    return random.Random(f"{seed}/{workload}/{index}")
