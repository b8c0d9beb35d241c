"""CNF encodings of circuits: the full two-sided translation and the
polarity-restricted one.

Both encodings introduce one CNF variable per gate.  The positive side of a
gate's clause table enforces "gate true implies its definition holds", the
negative side the converse.  The full translation emits both sides for every
gate; the polarity-restricted translation emits each side only where the
gate's polarity requires it, which always yields a subset of the full clause
set under the same variable map.
"""

from dataclasses import dataclass, field

from .circuit import (AND, CARD, EQUIV, EVEN, FALSE, IMPLY, INPUT, ITE, NEG,
                      NOT, OR, POS, TRUE, XOR, Circuit, polarity, validate)
from .formula import CnfFormula, normalize_clause

__all__ = ["VarMap", "UnnormalizedGate", "build_varmap", "gate_clauses",
           "tseitin", "plaisted_greenbaum"]


class UnnormalizedGate(Exception):
    """Raised for gates outside the encodable subset (CARD, EVEN, or
    non-binary parity/equivalence)."""


@dataclass
class VarMap:
    gate_to_var: dict[str, int]
    fixed_inputs: dict[str, bool] = field(default_factory=dict)

    def var(self, name: str) -> int:
        return self.gate_to_var[name]

    @property
    def num_vars(self) -> int:
        return len(self.gate_to_var)


def build_varmap(circuit: Circuit) -> VarMap:
    """Deterministic numbering: inputs first in id order, then the remaining
    gates in topological order."""
    order = validate(circuit)
    names = sorted(circuit.inputs())
    names += [n for n in order if circuit.gates[n].func != INPUT]
    return VarMap({name: i for i, name in enumerate(names, start=1)})


def gate_clauses(circuit: Circuit, name: str, vm: VarMap, side: str):
    """Clause table for one gate; ``side`` is "pos" or "neg".  Tautological
    rows (possible with repeated children) are dropped."""
    gate = circuit.gates[name]
    func = gate.func
    if func in (CARD, EVEN) or (func in (XOR, EQUIV) and len(gate.children) != 2):
        raise UnnormalizedGate(f"gate {name!r} ({func}/{len(gate.children)}) "
                               "requires normalize_circuit first")
    g = vm.var(name)
    kids = [vm.var(c) for c in gate.children]
    pos = side == "pos"

    rows: list[list[int]] = []
    if func == INPUT:
        pass
    elif func == TRUE:
        if not pos:
            rows.append([g])
    elif func == FALSE:
        if pos:
            rows.append([-g])
    elif func == AND:
        if pos:
            rows.extend([-g, c] for c in kids)
        else:
            rows.append([g] + [-c for c in kids])
    elif func == OR:
        if pos:
            rows.append([-g] + kids)
        else:
            rows.extend([g, -c] for c in kids)
    elif func == NOT:
        rows.append([-g, -kids[0]] if pos else [g, kids[0]])
    elif func == IMPLY:
        a, b = kids
        if pos:
            rows.append([-g, -a, b])
        else:
            rows.extend(([g, a], [g, -b]))
    elif func == XOR:
        a, b = kids
        if pos:
            rows.extend(([-g, a, b], [-g, -a, -b]))
        else:
            rows.extend(([g, -a, b], [g, a, -b]))
    elif func == EQUIV:
        a, b = kids
        if pos:
            rows.extend(([-g, -a, b], [-g, a, -b]))
        else:
            rows.extend(([g, a, b], [g, -a, -b]))
    elif func == ITE:
        c, t, e = kids
        if pos:
            rows.extend(([-g, -c, t], [-g, c, e]))
        else:
            rows.extend(([g, -c, -t], [g, c, -e]))
    else:
        raise UnnormalizedGate(f"gate {name!r} has unencodable function {func}")

    clauses = []
    for row in rows:
        clause, taut = normalize_clause(row)
        if not taut:
            clauses.append(clause)
    return clauses


def _encode(circuit, vm, sides_of):
    formula = CnfFormula(num_vars=vm.num_vars)
    order = sorted(circuit.gates, key=vm.var)
    for name in order:
        for side in sides_of(name):
            for clause in gate_clauses(circuit, name, vm, side):
                formula.add_clause(clause)
    for name, req in circuit.constraints:
        formula.add_clause([vm.var(name) if req else -vm.var(name)])
    return formula


def tseitin(circuit: Circuit, vm: VarMap | None = None):
    """Full encoding: both sides of every gate plus one unit per constraint.
    Models restricted to input variables are exactly the circuit's satisfying
    input assignments."""
    vm = vm or build_varmap(circuit)
    return _encode(circuit, vm, lambda name: ("pos", "neg")), vm


def plaisted_greenbaum(circuit: Circuit, vm: VarMap | None = None):
    """Polarity-restricted encoding: a gate's positive side is emitted only
    when the gate can matter positively, the negative side only negatively.
    Constraint units are always emitted."""
    vm = vm or build_varmap(circuit)
    pol = polarity(circuit)

    def sides_of(name):
        sides = []
        if pol[name] & POS:
            sides.append("pos")
        if pol[name] & NEG:
            sides.append("neg")
        return sides

    return _encode(circuit, vm, sides_of), vm
