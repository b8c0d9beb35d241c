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

from .circuit import (AND, BOTH, CARD, EQUIV, EVEN, FALSE, IMPLY, INPUT, ITE,
                      NEG, NOT, OR, POS, TRUE, XOR, Circuit, _polarity,
                      validate)
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
    return _varmap(circuit, validate(circuit))


def _varmap(circuit, order):
    """``build_varmap`` along a topological order from ``validate``."""
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
    var = vm.gate_to_var
    g = var[name]
    kids = [var[c] for c in gate.children]
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


_SIDES = {0: (), POS: ("pos",), NEG: ("neg",), BOTH: ("pos", "neg")}


def _encode(circuit, vm, restricted):
    """The one clause producer behind both encodings and `cnfkit encode`.

    Returns ``(clauses, vm)``: the canonical clauses in output order (gates
    by variable, each gate's positive side before its negative one, then one
    unit per constraint) and the variable map, built here when ``vm`` is
    None.  Duplicates stay, as in the clause multiset.  ``restricted`` emits
    only the sides the gate's polarity requires.  The circuit is validated
    at most once: numbering and polarity share the order."""
    order = None
    if vm is None:
        order = validate(circuit)
        vm = _varmap(circuit, order)
    if not restricted:
        pol = dict.fromkeys(circuit.gates, BOTH)
    else:
        pol = _polarity(circuit, validate(circuit) if order is None else order)
    var = vm.gate_to_var
    clauses = []
    for name in sorted(circuit.gates, key=var.__getitem__):
        for side in _SIDES[pol[name]]:
            clauses += gate_clauses(circuit, name, vm, side)
    for name, req in circuit.constraints:
        clauses.append((var[name],) if req else (-var[name],))
    return clauses, vm


def _formula(clauses, vm):
    formula = CnfFormula(num_vars=vm.num_vars)
    for clause in clauses:
        formula._append(clause)
    return formula, vm


def tseitin(circuit: Circuit, vm: VarMap | None = None):
    """Full encoding: both sides of every gate plus one unit per constraint.
    Models restricted to input variables are exactly the circuit's satisfying
    input assignments."""
    return _formula(*_encode(circuit, vm, restricted=False))


def plaisted_greenbaum(circuit: Circuit, vm: VarMap | None = None):
    """Polarity-restricted encoding: a gate's positive side is emitted only
    when the gate can matter positively, the negative side only negatively.
    Constraint units are always emitted."""
    return _formula(*_encode(circuit, vm, restricted=True))
