"""CNF encodings of circuits: the full two-sided translation and the
polarity-restricted one.

Both encodings introduce one CNF variable per gate.  The positive side of a
gate's clause table enforces "gate true implies its definition holds", the
negative side the converse.  The full translation emits both sides for every
gate; the polarity-restricted translation emits each side only where the
gate's polarity requires it, which always yields a subset of the full clause
set under the same variable map.

One generator, ``_encode``, produces the clauses of both: it yields each
encoded gate's rows as it reaches the gate, so a caller can append them to a
formula or turn them into text gate by gate without a clause list of the
whole formula.
"""

from dataclasses import dataclass, field

from .circuit import (AND, BOTH, EQUIV, FALSE, IMPLY, INPUT, ITE, NEG, NOT,
                      OR, POS, TRUE, XOR, Circuit, polarity, validate)
from .formula import CnfFormula, normalize_clause

__all__ = ["VarMap", "UnnormalizedGate", "build_varmap", "gate_clauses",
           "tseitin", "plaisted_greenbaum"]


class UnnormalizedGate(Exception):
    """Raised for a gate outside the encodable subset: CARD, EVEN, XOR or
    EQUIV with other than two children, or an unknown function."""


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


def gate_clauses(circuit: Circuit, name: str, vm: VarMap, pol: int):
    """Clause table for one gate: the positive rows when ``pol`` has
    ``POS``, then the negative rows when it has ``NEG``, each in canonical
    order (as ``normalize_clause`` returns it).  When the gate's variable
    and its children's are all distinct, no row can repeat a variable, so
    sorting a row by variable makes it canonical; only a gate that shares a
    variable between them (a repeated child) goes through
    ``normalize_clause``, which merges duplicate literals and drops the
    tautological rows."""
    gate = circuit.gates[name]
    func = gate.func
    var = vm.gate_to_var
    g = var[name]
    kids = [var[c] for c in gate.children]

    if func == INPUT:
        pos, neg = [], []
    elif func == TRUE:
        pos, neg = [], [[g]]
    elif func == FALSE:
        pos, neg = [[-g]], []
    elif func == AND:
        pos, neg = [[-g, c] for c in kids], [[g] + [-c for c in kids]]
    elif func == OR:
        pos, neg = [[-g] + kids], [[g, -c] for c in kids]
    elif func == NOT:
        pos, neg = [[-g, -kids[0]]], [[g, kids[0]]]
    elif func == IMPLY:
        a, b = kids
        pos, neg = [[-g, -a, b]], [[g, a], [g, -b]]
    elif func == XOR and len(kids) == 2:
        a, b = kids
        pos, neg = [[-g, a, b], [-g, -a, -b]], [[g, -a, b], [g, a, -b]]
    elif func == EQUIV and len(kids) == 2:
        a, b = kids
        pos, neg = [[-g, -a, b], [-g, a, -b]], [[g, a, b], [g, -a, -b]]
    elif func == ITE:
        c, t, e = kids
        pos, neg = [[-g, -c, t], [-g, c, e]], [[g, -c, -t], [g, c, -e]]
    else:
        raise UnnormalizedGate(f"gate {name!r} ({func}/{len(kids)}) "
                               "requires normalize_circuit first")

    rows = (pos if pol & POS else []) + (neg if pol & NEG else [])
    if len(set(kids)) == len(kids) and g not in kids:
        return [tuple(sorted(row, key=abs)) for row in rows]
    clauses = []
    for row in rows:
        clause, taut = normalize_clause(row)
        if not taut:
            clauses.append(clause)
    return clauses


def _encode(circuit, vm, restricted):
    """The one clause producer behind both encodings and `cnfkit encode`.

    A generator over the circuit's encoding under ``vm`` (built by the
    caller with ``build_varmap``), in output order: one list of canonical
    rows per encoded gate, gates by variable and each gate's positive rows
    before its negative ones, then one list holding a unit per constraint.
    Duplicates stay, as in the clause multiset.  ``restricted`` yields only
    the rows the gate's ``polarity`` requires, and nothing for a gate
    without one; otherwise every gate gets both sides."""
    if restricted:
        pol = polarity(circuit)
    else:
        pol = dict.fromkeys(circuit.gates, BOTH)
    var = vm.gate_to_var
    for name in sorted(circuit.gates, key=var.__getitem__):
        if pol[name]:
            yield gate_clauses(circuit, name, vm, pol[name])
    yield [(var[name],) if req else (-var[name],)
           for name, req in circuit.constraints]


def _formula(circuit, vm, restricted):
    if vm is None:
        vm = build_varmap(circuit)
    formula = CnfFormula(num_vars=vm.num_vars)
    for rows in _encode(circuit, vm, restricted):
        for clause in rows:
            formula._append(clause)
    return formula, vm


def tseitin(circuit: Circuit, vm: VarMap | None = None):
    """Full encoding: both sides of every gate plus one unit per constraint.
    Models restricted to input variables are exactly the circuit's satisfying
    input assignments."""
    return _formula(circuit, vm, restricted=False)


def plaisted_greenbaum(circuit: Circuit, vm: VarMap | None = None):
    """Polarity-restricted encoding: a gate's positive side is emitted only
    when the gate can matter positively, the negative side only negatively.
    Constraint units are always emitted."""
    return _formula(circuit, vm, restricted=True)
