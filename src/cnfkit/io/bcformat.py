"""Circuit text format.

    BC1.1
    # comment
    g := AND(x, y);
    o := CARD{1,2}(g, z);
    ASSIGN o;
    ASSIGN ~x;

Gate names are word characters.  Names that are referenced but never defined
become input gates.  T and F take empty argument lists.  The writer emits
definitions in topological order, so writing a parsed canonical file
reproduces it byte for byte.

Inputs exist in the text only through references: an input gate that no gate
or constraint mentions has no representation and is dropped on a round trip.
"""

import re

from ..circuit import CARD, FUNCS, INPUT, Circuit, validate

__all__ = ["CIRCUIT_HEADER", "CircuitFormatError", "UnknownFunction",
           "parse_circuit", "write_circuit"]

CIRCUIT_HEADER = "BC1.1"

_DEF_RE = re.compile(
    r"^(?P<name>\w+)\s*:=\s*(?P<func>[A-Z]+)"
    r"(?:\{(?P<lo>\d+),(?P<hi>\d+)\})?"
    r"\s*\((?P<args>[^()]*)\)\s*;$")
_ASSIGN_RE = re.compile(r"^ASSIGN\s+(?P<neg>~?)(?P<name>\w+)\s*;$")
# one argument; in _DEF_RE, ``re`` would keep state for each repetition
_NAME_RE = re.compile(r"\w+")


class CircuitFormatError(Exception):
    pass


class UnknownFunction(CircuitFormatError):
    pass


def parse_circuit(text: str) -> Circuit:
    """The circuit the text describes, checked by ``validate``."""
    circuit = _parse(text)
    validate(circuit)
    return circuit


def _parse(text):
    """The circuit the text describes, unchecked: it may hold a cycle or bad
    arity or bounds, so the caller must pass it to a pass that validates."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CIRCUIT_HEADER:
        raise CircuitFormatError(f"missing {CIRCUIT_HEADER} header line")

    circuit = Circuit()
    referenced: list[str] = []
    constraints: list[tuple[str, bool]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _DEF_RE.match(stripped)
        if m:
            # a function's name is its BC1.1 spelling; [A-Z]+ never
            # matches INPUT's
            func = m.group("func")
            if func not in FUNCS:
                raise UnknownFunction(f"line {lineno}: {func!r}")
            # blank argument text is an empty list; otherwise every
            # comma-separated part must be a name, so ``AND(x,,y)`` fails
            arg_text = m.group("args")
            args = ([a.strip() for a in arg_text.split(",")]
                    if arg_text.strip() else [])
            lo = hi = None
            if func == CARD:
                if m.group("lo") is None:
                    raise CircuitFormatError(f"line {lineno}: CARD needs "
                                             "{low,high} bounds")
                lo, hi = int(m.group("lo")), int(m.group("hi"))
            elif m.group("lo") is not None:
                raise CircuitFormatError(f"line {lineno}: bounds only "
                                         "allowed on CARD")
            for arg in args:
                if not _NAME_RE.fullmatch(arg):
                    raise CircuitFormatError(f"line {lineno}: bad argument "
                                             f"{arg!r}")
            circuit.add_gate(m.group("name"), func, args, lo, hi)
            referenced.extend(args)
            continue
        m = _ASSIGN_RE.match(stripped)
        if m:
            constraints.append((m.group("name"), not m.group("neg")))
            referenced.append(m.group("name"))
            continue
        raise CircuitFormatError(f"line {lineno}: cannot parse {stripped!r}")

    for name in referenced:
        if name not in circuit.gates:
            circuit.add_input(name)
    for name, req in constraints:
        circuit.add_constraint(name, req)
    return circuit


def write_circuit(circuit: Circuit) -> str:
    """Canonical text: definitions in topological order (inputs implicit),
    constraints in stored order."""
    lines = [CIRCUIT_HEADER]
    for name in validate(circuit):
        gate = circuit.gates[name]
        if gate.func == INPUT:
            continue
        bounds = f"{{{gate.lo},{gate.hi}}}" if gate.func == CARD else ""
        lines.append(f"{name} := {gate.func}{bounds}"
                     f"({', '.join(gate.children)});")
    for name, req in circuit.constraints:
        lines.append(f"ASSIGN {'' if req else '~'}{name};")
    return "\n".join(lines) + "\n"
