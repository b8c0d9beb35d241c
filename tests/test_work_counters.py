"""Deterministic work counts: calls that a pass makes, counted by wrapping
the function it calls.  A count reads the same on every host and every run,
so growth shows up even when timings are noisy."""

import random

import pytest

import cnfkit.circuit
import cnfkit.encode
import cnfkit.formula
import cnfkit.io.bcformat
from cnfkit.circuit import (AND, INPUT, NOT, OR, Circuit, CycleError,
                            mir_reduce, normalize_circuit, simplify_fixpoint,
                            validate)
from cnfkit.cli import main
from cnfkit.encode import tseitin
from cnfkit.formula import failed_literal_probe
from cnfkit.io import parse_circuit, write_circuit
from conftest import parity_circuit


@pytest.fixture
def validate_calls(monkeypatch):
    """The circuits ``validate`` is called on, through every module that
    imports it."""
    calls = []

    def counting(circuit):
        calls.append(circuit)
        return validate(circuit)

    for module in (cnfkit.circuit, cnfkit.encode, cnfkit.io.bcformat):
        monkeypatch.setattr(module, "validate", counting)
    return calls


def test_encode_validates_each_distinct_circuit_once(tmp_path, validate_calls):
    """tst: the parsed circuit (its order also drives normalization) and the
    normalized one (for numbering).  pg with simplification: the parsed,
    the simplified and the normalized circuit, however many MIR rounds."""
    circuit = parity_circuit(random.Random(3), 60)
    simplified, _ = simplify_fixpoint(circuit)
    assert simplified != circuit
    source, target = tmp_path / "in.bc", tmp_path / "out.cnf"
    source.write_text(write_circuit(circuit))
    del validate_calls[:]
    assert main(["encode", str(source), str(target), "--encoding", "tst"]) == 0
    assert len(validate_calls) == 2 and validate_calls[0] == circuit
    del validate_calls[:]
    assert main(["encode", str(source), str(target), "--encoding", "pg",
                 "--simplify", "coi,nsi,mir"]) == 0
    assert len(validate_calls) == 3
    assert validate_calls[:2] == [circuit, simplified]


def test_passes_called_alone_validate_their_input_once(validate_calls):
    c = Circuit()
    for name, func, kids in [("x", INPUT, ()), ("y", INPUT, ()),
                             ("d", NOT, ("y",)), ("o", OR, ("x", "d"))]:
        c.add_gate(name, func, kids)
    c.add_constraint("o")
    c.add_constraint("y", False)
    text = write_circuit(c)
    for call in (lambda: parse_circuit(text),
                 lambda: normalize_circuit(c),
                 lambda: mir_reduce(c),
                 # two MIR rounds: x and y, then nothing left to fix
                 lambda: simplify_fixpoint(c)):
        del validate_calls[:]
        call()
        assert len(validate_calls) == 1


def test_normalize_circuit_rejects_a_cycle():
    c = Circuit()
    c.add_gate("a", AND, ("b",))
    c.add_gate("b", OR, ("a",))
    c.add_constraint("a")
    with pytest.raises(CycleError):
        normalize_circuit(c)


# (propagate calls, summed sizes of the sets they return) during
# failed_literal_probe on the Tseitin encoding of
# parity_circuit(random.Random(n + 1), n), as counted at the commit that
# added this test; probing restarts at variable 1 after each learned unit
FLE_WORK = {200: (1337, 12986), 400: (8598, 284508), 800: (21629, 629059)}


def test_failed_literal_probe_work(monkeypatch):
    """FLE's work grows no faster than it did when this test was written:
    2.5x the propagate calls from 400 to 800 gates.  Counts may fall."""
    sizes = []
    propagate = cnfkit.formula.propagate

    def counting(*args, **kwargs):
        result = propagate(*args, **kwargs)
        sizes.append(len(result[0]))
        return result

    monkeypatch.setattr(cnfkit.formula, "propagate", counting)
    work = {}
    for n, (calls, literals) in FLE_WORK.items():
        circuit = parity_circuit(random.Random(n + 1), n)
        formula, _ = tseitin(normalize_circuit(circuit))
        del sizes[:]
        failed_literal_probe(formula)
        work[n] = len(sizes)
        assert 0 < len(sizes) <= calls
        assert sum(sizes) <= literals
    assert work[800] <= 2.6 * work[400]
