"""Inputs from the wild: SATLIB trailers, invalid circuits and circuits deep
enough to exhaust the interpreter's recursion limit must not crash the
command line."""

import pytest

from cnfkit.circuit import CircuitError
from cnfkit.cli import main
from cnfkit.io import parse_circuit

SATLIB_CLAUSES = "c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n"


def test_prep_accepts_satlib_trailer(tmp_path):
    plain, satlib = tmp_path / "plain.cnf", tmp_path / "satlib.cnf"
    plain.write_text(SATLIB_CLAUSES)
    satlib.write_text(SATLIB_CLAUSES + "%\n0\n\n")
    for path in (plain, satlib):
        assert main(["prep", str(path), str(path) + ".out",
                     "--techniques", "se"]) == 0
    assert (tmp_path / "satlib.cnf.out").read_text() == \
        (tmp_path / "plain.cnf.out").read_text() == "p cnf 3 2\n1 -2 3 0\n-1 2 0\n"


def test_any_failure_is_exit_1_with_a_message(tmp_path, capsys):
    inputs = [f"x{i}" for i in range(1500)]
    circuit = tmp_path / "wide.bc"
    circuit.write_text("BC1.1\n" f"g := CARD{{1,1}}({', '.join(inputs)});\n"
                       "ASSIGN g;\n")
    assert main(["encode", str(circuit), str(tmp_path / "wide.cnf")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "wide.cnf").exists()


INVALID_CIRCUITS = {"cycle": "g := AND(g);", "arity": "g := ITE(x, y);",
                    "bounds": "g := CARD{2,1}(x, y);"}
ENCODE_PATHS = {"tst": ["--encoding", "tst"], "pg": ["--encoding", "pg"],
                "pg-simplify": ["--encoding", "pg", "--simplify", "coi,nsi,mir"],
                "pg-bad-pass": ["--encoding", "pg", "--simplify", "xyz"]}


@pytest.mark.parametrize("options", ENCODE_PATHS.values(), ids=ENCODE_PATHS)
@pytest.mark.parametrize("body", INVALID_CIRCUITS.values(),
                         ids=INVALID_CIRCUITS)
def test_invalid_circuit_fails_alike_on_every_encode_path(tmp_path, capsys,
                                                          body, options):
    """Every encode path reports what ``parse_circuit`` raises, before any
    pass runs: with no constraint, COI would drop the bad gate, and an
    unknown pass name would be reported instead."""
    text = f"BC1.1\n{body}\n"
    with pytest.raises(CircuitError) as raised:
        parse_circuit(text)
    circuit, output = tmp_path / "bad.bc", tmp_path / "bad.cnf"
    circuit.write_text(text)
    assert main(["encode", str(circuit), str(output), *options]) == 1
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert list(tmp_path.iterdir()) == [circuit]
