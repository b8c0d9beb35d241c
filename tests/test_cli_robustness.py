"""Inputs from the wild: SATLIB trailers and circuits deep enough to exhaust
the interpreter's recursion limit must not crash the command line."""

from cnfkit.cli import main

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
