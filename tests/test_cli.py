import json
import stat

import pytest

from cnfkit.cli import build_parser, main
from cnfkit.io import parse_dimacs

AND_CIRCUIT = "BC1.1\ng := AND(x, y);\nASSIGN g;\n"


def run(*args):
    return main(list(args))


def write(path, text):
    path.write_text(text)
    return str(path)


class TestPrep:
    def test_tautology_prep(self, tmp_path):
        inp = write(tmp_path / "in.cnf", "p cnf 1 1\n1 -1 0\n")
        out = tmp_path / "out.cnf"
        assert run("prep", inp, str(out), "--techniques", "te") == 0
        assert out.read_text() == "p cnf 0 0\n"

    def test_bce_writes_stack_and_stats(self, tmp_path):
        inp = write(tmp_path / "in.cnf", "p cnf 2 2\n1 2 0\n-1 -2 0\n")
        out, stack, stats = (tmp_path / n for n in ("o.cnf", "o.stack", "o.json"))
        code = run("prep", inp, str(out), "--techniques", "bce",
                   "--stack", str(stack), "--stats", str(stats))
        assert code == 0
        assert out.read_text() == "p cnf 0 0\n"
        assert stack.read_text().count("e c 1") == 2
        doc = json.loads(stats.read_text())
        assert doc["techniques"]["bce"]["clauses_removed"] == 2

    def test_unsat_exit_20(self, tmp_path):
        inp = write(tmp_path / "in.cnf", "p cnf 1 2\n1 0\n-1 0\n")
        out = tmp_path / "out.cnf"
        assert run("prep", inp, str(out), "--techniques", "fle") == 20
        assert "0" in out.read_text()

    def test_unknown_technique(self, tmp_path):
        inp = write(tmp_path / "in.cnf", "p cnf 1 1\n1 0\n")
        assert run("prep", inp, str(tmp_path / "o.cnf"),
                   "--techniques", "bogus") == 1

    def test_deterministic_outputs(self, tmp_path):
        inp = write(tmp_path / "in.cnf",
                    "p cnf 4 5\n1 2 0\n-1 3 0\n-2 -3 0\n3 4 0\n-3 -4 0\n")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.cnf"
            stack = tmp_path / f"{tag}.stack"
            run("prep", inp, str(out), "--techniques", "fle,els,te,se,bce,ve",
                "--stack", str(stack))
            outs.append(out.read_text() + stack.read_text())
        assert outs[0] == outs[1]


class TestEncode:
    def test_tseitin(self, tmp_path):
        inp = write(tmp_path / "c.bc", AND_CIRCUIT)
        out = tmp_path / "o.cnf"
        assert run("encode", inp, str(out), "--encoding", "tst") == 0
        assert len(parse_dimacs(out.read_text()).clauses) == 4
        sidecar = json.loads((tmp_path / "o.cnf.map").read_text())
        assert sidecar["vars"] == {"x": 1, "y": 2, "g": 3}

    def test_pg(self, tmp_path):
        inp = write(tmp_path / "c.bc", AND_CIRCUIT)
        out = tmp_path / "o.cnf"
        assert run("encode", inp, str(out), "--encoding", "pg") == 0
        assert len(parse_dimacs(out.read_text()).clauses) == 3

    def test_simplify_and_map(self, tmp_path):
        inp = write(tmp_path / "c.bc", AND_CIRCUIT)
        out, vmap = tmp_path / "o.cnf", tmp_path / "o.map"
        assert run("encode", inp, str(out), "--encoding", "pg",
                   "--simplify", "coi,nsi,mir", "--map", str(vmap)) == 0
        doc = json.loads(vmap.read_text())
        assert doc["schema"] == "cnfkit-varmap/1"
        assert doc["fixed_inputs"]  # the and-gate cone collapses

    def test_cyclic_circuit(self, tmp_path):
        inp = write(tmp_path / "c.bc", "BC1.1\ng := AND(g);\n")
        assert run("encode", inp, str(tmp_path / "o.cnf")) == 1

    def test_bad_pass_name(self, tmp_path):
        inp = write(tmp_path / "c.bc", AND_CIRCUIT)
        assert run("encode", inp, str(tmp_path / "o.cnf"),
                   "--simplify", "xyz") == 1


class TestGen:
    def test_php2(self, tmp_path):
        out = tmp_path / "php.cnf"
        assert run("gen", "php", "2", str(out)) == 0
        assert len(parse_dimacs(out.read_text()).clauses) == 9

    def test_xorring(self, tmp_path):
        out = tmp_path / "x.cnf"
        assert run("gen", "xorring", "4", str(out)) == 0
        assert len(parse_dimacs(out.read_text()).clauses) == 8

    def test_php_zero(self, tmp_path):
        assert run("gen", "php", "0", str(tmp_path / "o.cnf")) == 1

    def test_bad_family(self, tmp_path):
        assert run("gen", "nope", "2", str(tmp_path / "o.cnf")) == 1


class TestVerify:
    def test_same_file(self, tmp_path):
        a = write(tmp_path / "a.cnf", "p cnf 1 1\n1 0\n")
        assert run("verify", a, a) == 0

    def test_php_before_after_bce(self, tmp_path):
        a = tmp_path / "a.cnf"
        b = tmp_path / "b.cnf"
        run("gen", "php", "2", str(a))
        run("prep", str(a), str(b), "--techniques", "bce")
        assert run("verify", str(a), str(b)) == 0

    def test_disagreement(self, tmp_path):
        a = write(tmp_path / "a.cnf", "p cnf 1 1\n1 0\n")
        b = write(tmp_path / "b.cnf", "p cnf 1 2\n1 0\n-1 0\n")
        assert run("verify", a, b) == 2

    def test_bound_exceeded(self, tmp_path, monkeypatch):
        a = write(tmp_path / "a.cnf", "p cnf 30 1\n30 0\n")
        assert run("verify", a, a) == 1

    def test_reconstruct(self, tmp_path):
        original = write(tmp_path / "orig.cnf", "p cnf 2 2\n1 2 0\n-1 -2 0\n")
        reduced = tmp_path / "red.cnf"
        stack = tmp_path / "s.stack"
        run("prep", original, str(reduced), "--techniques", "bce",
            "--stack", str(stack))
        model = write(tmp_path / "m.txt", "v 0\n")
        assert run("verify", "--reconstruct", str(stack), model, original) == 0

    @pytest.mark.parametrize("var, code", [(2, 2), (3, 0)])
    def test_reconstruct_defaults_what_the_header_declares(self, tmp_path,
                                                           var, code):
        # the step's -var holds under the default false, so witness 1 stays
        # false and (1) fails; past the header there is no default, and the
        # witness flips
        original = write(tmp_path / "orig.cnf", "p cnf 2 1\n1 0\n")
        stack = write(tmp_path / "s.stack", f"e c 1\ns 1 1 -{var} 0\n")
        model = write(tmp_path / "m.txt", "v 0\n")
        assert run("verify", "--reconstruct", stack, model, original) == code

    def test_missing_operands(self, tmp_path):
        a = write(tmp_path / "a.cnf", "p cnf 1 1\n1 0\n")
        assert run("verify", a) == 1

    def test_contradictory_model_is_malformed(self, tmp_path, capsys):
        original = write(tmp_path / "orig.cnf", "p cnf 2 2\n1 2 0\n-1 -2 0\n")
        stack = tmp_path / "s.stack"
        run("prep", original, str(tmp_path / "red.cnf"), "--techniques", "bce",
            "--stack", str(stack))
        model = write(tmp_path / "m.txt", "1 -1\n")
        capsys.readouterr()
        assert run("verify", "--reconstruct", str(stack), model, original) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: contradictory model literal -1\n"
        assert captured.out == ""


class TestSolve:
    def test_oracle_sat(self, tmp_path, capsys):
        inp = write(tmp_path / "a.cnf", "p cnf 2 1\n1 2 0\n")
        assert run("solve", inp, "--oracle") == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out and "v 1 -2 0" in out

    def test_oracle_empty(self, tmp_path):
        inp = write(tmp_path / "a.cnf", "p cnf 0 0\n")
        assert run("solve", inp, "--oracle") == 10

    def test_oracle_php1(self, tmp_path):
        inp = tmp_path / "php1.cnf"
        run("gen", "php", "1", str(inp))
        assert run("solve", str(inp), "--oracle") == 20

    def test_missing_solver(self, tmp_path):
        inp = write(tmp_path / "a.cnf", "p cnf 1 1\n1 0\n")
        assert run("solve", inp, "--solver", str(tmp_path / "nope")) == 1

    def test_external_solver(self, tmp_path):
        inp = write(tmp_path / "a.cnf", "p cnf 1 1\n1 0\n")
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\necho 's SATISFIABLE'\necho 'v 1 0'\nexit 10\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        assert run("solve", inp, "--solver", str(stub)) == 10

    def test_v_lines_only_when_there_is_a_model(self, tmp_path, capsys):
        # the oracle prints a v line even with no variables; a solver that
        # printed no v line gets none
        empty = write(tmp_path / "e.cnf", "p cnf 0 0\n")
        assert run("solve", empty, "--oracle") == 10
        assert capsys.readouterr().out == "s SATISFIABLE\nv  0\n"
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\necho 's SATISFIABLE'\nexit 10\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        assert run("solve", empty, "--solver", str(stub)) == 10
        assert capsys.readouterr().out == "s SATISFIABLE\n"


class TestUsage:
    def test_no_command(self):
        assert run() == 1

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_one_parser_per_process(self, tmp_path):
        run("gen", "php", "1", str(tmp_path / "a.cnf"))
        before = build_parser.cache_info()
        run("gen", "php", "2", str(tmp_path / "b.cnf"))
        run("frobnicate")
        after = build_parser.cache_info()
        assert after.misses == before.misses and after.currsize == 1
