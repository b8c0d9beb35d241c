import json
import os
import random
import stat
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfkit.formula import CnfFormula
from cnfkit.io import (CircuitFormatError, DimacsError, LiteralOutOfRange,
                       MalformedHeader, SolverParseFailure, SpawnFailure,
                       UnknownFunction, UnterminatedClause, atomic_write,
                       dimacs_text, model_text, parse_circuit, parse_dimacs,
                       parse_dimacs_with_report, parse_model, render_stats,
                       run_external_solver, write_circuit, write_dimacs)
from cnfkit.cli import main
from cnfkit.elim import ElimReport, TechniqueId
from cnfkit.reconstruct import ReconstructionStack, StackFormatError
from conftest import random_circuit, random_formula
from test_cli_fuzz import mangled_stack


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0")
        assert list(f.clauses.values()) == [(1, -2)]
        assert f.num_vars == 2

    def test_comments_and_units(self):
        f = parse_dimacs("c x\np cnf 1 2\n1 0\n-1 0")
        assert list(f.clauses.values()) == [(1,), (-1,)]

    def test_literal_out_of_range(self):
        with pytest.raises(LiteralOutOfRange):
            parse_dimacs("p cnf 1 1\n2 0")

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            parse_dimacs("p dnf 1 1\n1 0")
        with pytest.raises(MalformedHeader):
            parse_dimacs("1 0")

    def test_unterminated(self):
        with pytest.raises(UnterminatedClause):
            parse_dimacs("p cnf 2 1\n1 -2")

    def test_count_mismatch_warns(self):
        _, report = parse_dimacs_with_report("p cnf 1 5\n1 0")
        assert any("5 clauses" in w for w in report.warnings)
        with pytest.raises(MalformedHeader):
            parse_dimacs("p cnf 1 5\n1 0", strict=True)

    def test_tautologies_dropped_and_counted(self):
        f, report = parse_dimacs_with_report("p cnf 2 2\n1 -1 0\n1 2 0")
        assert report.tautologies_dropped == 1
        assert list(f.clauses.values()) == [(1, 2)]

    def test_multiline_and_shared_lines(self):
        f = parse_dimacs("p cnf 3 2\n1 2\n3 0 -1\n-2 0")
        assert list(f.clauses.values()) == [(1, 2, 3), (-1, -2)]

    def test_parse_peak_stays_near_the_formula(self):
        """Clauses are read line by line, with no token list of the whole
        file: parsing a random 3-CNF of 60,000 clauses peaks at less than
        1.35 times the memory that the parsed formula keeps."""
        rng = random.Random(7)
        lines = ["p cnf 5000 60000"]
        for _ in range(60000):
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, 5001), 3)]
            lines.append(" ".join(map(str, lits)) + " 0")
        text = "\n".join(lines) + "\n"
        del lines
        tracemalloc.start()
        try:
            formula = parse_dimacs(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(formula.clauses) == 60000
        assert peak < 1.35 * retained


class TestWriteDimacs:
    def test_basic(self):
        assert write_dimacs(CnfFormula(clauses=[[1, -2]])) == "p cnf 2 1\n1 -2 0\n"

    def test_empty(self):
        assert write_dimacs(CnfFormula()) == "p cnf 0 0\n"

    def test_empty_clause(self):
        assert write_dimacs(CnfFormula(clauses=[[]])) == "p cnf 0 1\n0\n"

    def test_round_trip_random(self, rng):
        for _ in range(500):
            f = random_formula(rng)
            text = write_dimacs(f)
            again = parse_dimacs(text)
            assert again == f
            assert write_dimacs(again) == text

    def test_clause_lines_match_joined_literals(self, rng):
        """One ``%`` format per clause length writes what joining each
        literal's ``str`` wrote, from the empty clause to a wide one."""
        def reference(clauses):
            return f"p cnf 9 {len(clauses)}\n" + "".join(
                " ".join([str(l) for l in c] + ["0\n"]) for c in clauses)

        wide = tuple(rng.choice((-1, 1)) * v for v in range(1, 2001))
        clauses = [tuple(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 6))
                         for _ in range(rng.randint(0, 12)))
                   for _ in range(1000)]
        for case in ([()], [(-7,)], [wide], clauses, clauses + [wide, ()]):
            assert dimacs_text(9, [case]) == reference(case)
        assert dimacs_text(9, [[]]) == dimacs_text(9, []) == reference([])
        f = CnfFormula(clauses=[wide, (3,), (-1, 2)])
        assert parse_dimacs(write_dimacs(f)) == f

    def test_chunks_split_anywhere_give_the_same_text(self, rng):
        clauses = [tuple(rng.choice((-1, 1)) * rng.randint(1, 50)
                         for _ in range(rng.randint(0, 6)))
                   for _ in range(200)]
        whole = dimacs_text(50, [clauses])
        for _ in range(50):
            cuts = sorted(rng.randint(0, len(clauses))
                          for _ in range(rng.randint(0, 12)))
            chunks = [clauses[a:b] for a, b in
                      zip([0] + cuts, cuts + [len(clauses)])]
            assert dimacs_text(50, iter(chunks)) == whole
        assert dimacs_text(50, [[], clauses[:1], [], clauses[1:], []]) == whole

    @given(st.lists(st.lists(st.integers(min_value=-6, max_value=6).filter(bool),
                             min_size=1, max_size=4), max_size=12))
    @settings(deadline=None, max_examples=200)
    def test_round_trip_property(self, clauses):
        from cnfkit.formula import normalize_clause
        f = CnfFormula()
        for lits in clauses:
            clause, taut = normalize_clause(lits)
            if not taut:
                f.add_clause(clause)
        text = write_dimacs(f)
        assert write_dimacs(parse_dimacs(text)) == text


class TestModelText:
    def test_reader_skips_comments_and_status(self):
        text = "c by hand\ns SATISFIABLE\n\nv 1 -2\nv 3 0\n-4 0\n"
        assert parse_model(text) == {1: True, 2: False, 3: True, 4: False}

    def test_round_trip(self, rng):
        for _ in range(200):
            model = {v: rng.random() < 0.5 for v in rng.sample(range(1, 30), 8)}
            assert parse_model(model_text(model)) == model
        assert model_text({2: False, 1: True}) == "v 1 -2 0\n"
        assert model_text({}) == "v  0\n"

    def test_bad_token(self):
        with pytest.raises(DimacsError, match="bad model token 'x'"):
            parse_model("v 1 x 0\n")

    def test_contradiction(self):
        assert parse_model("1 1\n") == {1: True}
        with pytest.raises(DimacsError, match="contradictory model literal -1"):
            parse_model("1 -1\n")


class TestCircuitFormat:
    def test_parse_basic(self):
        c = parse_circuit("BC1.1\ng := AND(x, y);\nASSIGN g;\n")
        assert len(c.gates) == 3 and c.constraints == [("g", True)]

    def test_card(self):
        c = parse_circuit("BC1.1\ng := CARD{1,2}(x,y,z);\n")
        gate = c.gates["g"]
        assert gate.lo == 1 and gate.hi == 2

    def test_cycle_rejected(self):
        from cnfkit.circuit import CycleError
        with pytest.raises(CycleError):
            parse_circuit("BC1.1\ng := AND(g);\n")

    def test_duplicate_definition(self):
        from cnfkit.circuit import DuplicateDefinition
        with pytest.raises(DuplicateDefinition):
            parse_circuit("BC1.1\ng := T();\ng := F();\n")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse_circuit("BC1.1\ng := NAND(x, y);\n")

    def test_negated_constraint(self):
        c = parse_circuit("BC1.1\nASSIGN ~x;\n")
        assert c.constraints == [("x", False)]
        assert c.gates["x"].func == "input"

    def test_missing_header(self):
        with pytest.raises(CircuitFormatError):
            parse_circuit("g := T();\n")

    @pytest.mark.parametrize("definition", ["g := AND(x,,y);", "g := OR(x, );",
                                            "g := T(,);", "g := AND(, x);",
                                            "g := AND(x, y z);",
                                            "g := AND(x;y);"])
    def test_empty_argument_rejected(self, tmp_path, capsys, definition):
        text = f"BC1.1\n{definition}\nASSIGN g;\n"
        with pytest.raises(CircuitFormatError, match="line 2"):
            parse_circuit(text)
        source = tmp_path / "in.bc"
        source.write_text(text)
        assert main(["encode", str(source), str(tmp_path / "out.cnf")]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:")

    def test_blank_argument_list(self):
        c = parse_circuit("BC1.1\ng := T( );\nh := F();\n")
        assert c.gates["g"].children == c.gates["h"].children == ()

    def test_round_trip_random(self, rng):
        for _ in range(300):
            c = random_circuit(rng)
            text = write_circuit(c)
            again = parse_circuit(text)
            assert write_circuit(again) == text
            # inputs exist only through references, so isolated ones vanish
            referenced = {ch for g in c.gates.values() for ch in g.children}
            referenced |= {n for n, _ in c.constraints}
            expected = {n: g for n, g in c.gates.items()
                        if g.func != "input" or n in referenced}
            assert again.gates == expected
            assert again.constraints == c.constraints


class TestFuzzNeverCrashes:
    def test_dimacs_fuzz(self, rng):
        alphabet = "pc nf01-23x\n\t"
        for _ in range(400):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 60)))
            try:
                parse_dimacs(text)
            except DimacsError:
                pass

    def test_circuit_fuzz(self, rng):
        from cnfkit.circuit import CircuitError
        alphabet = "BC1.agx:=();~ASSIGN{,}\n "
        for _ in range(400):
            text = "BC1.1\n" + "".join(rng.choice(alphabet)
                                       for _ in range(rng.randint(0, 60)))
            try:
                parse_circuit(text)
            except (CircuitFormatError, CircuitError):
                pass

    def test_stack_fuzz(self, rng):
        """A stack text parses, and then round-trips, or raises
        StackFormatError; the CLI cannot tell, as it maps every error to 1."""
        alphabet = "ecsv 0-12x\n"
        good = "e c 2\ns 1 1 2 0\ns -3 1 -3 0\ne v 4 2 4 1 0 -4 2 0\n"
        for _ in range(600):
            kind = rng.randrange(3)
            if kind == 0:
                text = mangled_stack(rng)
            elif kind == 1:
                text = "".join(rng.choice(alphabet)
                               for _ in range(rng.randint(0, 60)))
            else:
                chars = list(good)
                for _ in range(rng.randint(1, 3)):
                    chars[rng.randrange(len(chars))] = rng.choice(alphabet)
                text = "".join(chars)
            try:
                stack = ReconstructionStack.from_text(text)
            except StackFormatError:
                continue
            again = ReconstructionStack.from_text(stack.to_text())
            assert again.entries == stack.entries


class TestStackFormat:
    @pytest.mark.parametrize("text", ["e c\n", "e c 0\n", "e c -2\n",
                                      "e c 1\ns 1 1 0 2 0\n",
                                      "e c 1 7\ns 1 1 0\n"])
    def test_clause_entry_framing(self, text):
        with pytest.raises(StackFormatError):
            ReconstructionStack.from_text(text)


def _make_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestSolverRunner:
    def test_sat_stub(self, tmp_path):
        stub = _make_stub(tmp_path, "sat.sh",
                          'echo "s SATISFIABLE"\necho "v 1 -2 0"\nexit 10\n')
        result = run_external_solver(stub, CnfFormula(clauses=[[1, -2]]))
        assert result.status == "sat"
        assert result.model == {1: True, 2: False}

    def test_unsat_stub(self, tmp_path):
        stub = _make_stub(tmp_path, "unsat.sh",
                          'echo "s UNSATISFIABLE"\nexit 20\n')
        result = run_external_solver(stub, CnfFormula(clauses=[[1], [-1]]))
        assert result.status == "unsat"

    def test_timeout_stub(self, tmp_path):
        stub = _make_stub(tmp_path, "slow.sh", "sleep 10\n")
        result = run_external_solver(stub, CnfFormula(), timeout=0.2)
        assert result.status == "unknown" and result.reason == "timeout"

    def test_missing_solver(self, tmp_path):
        with pytest.raises(SpawnFailure):
            run_external_solver(str(tmp_path / "nope"), CnfFormula())

    def test_garbage_output(self, tmp_path):
        stub = _make_stub(tmp_path, "bad.sh", 'echo "hello"\nexit 0\n')
        with pytest.raises(SolverParseFailure):
            run_external_solver(stub, CnfFormula())

    def test_solver_reads_the_formula(self, tmp_path):
        stub = _make_stub(tmp_path, "cat.sh", 'cat "$1" >&2\nexit 20\n')
        result = run_external_solver(stub, CnfFormula(clauses=[[1], [-1]]))
        assert result.status == "unsat"


class TestStats:
    def test_empty_report(self):
        doc = json.loads(render_stats(ElimReport()))
        assert doc["schema"] == "cnfkit-stats/1"
        assert doc["techniques"] == {}
        assert doc["clauses_before"] == 0

    def test_counters_recorded(self):
        report = ElimReport()
        report.clauses_before = 2
        report.stats(TechniqueId.BCE).clauses_removed = 2
        doc = json.loads(render_stats(report))
        assert doc["techniques"]["bce"]["clauses_removed"] == 2

    def test_technique_counters_in_schema_order(self):
        report = ElimReport()
        report.stats(TechniqueId.BCE)
        doc = json.loads(render_stats(report))
        assert list(doc["techniques"]["bce"]) == [
            "clauses_removed", "clauses_added", "literals_added", "rounds",
            "seconds"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_write_keeps_the_modes_of_open(tmp_path, umask):
    """A new file gets 0o666 less the umask, as ``open(path, "w")`` gives,
    and a file written again keeps its permission bits."""
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "new", "a")
        with open(tmp_path / "opened", "w"):
            pass
        (tmp_path / "old").write_text("b")
        os.chmod(tmp_path / "old", 0o604)
        atomic_write(tmp_path / "old", "c")
        assert main(["gen", "php", "2", str(tmp_path / "old")]) == 0
        with pytest.raises(TypeError):
            atomic_write(tmp_path / "old", None)
    finally:
        os.umask(old)
    mode = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert mode == {"new": 0o666 & ~umask, "opened": 0o666 & ~umask,
                    "old": 0o604}
    assert (tmp_path / "new").read_text() == "a"
    assert (tmp_path / "old").read_text().startswith("p cnf 6 9\n")
