"""Seeded fuzzing of the command line: mangled DIMACS, circuit, stack and
model files go through `cnfkit.cli.main` for every subcommand.  Whatever the
input, the exit code is one of the documented ones, no traceback reaches
stderr, and an exit 1 ends with one `error:` line."""

import random

import pytest

from cnfkit.cli import main
from cnfkit.io import write_circuit, write_dimacs

from conftest import or_chain, random_circuit, random_formula

EXIT_CODES = {0, 1, 2, 10, 20}
TECHNIQUES = ("te hte ate se hse ase bce hbce abce cce hcce acce "
              "pl fle els ve").split()
JUNK = ("x", "1.5", "--1", "0x1", "p", "c", "v", "s", "%", "e", "", "-")


def mangle_lines(rng, text):
    """Delete, duplicate, swap or truncate lines, or splice in junk tokens."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        i = rng.randrange(len(lines)) if lines else 0
        if roll < 0.2 and lines:
            del lines[i]
        elif roll < 0.4 and lines:
            lines.insert(i, lines[i])
        elif roll < 0.55 and len(lines) > 1:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif roll < 0.8:
            lines.insert(i, " ".join(rng.choice(JUNK)
                                     for _ in range(rng.randint(1, 3))))
        else:
            return text[:rng.randrange(len(text) + 1)]
    return "\n".join(lines) + "\n"


def mangled_dimacs(rng):
    formula = random_formula(rng, max_vars=10, max_clauses=16)
    text = write_dimacs(formula)
    n = formula.num_vars
    kind = rng.randrange(6)
    if kind == 0:  # truncated
        return text[:rng.randrange(len(text) + 1)]
    if kind == 1:  # bad header
        header = rng.choice(("p cnf", "p dnf 3 1", "p cnf x 1", "p cnf -1 2",
                             "p cnf 3", "p  cnf 3 1 7", "c p cnf 3 1", ""))
        return text.replace(text.splitlines()[0], header, 1)
    if kind == 2:  # literal out of range
        return text + f"{rng.choice((-1, 1)) * (n + rng.randint(1, 5))} 0\n"
    if kind == 3:  # non-integer tokens
        return text + f"1 {rng.choice(JUNK[:4])} 0\n"
    if kind == 4:  # SATLIB trailer, sometimes with junk after it
        return text + "%\n0\n" + rng.choice(("", "\n", "junk\n"))
    return mangle_lines(rng, text)


def mangled_circuit(rng):
    kind = rng.randrange(8)
    if kind == 0:  # cycle
        return "BC1.1\na := AND(b, x);\nb := OR(a, y);\nASSIGN a;\n"
    if kind == 1:  # a constraint on a name nothing defines, and a bad argument
        return rng.choice(("BC1.1\ng := AND(x, y);\nASSIGN nowhere;\n",
                           "BC1.1\ng := AND(x, y z);\nASSIGN g;\n",
                           "BC1.1\ng := AND(x, );\nASSIGN g;\n"))
    if kind == 2:  # bad CARD bounds
        bounds = rng.choice(("{3,1}", "{-1,2}", "{a,b}", "{1}", "",
                             "{5,9}", "{0,0}"))
        return f"BC1.1\ng := CARD{bounds}(x, y, z);\nASSIGN g;\n"
    if kind == 3:  # unknown function or missing header
        return rng.choice(("BC1.1\ng := NAND(x, y);\nASSIGN g;\n",
                           "g := AND(x, y);\nASSIGN g;\n", "", "BC1.0\n"))
    text = write_circuit(random_circuit(rng, max_gates=12))
    return mangle_lines(rng, text) if kind < 6 else text


def mangled_stack(rng):
    return rng.choice(("", "e\n", "e c\n", "e c 0\n", "e c x\n", "e c 2\ns 1 1 0\n",
                       "e v 1\n", "e v 0 1 1 0\n", "e v 1 2 1 0\n",
                       "e v 1 1 1\n", "s 1 1 0\n", "e q 1\n",
                       "e c 1\ns 1 1 2\n", "e c 1\ns x 1 0\n",
                       "e c 1\ns 1 1 0\ne v 2 1 -2 1 0\n"))


def mangled_model(rng):
    return rng.choice(("", "v 0\n", "1 -1\n", "v 1 x 0\n", "s SATISFIABLE\nv 1 2\n",
                       "c comment\n-1 -2 0\n", "v 1.5 0\n", "v\n", "1 1\n",
                       "v 1 -2 0\nv 2 0\n", "v 999 0\n", "0 0 0\n"))


def run(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        last = err.splitlines()[-1] if err else ""
        assert last.startswith(("error:", "cnfkit: error:")), (argv, err)
    return code


@pytest.mark.parametrize("seed", range(4))
def test_dimacs_inputs(tmp_path, capsys, seed):
    rng = random.Random(seed)
    for i in range(30):
        a, b = tmp_path / f"a{i}.cnf", tmp_path / f"b{i}.cnf"
        a.write_text(mangled_dimacs(rng))
        b.write_text(mangled_dimacs(rng))
        order = ",".join(rng.sample(TECHNIQUES, rng.randint(1, 4)))
        out, stack = str(tmp_path / "o.cnf"), str(tmp_path / "o.stack")
        run(capsys, ["prep", str(a), out, "--techniques", order,
                     "--stack", stack] + (["--strict"] if i % 5 == 0 else []))
        run(capsys, ["verify", str(a), str(b)])
        run(capsys, ["solve", str(a), "--oracle"])


@pytest.mark.parametrize("seed", range(4))
def test_circuit_inputs(tmp_path, capsys, seed):
    rng = random.Random(100 + seed)
    for i in range(30):
        path = tmp_path / f"c{i}.bc"
        path.write_text(mangled_circuit(rng))
        simplify = ",".join(rng.sample(("coi", "nsi", "mir", "foo"),
                                       rng.randint(0, 3)))
        run(capsys, ["encode", str(path), str(tmp_path / "o.cnf"),
                     "--encoding", rng.choice(("tst", "pg")),
                     "--simplify", simplify])


def test_wide_and_deep_circuits(tmp_path, capsys):
    wide = tmp_path / "wide.bc"
    names = ", ".join(f"x{i}" for i in range(1100))
    wide.write_text(f"BC1.1\ng := CARD{{1,2}}({names});\nASSIGN g;\n")
    deep = tmp_path / "deep.bc"
    deep.write_text(write_circuit(or_chain(3000)))
    for path in (wide, deep):
        for simplify in ("", "coi,nsi,mir"):
            run(capsys, ["encode", str(path), str(tmp_path / "o.cnf"),
                         "--encoding", "pg", "--simplify", simplify])


def test_stack_and_model_files(tmp_path, capsys):
    rng = random.Random(7)
    original = tmp_path / "orig.cnf"
    original.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    good = tmp_path / "good.stack"
    assert run(capsys, ["prep", str(original), str(tmp_path / "r.cnf"),
                        "--techniques", "bce", "--stack", str(good)]) == 0
    for i in range(60):
        stack, model = tmp_path / f"s{i}.stack", tmp_path / f"m{i}.txt"
        stack.write_text(good.read_text() if i % 3 == 0 else mangled_stack(rng))
        model.write_text(mangled_model(rng))
        run(capsys, ["verify", "--reconstruct", str(stack), str(model),
                     str(original)])
