"""`cnfkit encode` writes its clauses straight to DIMACS text, gate by
gate, with no `CnfFormula`; `tseitin` and `plaisted_greenbaum` wrap the same
clause producer.  These tests keep the formula-based encoder and writer as
the reference and require byte-identical text, check the faster
`normalize_clause` against its definition, count the normalizations, and
bound the memory one `encode` takes.
"""

import itertools
import json
import random
import tracemalloc

import pytest

import cnfkit.encode
import cnfkit.formula
import cnfkit.io.dimacs
from cnfkit.circuit import (AND, BOTH, CARD, EQUIV, EVEN, FALSE, FUNCS,
                            IMPLY, INPUT, ITE, NEG, NOT, OR, POS, TRUE, XOR,
                            Circuit, normalize_circuit, polarity,
                            simplify_fixpoint)
from cnfkit.cli import main
from cnfkit.encode import (UnnormalizedGate, VarMap, build_varmap,
                           gate_clauses, plaisted_greenbaum, tseitin)
from cnfkit.formula import CnfFormula, lit_key, normalize_clause
from cnfkit.io import parse_circuit, parse_dimacs, write_circuit, write_dimacs
from conftest import parity_circuit, random_circuit

OPTIONS = ("tst", "pg", "pg --simplify coi,nsi,mir", "tst --simplify coi,nsi,mir")


def reference_normalize(lits):
    """``normalize_clause`` by its definition: sort every clause by
    ``lit_key`` and look for a complementary pair literal by literal."""
    seen = set(lits)
    if 0 in seen:
        raise ValueError("0 is not a literal")
    return tuple(sorted(seen, key=lit_key)), any(-l in seen for l in seen)


def reference_gate_clauses(circuit, name, vm, pol):
    """``gate_clauses`` as first written: the same row tables, and every
    row through ``normalize_clause``'s definition, tautologies dropped."""
    gate = circuit.gates[name]
    func = gate.func
    g = vm.var(name)
    kids = [vm.var(c) for c in gate.children]
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
        raise UnnormalizedGate(name)
    clauses = []
    for row in (pos if pol & POS else []) + (neg if pol & NEG else []):
        clause, taut = reference_normalize(row)
        if not taut:
            clauses.append(clause)
    return clauses


def reference_encode(circuit, restricted):
    """The formula-based encoder: every clause goes through
    ``CnfFormula.add_clause``, gates by variable, each gate's positive side
    first, then one unit per constraint."""
    vm = build_varmap(circuit)
    pol = polarity(circuit)
    formula = CnfFormula(num_vars=vm.num_vars)
    for name in sorted(circuit.gates, key=vm.var):
        sides = (POS, NEG)
        if restricted:
            sides = [side for side in (POS, NEG) if pol[name] & side]
        for side in sides:
            for clause in reference_gate_clauses(circuit, name, vm, side):
                formula.add_clause(clause)
    for name, req in circuit.constraints:
        formula.add_clause([vm.var(name) if req else -vm.var(name)])
    return formula, vm


def reference_dimacs(formula):
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses.values():
        lines.append(" ".join([str(l) for l in clause] + ["0"]))
    return "\n".join(lines) + "\n"


def reference_outputs(text, options):
    """The CNF and map text `cnfkit encode --encoding OPTIONS` wrote when
    it encoded through a `CnfFormula`."""
    words = options.split()
    circuit = parse_circuit(text)
    fixed = {}
    if "--simplify" in words:
        circuit, fixed = simplify_fixpoint(circuit, ("coi", "nsi", "mir"))
    formula, vm = reference_encode(normalize_circuit(circuit),
                                   restricted=words[0] == "pg")
    vm.fixed_inputs.update(fixed)
    doc = {"schema": "cnfkit-varmap/1", "vars": vm.gate_to_var,
           "fixed_inputs": vm.fixed_inputs}
    return reference_dimacs(formula), json.dumps(doc, indent=2) + "\n"


def corpus():
    """Seeded random circuits over every gate type, with repeated children,
    constants and constraints, and a few deep parity circuits."""
    rng = random.Random(8080)
    circuits = [random_circuit(rng, max_gates=14, max_inputs=7)
                for _ in range(150)]
    circuits += [parity_circuit(rng, gates) for gates in (30, 60)]
    return circuits


CORPUS = corpus()


def test_corpus_covers_every_gate_type_and_repeated_children():
    funcs = {g.func for c in CORPUS for g in c.gates.values()}
    assert {TRUE, FALSE, NOT, AND, OR, XOR, EVEN, EQUIV, IMPLY, ITE,
            CARD} <= funcs
    assert any(len(set(g.children)) < len(g.children)
               for c in CORPUS for g in c.gates.values())
    assert sum(bool(c.constraints) for c in CORPUS) > len(CORPUS) // 2


def test_corpus_has_duplicate_clauses():
    """A formula is a multiset: the corpus must hold encodings in which
    the same clause occurs twice, so that dropping one shows."""
    dups = 0
    for circuit in CORPUS:
        formula, _ = reference_encode(normalize_circuit(circuit), False)
        clauses = list(formula.clauses.values())
        dups += len(clauses) != len(set(clauses))
    assert dups >= 5


@pytest.mark.parametrize("options", OPTIONS)
def test_cli_text_matches_the_formula_based_encoder(tmp_path, options):
    source, target = tmp_path / "in.bc", tmp_path / "out.cnf"
    for circuit in CORPUS:
        text = write_circuit(circuit)
        source.write_text(text)
        assert main(["encode", str(source), str(target),
                     "--encoding", *options.split()]) == 0
        cnf, varmap = reference_outputs(text, options)
        assert target.read_text() == cnf
        assert (tmp_path / "out.cnf.map").read_text() == varmap


def test_gate_clauses_match_the_normalize_every_row_reference():
    """Every function over one to four children drawn from four inputs, so
    with every pattern of repeated children (``AND(a, a)``, ``XOR(a, a)``,
    ``ITE(a, a, b)``, ``IMPLY(a, a)``, ...), under each polarity and under
    variable maps that number the gate above its children, below them, in
    between, or on the same variable as a child."""
    pool = ("a", "b", "c", "d")
    rng = random.Random(2024)
    maps = [dict(zip(("g",) + pool, range(5, 0, -1))),   # gate below
            dict(zip(pool + ("g",), range(1, 6))),        # gate above
            {"a": 1, "b": 2, "g": 3, "c": 4, "d": 5},    # gate between
            {"g": 2, "a": 2, "b": 3, "c": 1, "d": 4}]    # gate shares a's
    for _ in range(4):
        maps.append({n: rng.randint(1, 5) for n in ("g",) + pool})
    checked = 0
    for func, (least, most) in FUNCS.items():
        for width in range(least, (4 if most is None else most) + 1):
            for kids in itertools.product(pool, repeat=width):
                circuit = Circuit()
                for name in pool:
                    circuit.add_input(name)
                circuit.add_gate("g", func, kids, 0, width)
                for numbering in maps:
                    vm = VarMap(numbering)
                    for pol in (POS, NEG, BOTH):
                        try:
                            want = reference_gate_clauses(circuit, "g", vm, pol)
                        except UnnormalizedGate:
                            with pytest.raises(UnnormalizedGate):
                                gate_clauses(circuit, "g", vm, pol)
                            continue
                        assert gate_clauses(circuit, "g", vm, pol) == want
                        checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("encode", [tseitin, plaisted_greenbaum])
def test_library_wrappers_match_the_formula_based_encoder(encode):
    restricted = encode is plaisted_greenbaum
    for circuit in CORPUS:
        circuit = normalize_circuit(circuit)
        expected, expected_vm = reference_encode(circuit, restricted)
        formula, vm = encode(circuit)
        formula.check_integrity()
        assert formula == expected
        assert vm.gate_to_var == expected_vm.gate_to_var
        # a caller's variable map is used as given
        again, same_vm = encode(circuit, vm)
        assert same_vm is vm and again == expected
        assert write_dimacs(formula) == reference_dimacs(expected)


def test_normalize_clause_matches_its_definition():
    rng = random.Random(4711)
    lists = [[]]
    for _ in range(3000):
        width = rng.randint(0, 9)
        lists.append([rng.choice((-1, 1)) * rng.randint(1, rng.choice((3, 12, 40)))
                      for _ in range(width)])
    tautologies = 0
    for lits in lists:
        expected = reference_normalize(lits)
        assert normalize_clause(lits) == expected
        assert normalize_clause(tuple(lits)) == expected
        tautologies += expected[1]
    assert 100 < tautologies < len(lists) - 100
    for lits in ([0], [1, 0, -1], [3, 0]):
        with pytest.raises(ValueError):
            normalize_clause(lits)


def test_parsed_formula_equals_clause_by_clause_construction():
    rng = random.Random(99)
    for _ in range(100):
        num_vars = rng.randint(1, 9)
        raw = [[rng.choice((-1, 1)) * rng.randint(1, num_vars)
                for _ in range(rng.randint(0, 5))] for _ in range(rng.randint(0, 15))]
        text = f"p cnf {num_vars} {len(raw)}\n" + "".join(
            " ".join(map(str, lits + [0])) + "\n" for lits in raw)
        expected = CnfFormula(num_vars=num_vars)
        for lits in raw:
            clause, taut = reference_normalize(lits)
            if not taut:
                expected.add_clause(clause)
        formula = parse_dimacs(text)
        formula.check_integrity()
        assert formula == expected


@pytest.fixture
def normalize_calls(monkeypatch):
    """Counts ``normalize_clause`` calls made through any module that
    imports it."""
    calls = []

    def counting(lits):
        calls.append(lits)
        return normalize_clause(lits)

    for module in (cnfkit.formula, cnfkit.encode, cnfkit.io.dimacs):
        monkeypatch.setattr(module, "normalize_clause", counting)
    return calls


@pytest.mark.parametrize("encoding", ["tst", "pg"])
def test_encode_normalizes_each_written_clause_once(tmp_path, normalize_calls,
                                                    encoding):
    """At most one ``normalize_clause`` call per gate clause written: none
    for a gate whose variables are all distinct, whose rows are canonical
    once sorted, and one per row, tautologies included, for a gate with a
    repeated child.  Constraint units are single literals and need none.
    The parity circuits have no repeated children."""
    source, target = tmp_path / "in.bc", tmp_path / "out.cnf"
    rng = random.Random(31)
    for gates in (40, 120):
        circuit = parity_circuit(rng, gates)
        source.write_text(write_circuit(circuit))
        del normalize_calls[:]
        assert main(["encode", str(source), str(target),
                     "--encoding", encoding]) == 0
        written = int(target.read_text().split("\n", 1)[0].split()[3])
        assert written > len(circuit.constraints)
        assert normalize_calls == []
    # rows per repeated-child gate, tst then pg (where only the positive
    # side of each is needed): AND(x, x) 2+1, XOR(y, y) 2+2, ITE(c, c, e)
    # 2+2 and IMPLY(a, a) 1+2; four of the 14 are tautologies
    source.write_text("BC1.1\nga := AND(x, x);\ngx := XOR(y, y);\n"
                      "gi := ITE(c, c, e);\ngm := IMPLY(a, a);\n"
                      "o := OR(ga, gx, gi, gm);\nASSIGN o;\n")
    del normalize_calls[:]
    assert main(["encode", str(source), str(target),
                 "--encoding", encoding]) == 0
    assert len(normalize_calls) == {"tst": 14, "pg": 7}[encoding]


def test_encoders_call_gate_clauses_once_per_encoded_gate(monkeypatch):
    """``tseitin`` asks for each gate's rows once, both sides at a time;
    ``plaisted_greenbaum`` once for each gate with a polarity."""
    calls = []

    def counting(circuit, name, vm, pol):
        calls.append(name)
        return gate_clauses(circuit, name, vm, pol)

    monkeypatch.setattr(cnfkit.encode, "gate_clauses", counting)
    rng = random.Random(12)
    for _ in range(50):
        circuit = normalize_circuit(random_circuit(rng))
        del calls[:]
        tseitin(circuit)
        assert sorted(calls) == sorted(circuit.gates)
        del calls[:]
        plaisted_greenbaum(circuit)
        assert sorted(calls) == sorted(n for n, p in polarity(circuit).items()
                                       if p)


def test_parse_normalizes_each_clause_once(normalize_calls):
    circuit = normalize_circuit(parity_circuit(random.Random(5), 80))
    text = write_dimacs(tseitin(circuit)[0])
    del normalize_calls[:]
    parsed = parse_dimacs(text)
    assert len(normalize_calls) == len(parsed.clauses) > 0


def traced(fn):
    """Run fn() under tracemalloc: (result, peak bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("encoding", ["tst", "pg"])
def test_encode_peak_memory(tmp_path, encoding):
    """Each gate's clauses become text as they are made, so one `encode`
    of a 2,400-gate parity circuit holds no clause list of the whole
    formula, nor one line string per clause, and peaks below 2 MB."""
    source, target = tmp_path / "in.bc", tmp_path / "out.cnf"
    source.write_text(write_circuit(parity_circuit(random.Random(7), 2400)))
    argv = ["encode", str(source), str(target), "--encoding", encoding]
    assert main(argv) == 0  # the first call's set-up stays out of the trace
    code, peak = traced(lambda: main(argv))
    assert code == 0
    assert peak < 2.0 * (1 << 20)
