"""Deterministic work counts: calls that a pass makes, counted by wrapping
the function it calls, and the memory a variable scan allocates.  A count
reads the same on every host and every run, so growth shows up even when
timings are noisy."""

import random
import tracemalloc

import pytest

import cnfkit.circuit
import cnfkit.elim
import cnfkit.encode
import cnfkit.formula
import cnfkit.io.bcformat
from cnfkit.circuit import (AND, EQUIV, INPUT, NOT, OR, XOR, Circuit,
                            CycleError, mir_reduce, normalize_circuit,
                            simplify_fixpoint, validate)
from cnfkit.cli import main
from cnfkit.encode import tseitin
from cnfkit.formula import (CnfFormula, bounded_variable_elim,
                            failed_literal_probe, pure_literal_elim)
from cnfkit.io import parse_circuit, parse_dimacs, write_circuit
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
    """The reader checks nothing; each pass checks its own input.  tst: the
    parsed circuit (by normalize_circuit) and the normalized one (by
    build_varmap).  pg with simplification: the parsed circuit (by
    simplify_fixpoint), the simplified one (by normalize_circuit) and the
    normalized one, however many MIR rounds run."""
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


@pytest.fixture
def pass_calls(monkeypatch):
    """Calls simplify_fixpoint makes to each pass, by function name."""
    calls = dict.fromkeys(("coi_reduce", "nsi_reduce", "_mir"), 0)
    for name in calls:
        def counting(circuit, name=name,
                     function=getattr(cnfkit.circuit, name)):
            calls[name] += 1
            return function(circuit)
        monkeypatch.setattr(cnfkit.circuit, name, counting)
    return calls


@pytest.mark.parametrize("passes", [("coi", "nsi", "mir"), ("coi", "nsi")])
def test_simplify_fixpoint_without_folds_runs_one_cycle(pass_calls, passes):
    """MIR fixes nothing under a parity constraint, so one cycle is the
    fixpoint.  The commit before this test ran a second cycle to confirm."""
    circuit = parity_circuit(random.Random(3), 60)
    _, fixed = simplify_fixpoint(circuit, passes)
    assert fixed == {}
    assert pass_calls == {"coi_reduce": 1, "nsi_reduce": 1,
                          "_mir": int("mir" in passes)}


@pytest.mark.parametrize("func, value", [(OR, True), (AND, False)])
def test_simplify_fixpoint_after_a_fold_runs_two_cycles(pass_calls, func,
                                                        value):
    """MIR fixes x and folds the constant through o; the second cycle's COI
    drops o and its MIR fixes nothing.  The commit before this test ran a
    third cycle to confirm."""
    c = Circuit()
    for name in ("x", "y", "w"):
        c.add_input(name)
    # y and w stay shared and occur in both polarities
    c.add_gate("a", XOR, ("y", "w"))
    c.add_gate("b", EQUIV, ("y", "w"))
    c.add_gate("o", func, ("x", "a"))
    for name, req in (("a", True), ("b", True), ("o", value)):
        c.add_constraint(name, req)
    simplified, fixed = simplify_fixpoint(c)
    assert fixed == {"x": value}
    assert sorted(simplified.gates) == ["a", "b", "w", "y"]
    assert pass_calls == {"coi_reduce": 2, "nsi_reduce": 2, "_mir": 2}


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


def parity_cnf(n):
    return tseitin(normalize_circuit(parity_circuit(random.Random(n + 1), n)))[0]


# checks that elim._worklist makes per eliminate_blocked run, each technique
# alone on a fresh copy of the Tseitin encoding of
# parity_circuit(random.Random(n + 1), n), as counted at the commit that
# added this test
BLOCKED_CHECKS = {"bce": {200: 1090, 400: 2151, 800: 4575},
                  "hbce": {200: 1518, 400: 3419, 800: 7338},
                  "abce": {200: 1692, 400: 3958, 800: 9211}}


@pytest.mark.parametrize("technique", BLOCKED_CHECKS)
def test_blocked_clause_elimination_work(monkeypatch, technique):
    """The checks grow no faster than they did when this test was written:
    2.5x from 400 to 800 gates (2.13, 2.15 and 2.33 measured).  Counts may
    fall."""
    checks = []
    worklist = cnfkit.elim._worklist

    def counting(formula, stats, check, scan_order=None):
        def counted(cid):
            checks.append(cid)
            return check(cid)
        return worklist(formula, stats, counted, scan_order)

    monkeypatch.setattr(cnfkit.elim, "_worklist", counting)
    function, mode = cnfkit.elim._TECHNIQUES[technique]
    work = {}
    for n, ceiling in BLOCKED_CHECKS[technique].items():
        formula = parity_cnf(n)
        del checks[:]
        function(formula, mode)
        work[n] = len(checks)
        assert 0 < len(checks) <= ceiling
    assert work[800] <= 2.5 * work[400]


# elim._covered calls per eliminate_covered run on the same formulas, as
# counted at the last commit that lowered them
COVERED_CALLS = {"cce": {100: 672, 200: 1167},
                 "hcce": {100: 1031, 200: 2179},
                 "acce": {100: 927, 200: 2460}}


@pytest.mark.parametrize("technique", COVERED_CALLS)
def test_covered_clause_elimination_work(monkeypatch, technique):
    """A kept clause stops at the first step, extension or covered sweep,
    that adds no literal.  The commit that added this test still confirmed
    each kept clause with one more extension and sweep: hcce made 1,744 and
    3,730 calls, acce 1,557 and 4,282.  The next one stopped at the first
    sweep that added nothing, but still swept after an extension that added
    nothing: cce made 921 and 1,579 calls, hcce 1,088 and 2,301, acce 953
    and 2,544.  Counts may fall."""
    calls = []
    covered = cnfkit.elim._covered

    def counting(formula, wset, cid):
        calls.append(cid)
        return covered(formula, wset, cid)

    monkeypatch.setattr(cnfkit.elim, "_covered", counting)
    function, mode = cnfkit.elim._TECHNIQUES[technique]
    for n, ceiling in COVERED_CALLS[technique].items():
        formula = parity_cnf(n)
        del calls[:]
        function(formula, mode)
        assert 0 < len(calls) <= ceiling


# resolvents that formula._resolvents yields to bounded_variable_elim(f, 0)
# on the same formulas, as counted at the commit that added this test
VE_RESOLVENTS = {200: 6291, 400: 12622, 800: 24783}


def test_bounded_variable_elim_work(monkeypatch):
    """The resolvents grow no faster than they did when this test was
    written: 2.5x from 400 to 800 gates (1.96 measured).  Counts may
    fall."""
    yielded = []
    resolvents = cnfkit.formula._resolvents

    def counting(*args):
        for merged in resolvents(*args):
            yielded.append(merged)
            yield merged

    monkeypatch.setattr(cnfkit.formula, "_resolvents", counting)
    work = {}
    for n, ceiling in VE_RESOLVENTS.items():
        formula = parity_cnf(n)
        del yielded[:]
        bounded_variable_elim(formula, 0)
        work[n] = len(yielded)
        assert 0 < len(yielded) <= ceiling
    assert work[800] <= 2.5 * work[400]

# A header may declare far more variables than occur, and a variable scan
# costs what occurs.  Before the commit that added these tests, PL and VE
# queued every declared variable (a tracemalloc peak of 90 MB here, against
# 2 KB after), and FLE scanned them all again after each learned unit (2.2
# million occ_ids calls here, against 170 after).
SPARSE = "p cnf 1000000 2\n1 2 0\n-1 2 0\n"


@pytest.mark.parametrize("technique, left", [(pure_literal_elim, []),
                                             (bounded_variable_elim, [(2,)])],
                         ids=["pl", "ve"])
def test_variable_scan_memory_follows_occurring_variables(technique, left):
    formula = parse_dimacs(SPARSE)
    tracemalloc.start()
    try:
        technique(formula)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(formula.clauses.values()) == left
    assert peak < 64_000


def test_reconstruct_memory_follows_read_variables(tmp_path, capsys):
    """``verify --reconstruct`` gives defaults to the variables that the
    check and the replay read, not to every declared one (a tracemalloc
    peak of 85 MB here before the commit that added this test)."""
    original, reduced, stack, model = (tmp_path / name for name in
                                       ("f.cnf", "g.cnf", "g.stack", "m"))
    original.write_text(SPARSE)
    model.write_text("v 0\n")
    assert main(["prep", str(original), str(reduced), "--stack", str(stack),
                 "--techniques", ",".join(cnfkit.elim._TECHNIQUES)]) == 0
    assert reduced.read_text() == "p cnf 0 0\n"
    args = ["verify", "--reconstruct", str(stack), str(model), str(original)]
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "c reconstruction ok\n"
    assert peak < 64_000


def test_failed_literal_probe_scan_follows_occurring_variables(monkeypatch):
    """Ten failed literals at the top of 100,000 declared variables: each
    pair (-x y) (-x -y) fails x, and the learned unit satisfies both."""
    top = 100_000
    pairs = [(top - 2 * i - 1, top - 2 * i) for i in range(10)]
    formula = CnfFormula(top, [c for x, y in pairs for c in ((-x, y), (-x, -y))])
    calls = []
    occ_ids = CnfFormula.occ_ids

    def counting(self, lit):
        calls.append(lit)
        return occ_ids(self, lit)

    monkeypatch.setattr(CnfFormula, "occ_ids", counting)
    _, learned = failed_literal_probe(formula)
    assert learned == [-x for x, _ in sorted(pairs)]
    assert len(calls) <= 1_000
