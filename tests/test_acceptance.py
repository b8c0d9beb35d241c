"""Acceptance suite: every release criterion at its stated scale, one printed
pass/fail line per criterion (run with -s to see them inline)."""

import itertools
import random
import stat
import time

import pytest

from cnfkit.bench import gen_ephp, gen_php, gen_xor_unsat
from cnfkit.circuit import (circuit_sat, coi_reduce, eval_circuit,
                            normalize_circuit, simplify_fixpoint)
from cnfkit.elim import (ExtensionMode, TechniqueId, eliminate_blocked,
                         eliminate_covered, extend_clause, find_subsumer,
                         is_blocked, is_extended_tautology, is_tautology,
                         run_pipeline)
from cnfkit.encode import build_varmap, plaisted_greenbaum, tseitin
from cnfkit.formula import CnfFormula, satisfies
from cnfkit.io import (parse_circuit, parse_dimacs, run_external_solver,
                       write_circuit, write_dimacs)
from cnfkit.oracle import brute_force_sat
from cnfkit.reconstruct import ReconstructionStack, reconstruct_model
from conftest import parity_circuit, random_circuit, random_formula

NONE, HIDDEN, ASYM = (ExtensionMode.NONE, ExtensionMode.HIDDEN,
                      ExtensionMode.ASYMMETRIC)

FORMULA_SEED = 2024
CIRCUIT_SEED = 515
N_FORMULAS = 10_000
N_CIRCUITS = 1_000


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def formula_corpus():
    rng = random.Random(FORMULA_SEED)
    return [random_formula(rng) for _ in range(N_FORMULAS)]


@pytest.fixture(scope="module")
def circuit_corpus():
    # normalized var counts capped so the oracle can cover the encodings
    rng = random.Random(CIRCUIT_SEED)
    corpus = []
    while len(corpus) < N_CIRCUITS:
        circuit = random_circuit(rng, max_gates=10, max_inputs=6)
        norm = normalize_circuit(circuit)
        if len(norm.gates) <= 20:
            corpus.append((circuit, norm))
    return corpus


def test_equisatisfiability_suite(formula_corpus):
    start = time.perf_counter()
    violations = 0
    recon_checked = recon_failed = 0
    for f in formula_corpus:
        in_sat = brute_force_sat(f) is not None
        for tid in TechniqueId:
            out, stack, _ = run_pipeline(f.copy(), [tid])
            model = brute_force_sat(out)
            if (model is not None) != in_sat:
                violations += 1
                continue
            if model is not None:
                recon_checked += 1
                repaired = reconstruct_model(stack, model, f.num_vars)
                if not satisfies(f, repaired):
                    recon_failed += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert recon_failed == 0
    assert elapsed < 300, f"equisat suite took {elapsed:.0f}s, budget is 300s"
    report("equisatisfiability",
           f"{len(formula_corpus)} formulas x {len(TechniqueId)} techniques, "
           f"0 violations, {recon_checked} reconstructions, {elapsed:.1f}s")


def test_hierarchy_suite(formula_corpus):
    start = time.perf_counter()
    checks = 0
    for f in formula_corpus:
        covered_out = eliminate_covered(f.copy(), NONE,
                                        ReconstructionStack())
        for cid in f.ids():
            base = set(f.clauses[cid])
            hla = set(extend_clause(f, cid, HIDDEN, early_exit=False))
            ala = set(extend_clause(f, cid, ASYM, early_exit=False))
            assert base <= hla <= ala
            if is_tautology(f.clauses[cid]):
                assert is_extended_tautology(f, cid, HIDDEN)
            if is_extended_tautology(f, cid, HIDDEN):
                assert is_extended_tautology(f, cid, ASYM)
            if find_subsumer(f, cid, NONE) is not None:
                assert find_subsumer(f, cid, HIDDEN) is not None
            if find_subsumer(f, cid, HIDDEN) is not None:
                assert find_subsumer(f, cid, ASYM) is not None
            if is_blocked(f, cid, NONE):
                assert is_blocked(f, cid, HIDDEN)
                assert cid not in covered_out.clauses
            checks += 1
    report("hierarchy", f"{checks} clause checks over "
           f"{len(formula_corpus)} formulas, 0 violations, "
           f"{time.perf_counter() - start:.1f}s")


def test_bce_confluence(formula_corpus):
    rng = random.Random(99)
    count = 0
    for f in formula_corpus[:1000]:
        reference = eliminate_blocked(f.copy(), NONE)
        final = dict(reference.clauses)
        for _ in range(5):
            order = f.ids()
            rng.shuffle(order)
            shuffled = eliminate_blocked(f.copy(), NONE, scan_order=order)
            assert dict(shuffled.clauses) == final
        count += 1
    report("bce-confluence", f"{count} formulas x 5 scan orders, identical "
           "final clause sets")


def test_simulation_containment(circuit_corpus):
    start = time.perf_counter()
    recon_checked = recon_failed = 0
    for _, norm in circuit_corpus:
        vm = build_varmap(norm)
        tst, _ = tseitin(norm, vm)
        stack = ReconstructionStack()
        bce = eliminate_blocked(tst.copy(), NONE, stack)
        simplified, _ = simplify_fixpoint(norm)
        pg, _ = plaisted_greenbaum(simplified, vm)
        bce_set = set(bce.clauses.values())
        assert bce_set <= set(pg.clauses.values()), \
            f"containment violated: {sorted(bce_set - set(pg.clauses.values()))}"

        # every gate outside the cone of influence loses all its clauses
        deleted = set(norm.gates) - set(coi_reduce(norm).gates)
        deleted_vars = {vm.var(name) for name in deleted}
        for clause in bce_set:
            assert deleted_vars.isdisjoint(abs(l) for l in clause)

        model = brute_force_sat(bce)
        if model is not None:
            recon_checked += 1
            repaired = reconstruct_model(stack, model, tst.num_vars)
            if not satisfies(tst, repaired):
                recon_failed += 1
    assert recon_failed == 0
    report("simulation-containment",
           f"{len(circuit_corpus)} circuits, 0 violations, "
           f"{recon_checked} reconstructions, {time.perf_counter() - start:.1f}s")


def test_simulation_containment_at_scale():
    """The containment above is a set comparison and needs no oracle, so it
    runs here on circuits far past the oracle's reach: random circuits of up
    to 30-200 gates over up to 6-60 inputs, and deep parity circuits of
    100-800 gates."""
    start = time.perf_counter()
    rng = random.Random(CIRCUIT_SEED + 1)
    circuits = [random_circuit(rng, max_gates=rng.randint(30, 200),
                               max_inputs=rng.randint(6, 60))
                for _ in range(200)]
    circuits += [parity_circuit(random.Random(n + 1), n)
                 for n in (100, 200, 400, 800)]
    large = 0
    for circuit in circuits:
        norm = normalize_circuit(circuit)
        large += len(norm.gates) > 20
        vm = build_varmap(norm)
        tst, _ = tseitin(norm, vm)
        bce_set = set(eliminate_blocked(tst, NONE).clauses.values())
        simplified, _ = simplify_fixpoint(norm)
        pg, _ = plaisted_greenbaum(simplified, vm)
        assert bce_set <= set(pg.clauses.values()), \
            f"containment violated: {sorted(bce_set - set(pg.clauses.values()))}"
    report("simulation-containment-at-scale",
           f"{len(circuits)} circuits, {large} over 20 normalized gates, "
           f"0 violations, {time.perf_counter() - start:.1f}s")


def test_encoding_correctness(circuit_corpus):
    start = time.perf_counter()
    for circuit, norm in circuit_corpus:
        expected = circuit_sat(norm) is not None
        full, vm = tseitin(norm)
        pg, _ = plaisted_greenbaum(norm, vm)
        assert (brute_force_sat(full) is not None) == expected
        assert (brute_force_sat(pg) is not None) == expected
        assert set(pg.clauses.values()) <= set(full.clauses.values())

        names = sorted(circuit.inputs())
        for bits in itertools.product((False, True), repeat=len(names)):
            assign = dict(zip(names, bits))
            vals_in = eval_circuit(circuit, assign)
            vals_out = eval_circuit(norm, assign)
            for name, value in vals_in.items():
                if name in vals_out:
                    assert value == vals_out[name]
            ok_in = all(vals_in[n] == r for n, r in circuit.constraints)
            ok_out = all(vals_out[n] == r for n, r in norm.constraints)
            assert ok_in == ok_out
    report("encoding-correctness",
           f"{len(circuit_corpus)} circuits, oracle agreement and clause "
           f"containment, {time.perf_counter() - start:.1f}s")


def test_reconstruction_suite():
    # dedicated multi-technique pipelines over a fresh corpus; satisfiable
    # instances must reconstruct to models of the original, without exception
    rng = random.Random(77)
    orders = (
        ["els", "hte", "ase", "hbce", "acce", "pl", "fle", "ve"],
        ["bce", "cce", "se", "te"],
        ["fle", "els", "ve", "abce", "hcce"],
    )
    checked = 0
    for _ in range(3000):
        f = random_formula(rng)
        for order in orders:
            out, stack, _ = run_pipeline(f.copy(), order)
            model = brute_force_sat(out)
            if model is None:
                assert brute_force_sat(f) is None
                continue
            repaired = reconstruct_model(stack, model, f.num_vars)
            assert satisfies(f, repaired)
            checked += 1
    report("reconstruction", f"{checked} repaired models, 100% satisfy the "
           "original")


def test_benchmark_families():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        f = gen_php(n)
        assert len(f.clauses) == (n + 1) + n * (n + 1) * n // 2
        assert brute_force_sat(f) is None
    php4 = time.perf_counter() - start
    assert php4 < 60, f"php(4) oracle took {php4:.0f}s"

    assert brute_force_sat(gen_ephp(2)) is None
    for n in range(2, 16):
        f = gen_xor_unsat(n)
        assert len(f.clauses) == 2 * n
        assert (brute_force_sat(f) is None) == (n % 2 == 1)
    report("benchmark-families",
           f"php 1-4 unsat ({php4:.1f}s), ephp(2) unsat, xor parity law "
           "n<=15, clause counts exact")


def test_io_round_trips(tmp_path):
    rng = random.Random(31337)
    for _ in range(1000):
        f = random_formula(rng)
        text = write_dimacs(f)
        assert write_dimacs(parse_dimacs(text)) == text
    for _ in range(1000):
        c = random_circuit(rng)
        text = write_circuit(c)
        assert write_circuit(parse_circuit(text)) == text

    shapes = {
        "sat": 'echo "s SATISFIABLE"\necho "v 1 -2 0"\nexit 10\n',
        "unsat": 'echo "s UNSATISFIABLE"\nexit 20\n',
        "slow": "sleep 10\n",
    }
    stubs = {}
    for name, body in shapes.items():
        path = tmp_path / f"{name}.sh"
        path.write_text("#!/bin/sh\n" + body)
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        stubs[name] = str(path)
    f = CnfFormula(clauses=[[1, -2]])
    assert run_external_solver(stubs["sat"], f).status == "sat"
    assert run_external_solver(stubs["sat"], f).model == {1: True, 2: False}
    assert run_external_solver(stubs["unsat"], f).status == "unsat"
    slow = run_external_solver(stubs["slow"], f, timeout=0.2)
    assert slow.status == "unknown" and slow.reason == "timeout"
    report("io", "1000 DIMACS + 1000 circuit round-trips byte-identical, "
           "solver stubs classified")
