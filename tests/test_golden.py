"""Golden outputs: `prep` must keep writing byte-identical CNF and stack text.

Each of the 16 techniques runs alone, and the circuit preprocessing order
runs as a whole, over a fixed corpus: small benchmark families, seeded random
formulas and Tseitin encodings of seeded random circuits.  The digests are
the SHA-256 of every output in corpus order; a change that alters any output
of a technique changes that technique's digest, and the counters each
technique reports on those runs have one digest of their own.  Every stack
text those runs write must parse back to the same text.  The circuit
preprocessing order also runs over a few larger satisfiable circuits, big
enough for blocked clause elimination to need four rounds or more.  `encode`
must keep writing byte-identical CNF and variable maps, with the full
encoding and with the polarity-restricted one after COI, NSI and MIR, over
seeded random circuits of every gate type, deep satisfiable circuits, OR
chains and a wide cardinality gate.
"""

import functools
import hashlib
import random

import pytest

from cnfkit.bench import gen_ephp, gen_php, gen_xor_unsat
from cnfkit.circuit import CARD, Circuit, normalize_circuit
from cnfkit.cli import main
from cnfkit.elim import PipelineConfig, run_pipeline
from cnfkit.encode import tseitin
from cnfkit.io import parse_dimacs, write_circuit, write_dimacs
from cnfkit.reconstruct import ReconstructionStack
from conftest import or_chain, parity_circuit, random_circuit, random_formula

GOLDEN = {
    "te":
        "16f6712cc77f906d427923effb1e890385aa3381b6fe9106fdcb765a558fdee3",
    "hte":
        "987fdaca00697284826b852a7ec68a5aa8d085ed6113990991125489c847b3af",
    "ate":
        "4ae91a5a22ed3958c7d7082bafb14523298f43cd4b08c7a9c71ef718bf3fa2e0",
    "se":
        "bb91ece18d38832a69e9820c1837da72cd56a574903e7e646b0675a745c06990",
    "hse":
        "57894931c8a0334ef49e5fd6fdd7042e8a443491a9b33d255c4e3c218533d103",
    "ase":
        "e77521f505bb7b3385f9a7d9b8cfbbf30bb5a8b942250cc38b8ce2d8881b548a",
    "bce":
        "9c0eecd386c04316de2aac591eef80ff51cbb160d4587a86133f3b50a52a31f0",
    "hbce":
        "1c3fb079374f870e5158e02e748f41b5761c5b3ee9e651cab84d33a08a0d4eb3",
    "abce":
        "7798cbecd94496de9f92c207e595aa7bd9bf1947846788bd8777410674351e97",
    "cce":
        "b2ee45cff0ebb9c4b7e6b90541d74f8504fed6e9f252199c93e54e1f6b3992ea",
    "hcce":
        "4b862a9b3ec0beb9ec27b6be348a7d60f5ab49fb229b262198ff8463fac37559",
    "acce":
        "fa1cf5b8ad7521c853940989a2565d6e156309735c0adeb5a9f1c6d31aec86da",
    "pl":
        "281c984ca14065a0783bbfdddc017c41e9126d2ce145bcb74beac1a9c11fad01",
    "fle":
        "1b427bda74f1ac19592e1a4fd0db3b4afc142e8592def202a7091a9bcc5bd8b3",
    "els":
        "50d633a658a7629ad32e018dd1f9c9599b0f93733c3376150c3df34f4e76eeab",
    "ve":
        "ffd8313dc50ac4410512ba2bb800826656513d18bfab6c6bc61ebd245e45c5e2",
    "fle,els,te,se,bce,hbce,abce,ve":
        "c940cd5bbd17fc4c993c6bb762f3c6c97ac4417860d3a86eb8b19ee176710c75",
}

PREP_ORDER = "fle,els,te,se,bce,hbce,abce,ve"

LARGE_GOLDEN = \
    "334ec26463d6150a3469d641df8522a27a3b44e9c4dac3fa64b17aee3571b5d9"


def corpus():
    texts = [write_dimacs(f) for f in (gen_php(3), gen_ephp(3), gen_xor_unsat(5))]
    rng = random.Random(2010)
    texts += [write_dimacs(random_formula(rng, max_vars=8, max_clauses=24))
              for _ in range(36)]
    rng = random.Random(5202)
    texts += [write_dimacs(tseitin(normalize_circuit(random_circuit(rng)))[0])
              for _ in range(36)]
    return texts


def large_corpus():
    rng = random.Random(2024)
    return [write_dimacs(tseitin(normalize_circuit(parity_circuit(rng, gates)))[0])
            for gates in (200, 260, 320)]


ENCODE_GOLDEN = {
    "tst":
        "35e607f2eb8d8d45a0e2e2772e714fb27b9dd17d396daa331438916ca7ff0fab",
    "pg --simplify coi,nsi,mir":
        "701139b8103258de4264d984c1537ca083fa0a4f7847f6745aa88dc9a7aa74a7",
}


def encode_corpus():
    rng = random.Random(1107)
    circuits = [random_circuit(rng, max_gates=60, max_inputs=16)
                for _ in range(24)]
    circuits += [parity_circuit(rng, gates)
                 for gates in (40, 80, 120, 160, 200, 240)]
    circuits += [or_chain(300), or_chain(600, False)]
    card = Circuit()
    card.add_gate("card", CARD, [card.add_input(f"w{i}") for i in range(300)],
                  1, 2)
    card.add_constraint("card")
    circuits.append(card)
    return [write_circuit(c) for c in circuits]


CORPUS = tuple(corpus())
LARGE_CORPUS = tuple(large_corpus())
ENCODE_CORPUS = encode_corpus()


@functools.cache
def prep_outputs(techniques, corpus=CORPUS):
    """What `cnfkit prep --techniques TECHNIQUES --stack` writes for each
    corpus text, as (CNF text, stack text) pairs."""
    outputs = []
    for text in corpus:
        formula, stack, _ = run_pipeline(parse_dimacs(text),
                                         techniques.split(","),
                                         PipelineConfig())
        formula.num_vars = formula.max_mentioned_var()
        outputs.append((write_dimacs(formula), stack.to_text()))
    return tuple(outputs)


def prep_digest(techniques, corpus=CORPUS):
    """What `cnfkit prep --techniques TECHNIQUES --stack` writes, hashed."""
    digest = hashlib.sha256()
    for cnf_text, stack_text in prep_outputs(techniques, corpus):
        digest.update(cnf_text.encode())
        digest.update(b"--\n")
        digest.update(stack_text.encode())
        digest.update(b"==\n")
    return digest.hexdigest()


@pytest.mark.parametrize("techniques", sorted(GOLDEN))
def test_prep_output_is_unchanged(techniques):
    assert prep_digest(techniques) == GOLDEN[techniques]


@pytest.mark.parametrize("techniques", sorted(GOLDEN))
def test_stack_text_round_trips(techniques):
    """Every stack the pipeline writes parses back to the same text."""
    for _, stack_text in prep_outputs(techniques):
        stack = ReconstructionStack.from_text(stack_text)
        assert stack.to_text() == stack_text


def test_prep_output_is_unchanged_on_large_circuits():
    assert prep_digest(PREP_ORDER, LARGE_CORPUS) == LARGE_GOLDEN


COUNTER_GOLDEN = \
    "be88c49b15334da7db5ccb19af101c4b75e121ec0f654f77da5c09b58789ca04"


def counter_digest():
    """The counters of every technique in every run behind `GOLDEN`, hashed."""
    digest = hashlib.sha256()
    for techniques in sorted(GOLDEN):
        for text in CORPUS:
            _, _, report = run_pipeline(parse_dimacs(text), techniques.split(","),
                                        PipelineConfig())
            for name, s in report.techniques.items():
                digest.update(repr((name, s.clauses_removed, s.clauses_added,
                                    s.literals_added, s.rounds)).encode())
            digest.update(b"==\n")
    return digest.hexdigest()


def test_technique_counters_are_unchanged():
    assert counter_digest() == COUNTER_GOLDEN


def encode_digest(tmp_path, options):
    """What `cnfkit encode --encoding OPTIONS` writes, CNF then map, hashed."""
    digest = hashlib.sha256()
    source, target = tmp_path / "in.bc", tmp_path / "out.cnf"
    for text in ENCODE_CORPUS:
        source.write_text(text)
        assert main(["encode", str(source), str(target),
                     "--encoding", *options.split()]) == 0
        digest.update(target.read_bytes())
        digest.update(b"--\n")
        digest.update((tmp_path / "out.cnf.map").read_bytes())
        digest.update(b"==\n")
    return digest.hexdigest()


@pytest.mark.parametrize("options", sorted(ENCODE_GOLDEN))
def test_encode_output_is_unchanged(tmp_path, options):
    assert encode_digest(tmp_path, options) == ENCODE_GOLDEN[options]
