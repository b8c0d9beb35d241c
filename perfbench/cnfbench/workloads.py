"""The three workloads.

Each workload builds its seeded inputs, runs one instance as a sequence of
cnfkit command lines through a runner from `commands` (plain or traced),
names the output files that the digest covers, and checks an instance's
outputs with the benchmark's own code.
"""

import json
import os

from . import check, gen
from .check import Failed
from .bench import ELIM_TECHNIQUES, FORMULA_TECHNIQUES

TECHNIQUES = ELIM_TECHNIQUES + FORMULA_TECHNIQUES
MAX_VARS = 20                   # the oracle's default bound
PREP_ORDER = ("fle", "els", "te", "se", "bce", "hbce", "abce", "ve")
SIMPLIFY = "coi,nsi,mir"


class Instance:
    def __init__(self, index, label, inputs, known):
        self.index = index
        self.label = label
        self.inputs = inputs      # file name -> text
        self.known = known        # whatever the checks need


def _read(path):
    with open(path) as handle:
        return handle.read()


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def _expect(result, allowed, what):
    code, out = result
    if code not in allowed:
        raise Failed(f"{what} exited {code}")
    return code, out


class Workload:
    def prime(self, d, cmd):
        """One-off work of the first use in a process, timed on its own
        before the passes; none by default."""


# --- prep_circuit ---------------------------------------------------------

class PrepCircuit(Workload):
    """Tseitin CNFs of seeded AND/OR/XOR/NOT/ITE circuits, 40-80 gates,
    through `prep` with the clause-elimination order, then reconstruction of
    a known model of each output."""

    name = "prep_circuit"
    count = 102
    covers = {
        "reduced CNF": "the known circuit model, restricted to the output's "
                       "variables, satisfies it",
        "reconstruction stack": "replayed by the benchmark on that model, the "
                                "repaired model satisfies the input",
        "stats document": "removed - added = clauses_before - clauses_after, "
                          "and both counts match the files",
    }

    def sizes(self, count):
        """Evenly spread.  Cost grows about as gates^2.5 here, so sizes stop
        at 80 for one pass to take a few seconds, and a run to hold several
        passes; 102 instances leave 10 beyond the 90th percentile."""
        return [round(40 + 40 * i / max(1, count - 1)) for i in range(count)]

    def build(self, seed, count):
        instances = []
        for i, gates in enumerate(self.sizes(count)):
            rng = gen.rng_for(seed, self.name, i)
            circuit = gen.random_circuit(rng, gates, gen.PREP_FUNCS)
            num_vars, clauses, var_of = gen.tseitin_clauses(circuit)
            model = {var_of[n]: v for n, v in circuit.values.items()}
            instances.append(Instance(
                i, f"{i:03d} ({gates} gates)",
                {f"{i:03d}.cnf": gen.dimacs_text(num_vars, clauses)}, model))
        return instances

    def _paths(self, d, inst):
        stem = os.path.join(d.out, f"{inst.index:03d}")
        return (os.path.join(d.inp, f"{inst.index:03d}.cnf"), stem + ".cnf",
                stem + ".stack", stem + ".stats.json", stem + ".model")

    def outputs(self, d, inst):
        return self._paths(d, inst)[1:3]

    def _write_model(self, inst, out, model_path):
        """Known model restricted to the variables the output mentions."""
        _, clauses = check.parse_dimacs(_read(out))
        mentioned = {abs(l) for c in clauses for l in c}
        _write(model_path, check.model_text(
            {v: inst.known[v] for v in mentioned}))

    def run(self, d, inst, cmd):
        inp, out, stack, stats, model = self._paths(d, inst)
        _expect(cmd(["prep", inp, out, "--techniques", ",".join(PREP_ORDER),
                     "--stack", stack, "--stats", stats]), (0,), "prep")
        self._write_model(inst, out, model)
        _expect(cmd(["verify", "--reconstruct", stack, model, inp]), (0,),
                "verify --reconstruct")
        return [0, 0]

    def check(self, d, inst):
        inp, out, stack, stats, model_path = self._paths(d, inst)
        num_vars, original = check.parse_dimacs(_read(inp))
        _, reduced = check.parse_dimacs(_read(out))
        if not check.satisfies(reduced, inst.known):
            raise Failed("known model does not satisfy the reduced CNF")
        model = check.read_model(_read(model_path))
        repaired = check.replay_stack(_read(stack), model, num_vars)
        if not check.satisfies(original, repaired):
            raise Failed("repaired model does not satisfy the input")
        doc = json.loads(_read(stats))
        removed = sum(t["clauses_removed"] for t in doc["techniques"].values())
        added = sum(t["clauses_added"] for t in doc["techniques"].values())
        if (removed - added != doc["clauses_before"] - doc["clauses_after"]
                or doc["clauses_before"] != len(original)
                or doc["clauses_after"] != len(reduced)):
            raise Failed("stats counters do not match the size change")
        return [reduced]


# --- verify_small ---------------------------------------------------------

class VerifySmall(Workload):
    """Random CNFs of 1-20 variables, each through all 16 techniques one at
    a time, with an oracle verdict on the input and every output and a
    reconstruction of every satisfiable output's model."""

    name = "verify_small"
    count = 110     # 11 beyond the 90th percentile; ~50 command lines each
    ratios = (1.0, 1.6, 2.2, 2.8, 3.4, 4.0, 4.3)
    covers = {
        "input": "the oracle model satisfies it",
        "reduced CNF (16 per formula)": "its oracle verdict equals the "
                                        "input's; its model satisfies it",
        "reconstruction stack (16 per formula)": "replayed by the benchmark "
                                                 "on the output model, the "
                                                 "repaired model satisfies "
                                                 "the input",
    }

    def build(self, seed, count):
        instances = []
        for i in range(count):
            num_vars = 1 + i % MAX_VARS
            ratio = self.ratios[i % len(self.ratios)]
            num_clauses = max(1, round(ratio * num_vars))
            rng = gen.rng_for(seed, self.name, i)
            clauses = gen.random_cnf(rng, num_vars, num_clauses)
            instances.append(Instance(
                i, f"{i:03d} ({num_vars} vars, {num_clauses} clauses)",
                {f"{i:03d}.cnf": gen.dimacs_text(num_vars, clauses)}, num_vars))
        return instances

    def prime(self, d, cmd):
        """The oracle builds one mask per (variable, variable count) on first
        use and keeps it for the life of the process: seconds for 20
        variables.  Solving one clause over all n variables, for every n up
        to the oracle's bound, pays that once, timed as oracle.masks_s, so
        that the passes measure the oracle's per-call cost."""
        for n in range(1, 1 + MAX_VARS):
            path = os.path.join(d.out, f"prime{n}.cnf")
            _write(path, gen.dimacs_text(n, [list(range(1, n + 1))]))
            cmd(["solve", path, "--oracle"])

    def _input(self, d, inst):
        return os.path.join(d.inp, f"{inst.index:03d}.cnf")

    def _paths(self, d, inst, tid):
        stem = os.path.join(d.out, f"{inst.index:03d}.{tid}")
        return stem + ".cnf", stem + ".stack", stem + ".model"

    def outputs(self, d, inst):
        paths = [os.path.join(d.out, f"{inst.index:03d}.model")]
        for tid in TECHNIQUES:
            out, stack, model = self._paths(d, inst, tid)
            paths += [out, stack]
            if os.path.exists(model):
                paths.append(model)
        return paths

    def _solve(self, cmd, path, model_path, what):
        """Oracle verdict; a model, when there is one, goes to model_path."""
        code, out = _expect(cmd(["solve", path, "--oracle"]), (10, 20), what)
        if code == 10:
            _write(model_path, check.model_text(
                check.model_from_solver_output(out)))
        return code

    def run(self, d, inst, cmd):
        inp = self._input(d, inst)
        codes = [self._solve(cmd, inp, os.path.join(
            d.out, f"{inst.index:03d}.model"), "solve")]
        for tid in TECHNIQUES:
            out, stack, model = self._paths(d, inst, tid)
            code, _ = _expect(cmd(["prep", inp, out, "--techniques", tid,
                                   "--stack", stack]), (0, 20), f"prep {tid}")
            codes.append(code)
            codes.append(self._solve(cmd, out, model, f"solve after {tid}"))
            if codes[-1] == 10:
                _expect(cmd(["verify", "--reconstruct", stack, model, inp]),
                        (0,), f"reconstruct after {tid}")
        return codes

    def check(self, d, inst):
        num_vars, original = check.parse_dimacs(_read(self._input(d, inst)))
        model_path = os.path.join(d.out, f"{inst.index:03d}.model")
        sat = os.path.exists(model_path)
        if sat and not check.satisfies(
                original, check.read_model(_read(model_path))):
            raise Failed("oracle model does not satisfy the input")
        outputs = []
        for tid in TECHNIQUES:
            out, stack, model_path = self._paths(d, inst, tid)
            _, reduced = check.parse_dimacs(_read(out))
            outputs.append(reduced)
            if os.path.exists(model_path) != sat:
                raise Failed(f"{tid}: verdict differs from the input's")
            if not sat:
                continue
            model = check.read_model(_read(model_path))
            if not check.satisfies(reduced, model):
                raise Failed(f"{tid}: oracle model does not satisfy the output")
            repaired = check.replay_stack(_read(stack), model, num_vars)
            if not check.satisfies(original, repaired):
                raise Failed(f"{tid}: repaired model does not satisfy the input")
        return outputs


# --- encode_circuit -------------------------------------------------------

class EncodeCircuit(Workload):
    """BC1.1 circuits over every gate type, through `encode` as tst and as
    pg with COI/NSI/MIR.  A minority are deep OR chains and wide CARD gates;
    the widest CARD gates hit normalize_circuit's recursion limit, and that
    failure is meant to show in the pass ratio."""

    name = "encode_circuit"
    count = 102     # the two widest cards fail: 100 left, 10 beyond p90
    chains = (300, 600, 1000)
    cards = (100, 300, 500, 1500, 2000)
    # (gates, share of the random circuits): small enough that a run holds
    # several passes, so that each instance is timed by its fastest
    levels = ((100, 44), (200, 30), (400, 12), (800, 6), (1200, 2))
    covers = {
        "tst CNF and map": "unit propagation of the known input values "
                           "reaches no conflict and gives every original "
                           "gate its known value",
        "pg CNF and map": "header counts and variable range only; "
                          "simplification keeps satisfiability, not models",
    }

    def shapes(self, count):
        """(kind, size) per instance: chains and wide cards spread evenly
        among random circuits.  Random sizes come in levels rather than a
        continuum, so that the median and the 90th percentile each fall
        inside one level instead of on a steep slope between sizes."""
        special = [("chain", n) for n in self.chains]
        special += [("card", n) for n in self.cards]
        if count < 2 * len(special):    # too small a run: random circuits only
            special = []
        step = count // max(1, len(special))
        shapes = {k * step + step // 2: shape for k, shape in enumerate(special)}
        randoms = [i for i in range(count) if i not in shapes]
        total = sum(n for _, n in self.levels)
        sizes = [size for size, n in self.levels
                 for _ in range(round(n * len(randoms) / total))]
        sizes += [self.levels[-1][0]] * (len(randoms) - len(sizes))
        for i, size in zip(randoms, sizes):
            shapes[i] = ("random", size)
        return [shapes[i] for i in range(count)]

    def build(self, seed, count):
        instances = []
        for i, (kind, size) in enumerate(self.shapes(count)):
            rng = gen.rng_for(seed, self.name, i)
            if kind == "chain":
                circuit = gen.or_chain(rng, size)
            elif kind == "card":
                circuit = gen.wide_card(rng, size)
            else:
                circuit = gen.random_circuit(rng, size, gen.ALL_FUNCS)
            instances.append(Instance(
                i, f"{i:03d} ({kind} {size})",
                {f"{i:03d}.bc": gen.bc_text(circuit)},
                (circuit.values, set(circuit.inputs))))
        return instances

    def _paths(self, d, inst):
        stem = os.path.join(d.out, f"{inst.index:03d}")
        return (os.path.join(d.inp, f"{inst.index:03d}.bc"),
                stem + ".tst.cnf", stem + ".pg.cnf")

    def outputs(self, d, inst):
        _, tst, pg = self._paths(d, inst)
        return [tst, tst + ".map", pg, pg + ".map"]

    def run(self, d, inst, cmd):
        inp, tst, pg = self._paths(d, inst)
        _expect(cmd(["encode", inp, tst, "--encoding", "tst"]), (0,),
                "encode tst")
        _expect(cmd(["encode", inp, pg, "--encoding", "pg",
                     "--simplify", SIMPLIFY]), (0,), "encode pg")
        return [0, 0]

    def check(self, d, inst):
        values, inputs = inst.known
        _, tst, pg = self._paths(d, inst)
        _, clauses = check.parse_dimacs(_read(tst))
        var_of = json.loads(_read(tst + ".map"))["vars"]
        assign = check.propagate(clauses, {
            var_of[n]: values[n] for n in var_of if n in inputs})
        if assign is None:
            raise Failed("tst: known inputs propagate to a conflict")
        for name, var in var_of.items():
            if name in values and assign.get(var) != values[name]:
                raise Failed(f"tst: gate {name} does not propagate to its value")
        num_vars, pg_clauses = check.parse_dimacs(_read(pg))
        pg_map = json.loads(_read(pg + ".map"))
        if any(not 1 <= v <= num_vars for v in pg_map["vars"].values()):
            raise Failed("pg: map names a variable outside the CNF")
        return [clauses, pg_clauses]


WORKLOADS = {w.name: w for w in (PrepCircuit(), VerifySmall(), EncodeCircuit())}
