"""Output checks that do not rely on the code under test.

The benchmark parses DIMACS, evaluates clauses, replays reconstruction
stacks and runs unit propagation with the code below, never with cnfkit's
own parser, evaluator, reconstruction or propagation.
"""

from collections import defaultdict


class Failed(Exception):
    """An instance gave a wrong exit code or failed a check."""


def parse_dimacs(text):
    """(num_vars, clauses) of a DIMACS text; the header counts must match."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("c")]
    if not lines or not lines[0].startswith("p cnf "):
        raise Failed("missing `p cnf` header")
    _, _, nv, nc = lines[0].split()
    num_vars, num_clauses = int(nv), int(nc)
    clauses, current = [], []
    for tok in " ".join(lines[1:]).split():
        lit = int(tok)
        if lit == 0:
            clauses.append(current)
            current = []
        elif abs(lit) > num_vars:
            raise Failed(f"literal {lit} above {num_vars} variables")
        else:
            current.append(lit)
    if current or len(clauses) != num_clauses:
        raise Failed(f"header declares {num_clauses} clauses, "
                           f"found {len(clauses)}")
    return num_vars, clauses


def satisfied(clause, model):
    return any(model.get(abs(l), False) == (l > 0) for l in clause)


def satisfies(clauses, model):
    return all(satisfied(c, model) for c in clauses)


def model_from_solver_output(text):
    """Model from `s SATISFIABLE` / `v ... 0` lines, or None when unsat."""
    return read_model(text) if "s SATISFIABLE" in text else None


def read_model(text):
    """Assignment given by the `v` lines of a text."""
    model = {}
    for line in text.splitlines():
        if line.startswith("v"):
            for tok in line.split()[1:]:
                lit = int(tok)
                if lit:
                    model[abs(lit)] = lit > 0
    return model


def model_text(model):
    """One canonical `v` line; used for model files and output digests."""
    lits = [v if model[v] else -v for v in sorted(model)]
    return "v " + " ".join(map(str, lits)) + " 0\n"


def replay_stack(text, model, num_vars):
    """Repair a model of a reduced formula from a reconstruction-stack text:
    entries replay in reverse push order; a clause step whose snapshot is
    falsified sets its witness literal true; an eliminated variable takes the
    first value (false, then true) satisfying its saved clauses."""
    entries = []
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    i = 0
    while i < len(lines):
        tokens = lines[i]
        i += 1
        if tokens[:2] == ["e", "v"]:
            saved, current = [], []
            for tok in tokens[4:]:
                lit = int(tok)
                if lit:
                    current.append(lit)
                else:
                    saved.append(current)
                    current = []
            if len(saved) != int(tokens[3]):
                raise Failed(f"variable entry miscounted: {tokens}")
            entries.append(("v", int(tokens[2]), saved))
        elif tokens[:2] == ["e", "c"]:
            steps = []
            for _ in range(int(tokens[2])):
                step = lines[i]
                i += 1
                steps.append((int(step[1]), [int(t) for t in step[2:-1]]))
            entries.append(("c", steps))
        else:
            raise Failed(f"unknown stack line {tokens}")
    assign = {v: False for v in range(1, num_vars + 1)}
    assign.update(model)
    for entry in reversed(entries):
        if entry[0] == "c":
            for witness, lits in reversed(entry[1]):
                if not satisfied(lits, assign):
                    assign[abs(witness)] = witness > 0
        else:
            _, var, saved = entry
            for value in (False, True):
                assign[var] = value
                if satisfies(saved, assign):
                    break
            else:
                raise Failed(f"no value of {var} satisfies its clauses")
    return assign


def propagate(clauses, assumptions):
    """Unit propagation from the assumptions; returns the assignment, or None
    on a conflict."""
    assign = dict(assumptions)
    watch = defaultdict(list)
    for idx, clause in enumerate(clauses):
        for lit in clause:
            watch[-lit].append(idx)
    queue = list(range(len(clauses)))
    pending = set(queue)
    while queue:
        idx = queue.pop()
        pending.discard(idx)
        free = None
        count = 0
        for lit in clauses[idx]:
            value = assign.get(abs(lit))
            if value is None:
                free, count = lit, count + 1
            elif value == (lit > 0):
                break
        else:
            if count == 0:
                return None
            if count == 1:
                assign[abs(free)] = free > 0
                for other in watch[free]:
                    if other not in pending:
                        pending.add(other)
                        queue.append(other)
    return assign
