"""Reconstruction stack: ordered witnesses that repair a model of a reduced
formula into a model of the original.

Two entry kinds exist.  A *clause entry* carries witness steps, each a clause
snapshot paired with a witness literal; replay walks the steps in reverse and
flips the witness to true whenever its snapshot is falsified.  A *variable
entry* carries an eliminated variable with its saved clauses; replay picks any
value for the variable that satisfies all of them.

Text format (one entry per line group, entries in push order):

    e v <var> <n> <lits...> 0 <lits...> 0      eliminated variable, n clauses
    e c <k>                                    clause entry with k steps
    s <witness> <lits...> 0                    one step line, k times
"""

from dataclasses import dataclass, field

from .formula import clause_satisfied, lit_key

__all__ = [
    "WitnessStep",
    "ClauseEntry",
    "VarEntry",
    "ReconstructionStack",
    "ReconstructionError",
    "StackFormatError",
    "reconstruct_model",
]


class ReconstructionError(Exception):
    """An eliminated-variable entry could not be satisfied (implementation bug)."""


class StackFormatError(Exception):
    pass


@dataclass(frozen=True)
class WitnessStep:
    lits: tuple[int, ...]
    witness: int


@dataclass(frozen=True)
class ClauseEntry:
    steps: tuple[WitnessStep, ...]


@dataclass(frozen=True)
class VarEntry:
    var: int
    saved: tuple[tuple[int, ...], ...]


@dataclass
class ReconstructionStack:
    entries: list = field(default_factory=list)

    def push_clause(self, steps):
        """steps: iterable of (lits, witness); each witness occurs in its snapshot."""
        packed = []
        for lits, witness in steps:
            lits = tuple(sorted(lits, key=lit_key))
            if witness not in lits:
                raise ValueError(f"witness {witness} not in snapshot {lits}")
            packed.append(WitnessStep(lits, witness))
        if not packed:
            raise ValueError("clause entry needs at least one step")
        self.entries.append(ClauseEntry(tuple(packed)))

    def push_var(self, var, saved):
        self.entries.append(VarEntry(var, tuple(tuple(c) for c in saved)))

    def __len__(self):
        return len(self.entries)

    def to_text(self) -> str:
        lines = []
        for entry in self.entries:
            if isinstance(entry, VarEntry):
                parts = ["e", "v", str(entry.var), str(len(entry.saved))]
                for clause in entry.saved:
                    parts.extend(str(l) for l in clause)
                    parts.append("0")
                lines.append(" ".join(parts))
            else:
                lines.append(f"e c {len(entry.steps)}")
                for step in entry.steps:
                    parts = ["s", str(step.witness)]
                    parts.extend(str(l) for l in step.lits)
                    parts.append("0")
                    lines.append(" ".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "ReconstructionStack":
        stack = cls()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        i = 0
        try:
            while i < len(lines):
                tokens = lines[i].split()
                i += 1
                if tokens[:2] == ["e", "v"]:
                    if len(tokens) < 4:
                        raise StackFormatError(
                            f"short variable entry: {lines[i-1]!r}")
                    var, count = int(tokens[2]), int(tokens[3])
                    if var < 1:
                        raise StackFormatError(f"bad variable {var}")
                    saved, cur = [], []
                    for tok in tokens[4:]:
                        lit = int(tok)
                        if lit == 0:
                            saved.append(tuple(cur))
                            cur = []
                        else:
                            cur.append(lit)
                    if cur or len(saved) != count:
                        raise StackFormatError(
                            "unterminated or miscounted clauses")
                    stack.entries.append(VarEntry(var, tuple(saved)))
                elif tokens[:2] == ["e", "c"]:
                    if len(tokens) < 3:
                        raise StackFormatError(
                            f"short clause entry: {lines[i-1]!r}")
                    count = int(tokens[2])
                    if count < 1:
                        raise StackFormatError(
                            f"clause entry needs at least one step: {count}")
                    steps = []
                    for _ in range(count):
                        if i >= len(lines):
                            raise StackFormatError("missing step line")
                        stoks = lines[i].split()
                        i += 1
                        if len(stoks) < 3 or stoks[0] != "s" or stoks[-1] != "0":
                            raise StackFormatError(
                                f"malformed step: {lines[i-1]!r}")
                        witness = int(stoks[1])
                        lits = tuple(int(t) for t in stoks[2:-1])
                        if witness not in lits:
                            raise StackFormatError(
                                f"witness {witness} not in its snapshot")
                        steps.append(WitnessStep(lits, witness))
                    stack.entries.append(ClauseEntry(tuple(steps)))
                else:
                    raise StackFormatError(f"unknown entry line: {lines[i-1]!r}")
        except ValueError as exc:
            raise StackFormatError(f"bad token: {exc}") from None
        return stack


def reconstruct_model(stack: ReconstructionStack, model: dict,
                      original_num_vars: int) -> dict:
    """Repair a model of the reduced formula into one of the original.

    Entries replay in reverse push order; unassigned variables default to
    false.  Raises ReconstructionError if a variable entry cannot be
    satisfied, which indicates a preprocessing bug.
    """
    assign = {v: False for v in range(1, original_num_vars + 1)}
    assign.update(model)
    for entry in reversed(stack.entries):
        if isinstance(entry, ClauseEntry):
            for step in reversed(entry.steps):
                if not clause_satisfied(step.lits, assign):
                    assign[abs(step.witness)] = step.witness > 0
        else:
            for value in (False, True):
                assign[entry.var] = value
                if all(clause_satisfied(c, assign) for c in entry.saved):
                    break
            else:
                raise ReconstructionError(
                    f"no value of {entry.var} satisfies its saved clauses")
    return assign
