"""Reconstruction stack: ordered witnesses that repair a model of a reduced
formula into a model of the original.

Two entry kinds exist.  A *clause entry* is a tuple of ``(lits, witness)``
steps, each a clause snapshot in canonical order that contains its witness
literal; replay walks the steps in reverse and flips the witness to true
whenever its snapshot is falsified.  A *variable entry* (``VarEntry``) carries
an eliminated variable with its saved clauses; replay picks any value for the
variable that satisfies all of them.

Text format (one entry per line group, entries in push order):

    e v <var> <n> <lits...> 0 <lits...> 0      eliminated variable, n clauses
    e c <k>                                    clause entry with k steps
    s <witness> <lits...> 0                    one step line, k times
"""

from dataclasses import dataclass, field

from .formula import clause_satisfied, normalize_clause

__all__ = [
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
class VarEntry:
    var: int
    saved: tuple[tuple[int, ...], ...]


def _clauses(tokens):
    """Integer tokens ``<lits...> 0 <lits...> 0`` as a list of clauses."""
    clauses, cur = [], []
    for tok in tokens:
        lit = int(tok)
        if lit:
            cur.append(lit)
        else:
            clauses.append(tuple(cur))
            cur = []
    if cur:
        raise ValueError("clause not terminated by 0")
    return clauses


@dataclass
class ReconstructionStack:
    entries: list = field(default_factory=list)

    def push_clause(self, steps):
        """steps: iterable of (lits, witness); each witness occurs in its
        snapshot, which is stored in canonical order."""
        entry = []
        for lits, witness in steps:
            lits, _ = normalize_clause(lits)
            if witness not in lits:
                raise ValueError(f"witness {witness} not in snapshot {lits}")
            entry.append((lits, witness))
        if not entry:
            raise ValueError("clause entry needs at least one step")
        self.entries.append(tuple(entry))

    def push_var(self, var, saved):
        if var < 1:
            raise ValueError(f"bad variable {var}")
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
                lines.append(f"e c {len(entry)}")
                for lits, witness in entry:
                    parts = ["s", str(witness)]
                    parts.extend(str(l) for l in lits)
                    parts.append("0")
                    lines.append(" ".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "ReconstructionStack":
        """Parse ``to_text`` output; every entry goes through ``push_var`` or
        ``push_clause``, so a parsed stack obeys the same rules as a pushed
        one."""
        stack = cls()
        lines = ((n, line.split()) for n, line
                 in enumerate(text.splitlines(), 1) if line.strip())
        for n, tokens in lines:
            try:
                if tokens[:2] == ["e", "v"] and len(tokens) >= 4:
                    saved = _clauses(tokens[4:])
                    if len(saved) != int(tokens[3]):
                        raise ValueError(f"{len(saved)} clauses, "
                                         f"{tokens[3]} announced")
                    stack.push_var(int(tokens[2]), saved)
                elif tokens[:2] == ["e", "c"] and len(tokens) == 3:
                    steps = []
                    for _ in range(int(tokens[2])):
                        n, tokens = next(lines, (n, []))
                        lits = _clauses(tokens[2:])
                        if tokens[:1] != ["s"] or len(lits) != 1:
                            raise ValueError("expected one step line "
                                             "'s <witness> <lits...> 0'")
                        steps.append((lits[0], int(tokens[1])))
                    stack.push_clause(steps)
                else:
                    raise ValueError("expected 'e v <var> <n> <clauses...>' "
                                     "or 'e c <k>'")
            except ValueError as exc:
                raise StackFormatError(f"stack line {n}: {exc}") from None
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
        if isinstance(entry, VarEntry):
            for value in (False, True):
                assign[entry.var] = value
                if all(clause_satisfied(c, assign) for c in entry.saved):
                    break
            else:
                raise ReconstructionError(
                    f"no value of {entry.var} satisfies its saved clauses")
        else:
            for lits, witness in reversed(entry):
                if not clause_satisfied(lits, assign):
                    assign[abs(witness)] = witness > 0
    return assign
