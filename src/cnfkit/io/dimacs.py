"""DIMACS CNF reading and writing.

The parser accepts comment lines, a `p cnf <vars> <clauses>` header, and
zero-terminated clauses that may span or share lines.  Clause-count mismatches
are warnings (benchmark files are sloppy) unless strict mode is on; a literal
above the declared variable count is always an error.  Tautological clauses
are dropped and counted.  A line holding only `%` ends the clauses, as in the
SATLIB files that close with `%` and `0` lines.

A model is the `v` text of the SAT competition: `parse_model` reads an
assignment from it and `model_text` writes one.
"""

from dataclasses import dataclass, field

from ..formula import CnfFormula, normalize_clause

__all__ = ["DimacsError", "MalformedHeader", "LiteralOutOfRange",
           "UnterminatedClause", "ParseReport", "parse_dimacs",
           "parse_dimacs_with_report", "write_dimacs", "dimacs_text",
           "parse_model", "model_text"]


class DimacsError(Exception):
    pass


class MalformedHeader(DimacsError):
    pass


class LiteralOutOfRange(DimacsError):
    pass


class UnterminatedClause(DimacsError):
    pass


@dataclass
class ParseReport:
    warnings: list[str] = field(default_factory=list)
    tautologies_dropped: int = 0


def parse_dimacs_with_report(text: str, strict: bool = False):
    """Parse DIMACS text in one pass, each clause line as it comes.  With
    several errors in the input, the first one met is raised."""
    report = ParseReport()
    formula = None
    current: list[int] = []
    count = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped == "%":
            break
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if formula is not None:
                raise MalformedHeader(f"line {lineno}: second header")
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise MalformedHeader(f"line {lineno}: {stripped!r}")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise MalformedHeader(f"line {lineno}: {stripped!r}") from None
            if num_vars < 0 or declared < 0:
                raise MalformedHeader(f"line {lineno}: negative counts")
            formula = CnfFormula(num_vars=num_vars)
            continue
        if formula is None:
            raise MalformedHeader(f"line {lineno}: clause before header")
        for tok in stripped.split():
            try:
                lit = int(tok)
            except ValueError:
                raise UnterminatedClause(f"non-integer token {tok!r}") from None
            if lit == 0:
                clause, taut = normalize_clause(current)
                if taut:
                    report.tautologies_dropped += 1
                else:
                    formula._append(clause)
                current = []
                count += 1
            elif abs(lit) > num_vars:
                raise LiteralOutOfRange(
                    f"literal {lit} exceeds declared {num_vars} variables")
            else:
                current.append(lit)

    if formula is None:
        raise MalformedHeader("missing `p cnf` header")
    if current:
        raise UnterminatedClause("clause not terminated by 0 at end of input")

    if count != declared:
        message = f"header declares {declared} clauses, found {count}"
        if strict:
            raise MalformedHeader(message)
        report.warnings.append(message)
    if report.tautologies_dropped:
        report.warnings.append(
            f"dropped {report.tautologies_dropped} tautological clause(s)")
    return formula, report


def parse_dimacs(text: str, strict: bool = False) -> CnfFormula:
    formula, _ = parse_dimacs_with_report(text, strict)
    return formula


def write_dimacs(formula: CnfFormula) -> str:
    """Canonical text: exact counts, clauses in id order, literals in
    canonical order.  parse(write(f)) reproduces f."""
    return dimacs_text(formula.num_vars, [formula.clauses.values()])


# clause length -> the format of one DIMACS line of that length
_LINE_FORMATS: dict[int, str] = {}


def dimacs_text(num_vars: int, chunks) -> str:
    """DIMACS text of the clauses (tuples of ints) in some chunks, in their
    order and with each clause's literals as given.  Each chunk is turned
    into text as it comes, and the header goes in front at the end."""
    formats = _LINE_FORMATS
    texts = [""]
    count = 0
    for clauses in chunks:
        lines = []
        for clause in clauses:
            fmt = formats.get(len(clause))
            if fmt is None:
                fmt = formats[len(clause)] = "%d " * len(clause) + "0\n"
            lines.append(fmt % clause)
        count += len(lines)
        texts.append("".join(lines))
        del lines  # a chunk's lines go before the final join
    texts[0] = f"p cnf {num_vars} {count}\n"
    return "".join(texts)


def parse_model(text: str) -> dict[int, bool]:
    """Assignment given by a model text.  Blank, `c` and `s` lines are
    skipped, a line may start with `v`, and 0 is ignored; a non-integer
    token or a variable given both values is an error."""
    model: dict[int, bool] = {}
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0][0] in "cs":
            continue
        if tokens[0] == "v":
            del tokens[0]
        for tok in tokens:
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad model token {tok!r}") from None
            if lit and model.setdefault(abs(lit), lit > 0) != (lit > 0):
                raise DimacsError(f"contradictory model literal {lit}")
    return model


def model_text(model: dict[int, bool]) -> str:
    """One `v` line with the literals in variable order, ending in 0."""
    lits = [str(v if model[v] else -v) for v in sorted(model)]
    return "v " + " ".join(lits) + " 0\n"
