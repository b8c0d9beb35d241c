"""CNF core: clauses, occurrence-indexed formulas, and the base simplifications.

Literals are nonzero ints in the DIMACS convention: variable ``v`` is the
positive literal, ``-v`` its negation.  Clauses are duplicate-free tuples in
canonical order (ascending variable, positive phase first).  A formula is a
clause *multiset*: each clause has a stable integer id, and two clauses with
identical literals are distinct members.
"""

import heapq
from itertools import islice
from operator import neg

__all__ = [
    "lit_key",
    "normalize_clause",
    "clause_satisfied",
    "satisfies",
    "CnfFormula",
    "propagate",
    "bcp",
    "failed_literal_probe",
    "pure_literal_elim",
    "equivalent_literal_substitution",
    "substitute_equivalent_literals",
    "bounded_variable_elim",
]


def lit_key(lit: int):
    """Canonical sort key: 1 < -1 < 2 < -2 < ..."""
    return (abs(lit), lit < 0)


def normalize_clause(lits) -> tuple[tuple[int, ...], bool]:
    """Deduplicate and sort a raw literal list.

    Returns ``(clause, is_tautology)``; complementary pairs are kept in the
    clause, the flag just reports their presence.
    """
    seen = set(lits)
    if 0 in seen:
        raise ValueError("0 is not a literal")
    if seen.isdisjoint(map(neg, seen)):
        # no complementary pair: the variables are distinct, so ``abs`` is
        # already a complete order and agrees with ``lit_key``
        return tuple(sorted(seen, key=abs)), False
    return tuple(sorted(seen, key=lit_key)), True


def clause_satisfied(lits, assign: dict) -> bool:
    return any(assign.get(abs(l)) == (l > 0) for l in lits)


def satisfies(formula, assign: dict) -> bool:
    """True iff the (total enough) assignment satisfies every clause."""
    return all(clause_satisfied(c, assign) for c in formula.clauses.values())


class CnfFormula:
    """Clause multiset with an always-consistent literal occurrence index and
    an index of the clauses with at most one literal."""

    __slots__ = ("clauses", "occ", "short", "num_vars", "_next_id")

    def __init__(self, num_vars: int = 0, clauses=None):
        self.clauses: dict[int, tuple[int, ...]] = {}
        self.occ: dict[int, set[int]] = {}
        self.short: set[int] = set()
        self.num_vars = num_vars
        self._next_id = 0
        for c in clauses or ():
            self.add_clause(c)

    def add_clause(self, lits) -> int:
        return self._append(normalize_clause(lits)[0])

    def _append(self, clause: tuple[int, ...]) -> int:
        """Add a clause that is already canonical (as ``normalize_clause``
        returns it), without normalizing it again."""
        cid = self._next_id
        self._next_id += 1
        self._attach(cid, clause)
        # canonical order puts the largest variable last
        if clause and abs(clause[-1]) > self.num_vars:
            self.num_vars = abs(clause[-1])
        return cid

    def remove_clause(self, cid: int) -> tuple[int, ...]:
        clause = self.clauses.pop(cid)
        self._detach(cid, clause)
        return clause

    def replace_clause(self, cid: int, lits):
        """Swap a clause's literals in place, keeping its id."""
        clause, _ = normalize_clause(lits)
        self._detach(cid, self.clauses[cid])
        self._attach(cid, clause)

    def _attach(self, cid, clause):
        self.clauses[cid] = clause
        for l in clause:
            self.occ.setdefault(l, set()).add(cid)
        if len(clause) <= 1:
            self.short.add(cid)

    def _detach(self, cid, clause):
        for l in clause:
            ids = self.occ[l]
            ids.discard(cid)
            if not ids:
                del self.occ[l]
        self.short.discard(cid)

    def occ_ids(self, lit: int) -> set[int]:
        return self.occ.get(lit, set())

    def ids(self) -> list[int]:
        # ids are assigned monotonically, so insertion order is ascending
        return list(self.clauses)

    @property
    def has_empty_clause(self) -> bool:
        return any(not self.clauses[cid] for cid in self.short)

    def max_mentioned_var(self) -> int:
        return max((abs(l) for c in self.clauses.values() for l in c), default=0)

    def clause_multiset(self):
        return tuple(sorted(self.clauses.values()))

    def copy(self) -> "CnfFormula":
        f = CnfFormula.__new__(CnfFormula)
        f.clauses = dict(self.clauses)
        f.occ = {l: set(ids) for l, ids in self.occ.items()}
        f.short = set(self.short)
        f.num_vars = self.num_vars
        f._next_id = self._next_id
        return f

    def check_integrity(self):
        """Rebuild the occurrence and short-clause indexes from scratch and
        compare."""
        occ: dict[int, set[int]] = {}
        for cid, clause in self.clauses.items():
            assert clause == tuple(sorted(set(clause), key=lit_key))
            for l in clause:
                occ.setdefault(l, set()).add(cid)
        assert occ == self.occ, "occurrence index out of sync"
        assert self.short == {cid for cid, c in self.clauses.items()
                              if len(c) <= 1}, "short-clause index out of sync"
        assert self.num_vars >= self.max_mentioned_var()
        ids = list(self.clauses)
        assert ids == sorted(ids)

    def __eq__(self, other):
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and list(self.clauses.values()) == list(other.clauses.values()))

    def __repr__(self):
        return f"CnfFormula(num_vars={self.num_vars}, clauses={list(self.clauses.values())})"


def propagate(formula: CnfFormula, false_lits, exclude=None, binary_only=False,
              early_exit=True):
    """Close a set of false literals under unit propagation.

    A clause whose literals are all false but one, ``u``, makes ``u`` true:
    ``-u`` joins the set.  A clause whose literals are all false is a
    conflict.  Returns ``(false set, conflict)``; a complementary pair among
    ``false_lits`` is a conflict too.  The clause with id ``exclude`` is
    ignored, and ``binary_only`` restricts the search to binary clauses.

    With ``early_exit`` the search stops at the first conflict, after adding
    the complement of a literal of the conflicting clause, so the set holds a
    complementary pair (an empty clause is the one conflict without one).
    Without it the result is the least fixpoint, carried on past conflicts:
    a conflicting clause adds the complement of each of its literals.

    Given the literals of a clause C of F and C's id as ``exclude``, this is
    unit propagation of the negation of C over F without C, which is hidden
    literal addition with ``binary_only`` and asymmetric literal addition
    without (Heule, Jarvisalo and Biere, *Clause Elimination Procedures for
    CNF Formulas*, LPAR 2010).

    Each clause keeps a count of its literals taken off the queue, so a
    clause is looked at only through the occurrences of false literals;
    unit and empty clauses come from the formula's short-clause index.
    """
    clauses, occ = formula.clauses, formula.occ
    false = set(false_lits)
    conflict = any(-l in false for l in false)
    if conflict and early_exit:
        return false, True
    queue = list(false)
    if not binary_only:
        for cid in formula.short:
            if cid == exclude:
                continue
            clause = clauses[cid]
            if not clause:
                if early_exit:
                    return false, True
                conflict = True
            elif clause[0] not in false and -clause[0] not in false:
                false.add(-clause[0])
                queue.append(-clause[0])
    count: dict[int, int] = {}
    while queue:
        lit = queue.pop()
        for cid in occ.get(lit, ()):
            if cid == exclude:
                continue
            clause = clauses[cid]
            size = len(clause)
            if binary_only and size != 2:
                continue
            seen = count.get(cid, 0) + 1
            count[cid] = seen
            if seen == size - 1:
                # the literal not dequeued yet; if it is false already, the
                # conflict is taken when it is dequeued
                for u in clause:
                    if u not in false:
                        if -u not in false:
                            false.add(-u)
                            queue.append(-u)
                        break
            elif seen == size:
                if early_exit:
                    false.add(-lit)
                    return false, True
                conflict = True
                for u in clause:
                    if -u not in false:
                        false.add(-u)
                        queue.append(-u)
    return false, conflict


def bcp(formula: CnfFormula, assumptions=()) -> dict | None:
    """Unit propagation to fixpoint from the unit clauses and the assumed
    literals.  Returns the propagated assignment, or None on conflict."""
    false, conflict = propagate(formula, [-l for l in assumptions])
    return None if conflict else {abs(l): l < 0 for l in false}


def _apply_assignment(formula: CnfFormula, assign: dict):
    """Apply a top-level assignment: drop satisfied clauses, strip false
    literals, and keep one unit clause per assigned variable (so the result
    stays logically equivalent).

    Only the clauses of assigned variables are visited, in ascending id
    order, as a scan of the whole formula would reach them; every occurrence
    set then sees the same sequence of additions and removals, so its later
    iteration order is the same too.
    """
    ids = set()
    for var in assign:
        ids.update(formula.occ_ids(var))
        ids.update(formula.occ_ids(-var))
    for cid in sorted(ids):
        clause = formula.clauses[cid]
        if clause_satisfied(clause, assign):
            formula.remove_clause(cid)
        else:
            formula.replace_clause(cid, [l for l in clause if abs(l) not in assign])
    for var in sorted(assign):
        formula.add_clause([var if assign[var] else -var])


def failed_literal_probe(formula: CnfFormula):
    """Probe every literal; any literal whose assumption propagates to a
    conflict yields its negation as a learned unit, which is then applied.

    Probes run in the order 1, -1, 2, -2, ... over the occurring variables
    and restart after each learned unit.  Returns ``(formula, learned_units)``;
    an unsatisfiable formula comes back containing the empty clause.
    """
    if formula.has_empty_clause:
        raise ValueError("formula already contains the empty clause")
    learned: list[int] = []
    # the top-level closure; once applied, unit propagation on the rewritten
    # formula gives back exactly this assignment, so it is carried forward
    assign = bcp(formula)
    dirty = _DirtyVars(formula)
    for var in dirty:
        if assign is None:
            break
        if var in assign or not (formula.occ_ids(var) or formula.occ_ids(-var)):
            continue
        for lit in (var, -var):
            if propagate(formula, (-lit,))[1]:
                learned.append(-lit)
                formula.add_clause([-lit])
                assign = bcp(formula)
                if assign is not None:
                    _apply_assignment(formula, assign)
                # a probe reads the whole formula: check every variable again
                dirty.touch(formula.clauses.values())
                break
    if assign is None:
        formula.add_clause([])
    elif assign:
        _apply_assignment(formula, assign)
    return formula, learned


class _DirtyVars:
    """Variables to check again, taken smallest first: at the start, those
    that occur in ``formula``, whatever its declared variable count.

    Iterating yields the smallest dirty variable and marks it clean;
    ``touch`` marks the variables of some clauses dirty again.  A procedure
    whose check of a variable reads only that variable's occurrence lists
    touches the variables of every clause it adds or removes: a clean
    variable's lists are then unchanged since its last failed check, so it
    still fails, and the variable yielded is the smallest that qualifies.
    A variable in no clause fails such a check until a clause adds it.
    """

    def __init__(self, formula: CnfFormula):
        self.heap = sorted({abs(l) for l in formula.occ})
        self.queued = set(self.heap)

    def __iter__(self):
        while self.heap:
            var = heapq.heappop(self.heap)
            self.queued.discard(var)
            yield var

    def touch(self, clauses):
        for clause in clauses:
            for l in clause:
                var = abs(l)
                if var not in self.queued:
                    self.queued.add(var)
                    heapq.heappush(self.heap, var)


def pure_literal_elim(formula: CnfFormula, stack=None) -> CnfFormula:
    """Remove all clauses of literals whose complement never occurs, pushing
    each removed clause with the pure literal as its repair witness.

    Order contract: each step takes the smallest variable that occurs in
    one phase only and removes that literal's clauses in id order, as a
    restart at variable 1 after every pure literal would.  Only the
    variables of the removed clauses are checked again.
    """
    dirty = _DirtyVars(formula)
    for var in dirty:
        pos, neg = formula.occ_ids(var), formula.occ_ids(-var)
        if bool(pos) == bool(neg):
            continue
        pure = var if pos else -var
        removed = [formula.remove_clause(cid)
                   for cid in sorted(formula.occ_ids(pure))]
        if stack is not None:
            for clause in removed:
                stack.push_clause([(clause, pure)])
        dirty.touch(removed)
    return formula


def _scc_tarjan(formula: CnfFormula) -> list[list[int]]:
    """Strongly connected components of the binary implication graph, where
    a binary clause (a or b) gives the edges -a -> b and -b -> a.  Iterative
    Tarjan (*Depth-first search and linear graph algorithms*, SIAM J.
    Comput. 1972) reading the edges of ``lit`` off the occurrences of
    ``-lit``.  Every literal of a component with two or more members has an
    incoming edge, so it occurs in the formula and is one of the roots."""
    clauses, occ = formula.clauses, formula.occ

    def successors(lit):
        for cid in occ.get(-lit, ()):
            clause = clauses[cid]
            if len(clause) == 2:
                yield clause[1] if clause[0] == -lit else clause[0]

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []

    for root in occ:
        if root in index:
            continue
        work = [(root, successors(root))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, successors(succ)))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(comp)
    return sccs


def equivalent_literal_substitution(formula: CnfFormula):
    """Collapse strongly connected components of the implication graph onto a
    canonical representative (smallest variable, positive phase preferred).

    Returns ``(formula, substitution)``.  If some literal shares a component
    with its own negation the formula is unsatisfiable; the empty clause is
    added and the substitution is empty.  After substitution, tautologies are
    dropped and duplicate clauses merge down to their lowest id.
    """
    subst: dict[int, int] = {}
    for comp in _scc_tarjan(formula):
        members = set(comp)
        if any(-l in members for l in members):
            formula.add_clause([])
            return formula, {}
        if len(members) < 2:
            continue
        rep = min(members, key=lit_key)
        for l in members:
            if l != rep:
                subst[l] = rep
                subst[-l] = -rep
    if not subst:
        return formula, {}

    seen: dict[tuple, int] = {}
    for cid in formula.ids():
        clause, taut = normalize_clause(
            [subst.get(l, l) for l in formula.clauses[cid]])
        if taut:
            formula.remove_clause(cid)
            continue
        if clause != formula.clauses[cid]:
            formula.replace_clause(cid, clause)
        if clause in seen:
            formula.remove_clause(cid)
        else:
            seen[clause] = cid
    return formula, subst


def substitute_equivalent_literals(formula: CnfFormula, stack=None) -> CnfFormula:
    """Repeat equivalent-literal substitution until no component collapses.
    Each substituted variable is pushed with the two binary clauses that tie
    it to its representative, which repair its value."""
    while True:
        _, subst = equivalent_literal_substitution(formula)
        if not subst:
            return formula
        if stack is None:
            continue
        for var in sorted({abs(l) for l in subst}):
            rep = subst[var]
            stack.push_var(var, [tuple(sorted((-var, rep), key=lit_key)),
                                 tuple(sorted((var, -rep), key=lit_key))])


def _resolvents(formula, var, pos_ids, neg_ids):
    """The non-tautological resolvents on ``var``, in (pos_ids, neg_ids)
    id order."""
    for pid in pos_ids:
        pc = formula.clauses[pid]
        for nid in neg_ids:
            merged = set(pc).union(formula.clauses[nid])
            merged.discard(var)
            merged.discard(-var)
            if merged.isdisjoint(map(neg, merged)):
                yield merged


def bounded_variable_elim(formula: CnfFormula, growth_bound: int = 0,
                          stack=None) -> CnfFormula:
    """Eliminate variables by resolution whenever the non-tautological
    resolvent count stays within the occurrence count plus ``growth_bound``.

    Order contract: each step eliminates the smallest variable that
    qualifies, as a restart at variable 1 after every elimination would.
    Only the variables of the clauses an elimination removed are checked
    again; no other variable's occurrence lists changed.  Resolvent
    generation stops as soon as the count passes the bound.

    The variable's original clauses go onto the reconstruction stack; the
    eliminated variable is later assigned any value satisfying them.
    """
    if growth_bound < 0:
        raise ValueError("growth_bound must be >= 0")
    dirty = _DirtyVars(formula)
    for var in dirty:
        pos = sorted(formula.occ_ids(var))
        neg = sorted(formula.occ_ids(-var))
        # single-phase variables are pure-literal territory, not resolution
        if not pos or not neg:
            continue
        limit = len(pos) + len(neg) + growth_bound
        resolvents = list(islice(_resolvents(formula, var, pos, neg), limit + 1))
        if len(resolvents) > limit:
            continue
        saved = [formula.remove_clause(cid) for cid in sorted(set(pos) | set(neg))]
        if stack is not None:
            stack.push_var(var, saved)
        for merged in resolvents:
            formula.add_clause(merged)
        if formula.has_empty_clause:
            return formula
        dirty.touch(saved)
    return formula
