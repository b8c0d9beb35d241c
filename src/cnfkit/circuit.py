"""Boolean circuits: acyclic typed gate graphs with output constraints.

Gate ids are names (strings).  A circuit pairs a gate map with a list of
(gate, required value) constraints.  Satisfiability means some assignment to
the input gates makes every constrained gate evaluate to its required value.
"""

import heapq
import itertools
from dataclasses import dataclass

from .oracle import DEFAULT_BOUND, BoundExceeded

TRUE = "T"
FALSE = "F"
INPUT = "input"
NOT = "NOT"
AND = "AND"
OR = "OR"
XOR = "XOR"
EVEN = "EVEN"
EQUIV = "EQUIV"
IMPLY = "IMPLY"
ITE = "ITE"
CARD = "CARD"

# function -> (least, most) children, most None for unbounded.  Each name is
# its BC1.1 spelling; inputs have no BC1.1 definition.
FUNCS = {TRUE: (0, 0), FALSE: (0, 0), INPUT: (0, 0), NOT: (1, 1),
         AND: (1, None), OR: (1, None), XOR: (1, None), EVEN: (1, None),
         EQUIV: (1, None), IMPLY: (2, 2), ITE: (3, 3), CARD: (1, None)}

POS = 1
NEG = 2
BOTH = POS | NEG


class CircuitError(Exception):
    pass


class CycleError(CircuitError):
    pass


class ArityError(CircuitError):
    pass


class DuplicateDefinition(CircuitError):
    pass


class UndefinedGateError(CircuitError):
    pass


@dataclass(frozen=True, slots=True)
class Gate:
    func: str
    children: tuple[str, ...] = ()
    lo: int | None = None
    hi: int | None = None


class Circuit:
    def __init__(self):
        self.gates: dict[str, Gate] = {}
        self.constraints: list[tuple[str, bool]] = []

    def add_gate(self, name, func, children=(), lo=None, hi=None):
        if name in self.gates:
            raise DuplicateDefinition(f"gate {name!r} defined twice")
        if func not in FUNCS:
            raise CircuitError(f"unknown gate function {func!r}")
        self.gates[name] = Gate(func, tuple(children), lo, hi)
        return name

    def add_input(self, name):
        return self.add_gate(name, INPUT)

    def add_constraint(self, name, value=True):
        self.constraints.append((name, bool(value)))

    def inputs(self):
        return [n for n, g in self.gates.items() if g.func == INPUT]

    def parent_index(self):
        parents: dict[str, list] = {n: [] for n in self.gates}
        for name, gate in self.gates.items():
            for pos, child in enumerate(gate.children):
                parents.setdefault(child, []).append((name, pos))
        return parents

    def copy(self):
        c = Circuit()
        c.gates = dict(self.gates)
        c.constraints = list(self.constraints)
        return c

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.gates == other.gates and self.constraints == other.constraints

    def __repr__(self):
        return f"Circuit({len(self.gates)} gates, {len(self.constraints)} constraints)"


def validate(circuit: Circuit):
    """Check arities, references, and acyclicity.  Returns a deterministic
    topological order with children before parents."""
    parents: dict[str, list] = {n: [] for n in circuit.gates}
    pending = {}
    for name, gate in circuit.gates.items():
        if gate.func not in FUNCS:
            raise CircuitError(f"unknown gate function {gate.func!r}")
        lo_a, hi_a = FUNCS[gate.func]
        n = len(gate.children)
        if n < lo_a or (hi_a is not None and n > hi_a):
            raise ArityError(f"gate {name!r}: {gate.func} with {n} children")
        if gate.func == CARD:
            if gate.lo is None or gate.hi is None or not 0 <= gate.lo <= gate.hi:
                raise ArityError(f"gate {name!r}: bad card bounds "
                                 f"{gate.lo}..{gate.hi}")
        for child in gate.children:
            if child not in circuit.gates:
                raise UndefinedGateError(f"gate {name!r} references "
                                         f"undefined {child!r}")
            parents[child].append(name)
        pending[name] = n
    for name, _ in circuit.constraints:
        if name not in circuit.gates:
            raise UndefinedGateError(f"constraint references undefined {name!r}")

    ready = [n for n, k in pending.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        # the smallest ready name first, for determinism
        name = heapq.heappop(ready)
        order.append(name)
        for parent in parents[name]:
            pending[parent] -= 1
            if pending[parent] == 0:
                heapq.heappush(ready, parent)
    if len(order) != len(circuit.gates):
        stuck = min(n for n in circuit.gates if pending[n] > 0)
        # walk into the cycle to name a gate actually on it
        seen = []
        node = stuck
        while node not in seen:
            seen.append(node)
            node = next(ch for ch in circuit.gates[node].children
                        if pending.get(ch, 0) > 0)
        raise CycleError(f"gate {node!r} lies on a cycle")
    return order


def _gate_value(gate: Gate, vals):
    if gate.func == TRUE:
        return True
    if gate.func == FALSE:
        return False
    if gate.func == NOT:
        return not vals[0]
    if gate.func == AND:
        return all(vals)
    if gate.func == OR:
        return any(vals)
    if gate.func == XOR:
        return sum(vals) % 2 == 1
    if gate.func == EVEN:
        return sum(vals) % 2 == 0
    if gate.func == EQUIV:
        return all(v == vals[0] for v in vals)
    if gate.func == IMPLY:
        return (not vals[0]) or vals[1]
    if gate.func == ITE:
        return vals[1] if vals[0] else vals[2]
    # CARD: the one function left, since ``validate`` rejects unknown ones
    return gate.lo <= sum(vals) <= gate.hi


def eval_circuit(circuit: Circuit, input_assign: dict) -> dict:
    """Value of every gate under a total input assignment."""
    return _evaluate(circuit, validate(circuit), input_assign)


def _evaluate(circuit, order, input_assign):
    """Gate values along a topological order from ``validate``."""
    values: dict[str, bool] = {}
    for name in order:
        gate = circuit.gates[name]
        if gate.func == INPUT:
            if name not in input_assign:
                raise ValueError(f"input {name!r} not assigned")
            values[name] = bool(input_assign[name])
        else:
            values[name] = _gate_value(gate, [values[c] for c in gate.children])
    return values


def circuit_sat(circuit: Circuit, bound: int = DEFAULT_BOUND):
    """Exhaustive search over input assignments; first satisfying assignment
    in binary counting order (first input least significant), else None."""
    order = validate(circuit)
    names = sorted(circuit.inputs())
    if len(names) > bound:
        raise BoundExceeded(f"{len(names)} inputs exceeds bound {bound}")
    for k in range(1 << len(names)):
        assign = {n: bool((k >> i) & 1) for i, n in enumerate(names)}
        values = _evaluate(circuit, order, assign)
        if all(values[n] == req for n, req in circuit.constraints):
            return assign
    return None


def _flip(pol):
    return ((pol & POS) and NEG) | ((pol & NEG) and POS)


def _child_marks(gate: Gate, p: int):
    """The polarity marks a gate of polarity ``p`` passes to each child
    occurrence: NOT flips, AND/OR pass through, IMPLY flips its antecedent,
    parity/equivalence/cardinality force both, ITE forces both on the
    condition and passes through to the branches."""
    func, kids = gate.func, gate.children
    if func in (AND, OR):
        return [(child, p) for child in kids]
    if func in (XOR, EVEN, EQUIV, CARD):
        return [(child, BOTH) for child in kids]
    if func == NOT:
        return [(kids[0], _flip(p))]
    if func == IMPLY:
        return [(kids[0], _flip(p)), (kids[1], p)]
    if func == ITE:
        return [(kids[0], BOTH), (kids[1], p), (kids[2], p)]
    return []


def polarity(circuit: Circuit) -> dict[str, int]:
    """Least polarity map: constrained-true gates seed +, constrained-false
    seed -, and marks flow to children as ``_child_marks`` says.  Marks only
    grow, so a worklist reaches the least map with no topological order,
    and a gate is passed on again only when it gains a mark."""
    pol = dict.fromkeys(circuit.gates, 0)
    work = []
    for name, req in circuit.constraints:
        mark = POS if req else NEG
        if not pol[name] & mark:
            pol[name] |= mark
            work.append(name)
    while work:
        name = work.pop()
        for child, marks in _child_marks(circuit.gates[name], pol[name]):
            if marks & ~pol[child]:
                pol[child] |= marks
                work.append(child)
    return pol


def polarity_is_closed(circuit: Circuit, pol: dict) -> bool:
    """Check a candidate polarity map against the propagation rules."""
    for name, req in circuit.constraints:
        if not pol.get(name, 0) & (POS if req else NEG):
            return False
    for name, gate in circuit.gates.items():
        p = pol.get(name, 0)
        if p and any(pol.get(child, 0) & marks != marks
                     for child, marks in _child_marks(gate, p)):
            return False
    return True


def coi_reduce(circuit: Circuit) -> Circuit:
    """Keep exactly the gates reachable from constrained gates."""
    reachable = set()
    stack = sorted({name for name, _ in circuit.constraints})
    while stack:
        name = stack.pop()
        if name in reachable:
            continue
        reachable.add(name)
        stack.extend(circuit.gates[name].children)
    out = Circuit()
    out.gates = {n: g for n, g in circuit.gates.items() if n in reachable}
    out.constraints = list(circuit.constraints)
    return out


def _card_surjective(gate: Gate) -> bool:
    n = len(gate.children)
    return gate.lo <= n and (gate.lo > 0 or gate.hi < n)


def nsi_reduce(circuit: Circuit) -> Circuit:
    """Replace a gate over pairwise-distinct, non-shared, unconstrained free
    inputs by a fresh free input (same id), deleting the consumed inputs.
    Cardinality gates qualify only when their value is not constant.

    A rewrite turns one gate into an input and deletes inputs that only it
    read, so it disables no other candidate and changes no live gate's
    parents: the result does not depend on the order of the rewrites, and
    after one only the rewritten gate's parents need another look."""
    out = circuit.copy()
    parents = out.parent_index()
    constrained = {name for name, _ in out.constraints}
    work = list(out.gates)
    while work:
        name = work.pop()
        gate = out.gates.get(name)  # None once consumed by a rewrite
        if gate is None or gate.func in (INPUT, TRUE, FALSE):
            continue
        kids = gate.children
        if len(set(kids)) != len(kids):
            continue
        if not all(out.gates[c].func == INPUT
                   and len(parents[c]) == 1
                   and c not in constrained
                   for c in kids):
            continue
        if gate.func == CARD and not _card_surjective(gate):
            continue
        for child in kids:
            del out.gates[child]
        out.gates[name] = Gate(INPUT)
        work.extend(parent for parent, _ in parents[name])
    return out


def _lift(func, pos, value):
    """The constant a parent of function ``func`` takes if its child at
    ``pos`` becoming ``value`` collapses it, for the shape-safe folds (child
    removal in AND/OR, NOT flip, IMPLY short-circuit); None where no fold
    applies (ITE branches, parity/equivalence/cardinality positions).  An
    AND/OR collapses to ``value`` when it is absorbing or the last child."""
    if func in (AND, OR):
        return value
    if func == NOT:
        return not value
    if func == IMPLY and value == (pos == 1):
        return True
    return None


def _safe_const(gates, parents, constrained, start, memo):
    """Can gate ``start[0]`` collapse to the constant ``start[1]`` using only
    shape-safe rewrites?  It can when no constraint asks for the other value
    and every parent still holding it can take the constant ``_lift`` gives.
    A memoized walk upward over ``parents`` (which may name gates that have
    since dropped the child) with an explicit stack."""
    stack = [start]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        name, value = key
        ok = all(req == value for req in constrained.get(name, ()))
        ups = []
        for parent, pos in parents[name] if ok else ():
            gate = gates[parent]
            if name in gate.children:
                # conservatively assume the parent may collapse too
                up = _lift(gate.func, pos, value)
                if up is None:
                    ok = False
                    break
                ups.append((parent, up))
        todo = [up for up in ups if up not in memo] if ok else ()
        if todo:
            stack.extend(todo)
            continue
        memo[key] = ok and all(memo[up] for up in ups)
        stack.pop()
    return memo[start]


def mir_reduce(circuit: Circuit):
    """Fix inputs that occur with a single polarity and fold the resulting
    constants through the circuit.  Only shape-safe folds are performed, so an
    input whose constant would land in an unfoldable position is left alone.

    Returns (circuit, fixed_inputs).
    """
    validate(circuit)
    return _mir(circuit)


def _mir(circuit):
    """``mir_reduce`` on a circuit already known to be valid: the upward walk
    in ``_safe_const`` needs an acyclic circuit, and folds keep it valid, so
    one check before the first round covers every later one."""
    out = circuit.copy()
    fixed: dict[str, bool] = {}
    # folds only drop children, so an entry here may be stale, never missing
    parents = out.parent_index()
    while True:
        pol = polarity(out)
        constrained: dict[str, list] = {}
        for name, req in out.constraints:
            constrained.setdefault(name, []).append(req)
        memo: dict = {}
        batch = []
        for name in sorted(out.inputs()):
            if pol[name] in (POS, NEG):
                key = (name, pol[name] == POS)
                if _safe_const(out.gates, parents, constrained, key, memo):
                    batch.append(key)
        if not batch:
            return out, fixed

        queue = list(batch)
        for name, value in batch:
            fixed[name] = value
            del out.gates[name]
        for name, value in queue:  # grows as constants fold upward
            for pname, pos in parents[name]:
                gate = out.gates[pname]
                if name not in gate.children:
                    continue
                const = _lift(gate.func, pos, value)
                if const is None:
                    raise CircuitError(
                        f"constant folded into unfoldable gate {pname!r}")
                if gate.func in (AND, OR) and value != (gate.func == OR):
                    remaining = tuple(c for c in gate.children if c != name)
                    if remaining:
                        out.gates[pname] = Gate(gate.func, remaining)
                        continue
                out.gates[pname] = Gate(TRUE if const else FALSE)
                queue.append((pname, const))
        folded = set(queue)
        out.constraints = [c for c in out.constraints if c not in folded]


def simplify_fixpoint(circuit: Circuit, passes=("coi", "nsi", "mir")):
    """Cycle COI, NSI, and MIR until the circuit stops changing.

    Returns (circuit, fixed_inputs): inputs MIR fixed are folded away from the
    circuit and reported in the sidecar map.  Every pass returns a new
    circuit and leaves its input alone; with no passes the input comes back
    as is.  An unknown pass name is a ValueError, raised after ``validate``.

    COI and NSI each reach their own fixpoint in one call, and NSI deletes
    only inputs that the rewritten gate alone read, so it leaves no gate
    unreachable for COI.  Only a MIR fold can give either more work: the
    cycle stops once MIR fixes no input, or after one cycle without MIR.

    The input is validated once, on entry: no pass can make a valid circuit
    invalid, so the MIR rounds do not check it again.
    """
    validate(circuit)
    for name in passes:
        if name not in ("coi", "nsi", "mir"):
            raise ValueError(f"unknown simplification pass {name!r}")
    current = circuit
    fixed: dict[str, bool] = {}
    while True:
        if "coi" in passes:
            current = coi_reduce(current)
        if "nsi" in passes:
            current = nsi_reduce(current)
        if "mir" not in passes:
            return current, fixed
        current, newly = _mir(current)
        if not newly:
            return current, fixed
        fixed.update(newly)


def normalize_circuit(circuit: Circuit) -> Circuit:
    """Rewrite to the encodable subset: parity gates become binary XOR chains
    (EVEN as NOT of the chain), n-ary EQUIV becomes a conjunction of binary
    comparisons against the first child, and CARD expands through the usual
    if-then-else recursion with memoized subproblems.  Gate values are
    preserved on every input assignment; surviving gates keep their ids.
    Gates are rewritten along the order ``validate`` gives the input, which
    fixes the fresh names, and so the output."""
    order = validate(circuit)
    out = Circuit()
    mapping: dict[str, str] = {}
    taken = set(circuit.gates)
    counter = itertools.count()

    def fresh(base):
        while True:
            name = f"{base}_n{next(counter)}"
            if name not in taken:
                taken.add(name)
                return name

    emit = out.add_gate

    for name in order:
        gate = circuit.gates[name]
        kids = [mapping[c] for c in gate.children]
        func = gate.func
        if func == XOR:
            # over one input the tree is that input: the gate aliases it
            mapping[name] = _xor_tree(kids, emit, fresh, name)
        elif func == EVEN:
            mapping[name] = emit(name, NOT, (_xor_tree(kids, emit, fresh),))
        elif func == EQUIV and len(kids) == 1:
            mapping[name] = emit(name, TRUE)
        elif func == EQUIV and len(kids) > 2:
            pairs = [emit(fresh("eq"), EQUIV, (kids[0], other))
                     for other in kids[1:]]
            mapping[name] = emit(name, AND, pairs)
        elif func == CARD:
            node = _card_node(kids, gate.lo, gate.hi, 0, {}, emit, fresh)
            if node is True or node is False:
                node = emit(name, TRUE if node else FALSE)
            # otherwise the top is an existing node: alias the card gate to it
            mapping[name] = node
        else:
            mapping[name] = emit(name, func, kids)

    for cname, req in circuit.constraints:
        out.add_constraint(mapping[cname], req)
    return out


def _xor_tree(kids, emit, fresh, top_name=None):
    """Balanced chain of binary XOR gates over ``kids``, left half first.
    A module-level function, so no closure refers to itself and keeps the
    normalized circuit in a reference cycle."""
    if len(kids) == 1:
        return kids[0]
    mid = (len(kids) + 1) // 2
    left = _xor_tree(kids[:mid], emit, fresh)
    right = _xor_tree(kids[mid:], emit, fresh)
    return emit(top_name or fresh("xor"), XOR, (left, right))


def _card_node(kids, lo, hi, i, memo, emit, fresh):
    """The node saying that between ``lo`` and ``hi`` of ``kids[i:]`` hold:
    True, False, an existing node, or a new gate.  Shared subproblems come
    from ``memo``, keyed by the bounds clamped to ``[0, len(kids) - i]``.  Module level, like
    ``_xor_tree``, so no closure holds the normalized circuit in a cycle."""
    rem = len(kids) - i
    if hi < 0 or lo > rem:
        return False
    if lo <= 0 and hi >= rem:
        return True
    key = (max(lo, 0), min(hi, rem), i)
    if key in memo:
        return memo[key]
    cond = kids[i]
    then = _card_node(kids, lo - 1, hi - 1, i + 1, memo, emit, fresh)
    other = _card_node(kids, lo, hi, i + 1, memo, emit, fresh)
    # never both True or both False: as lo <= hi, such a node returned above
    if then is True and other is False:
        node = cond
    elif then is False and other is True:
        node = emit(fresh("n"), NOT, (cond,))
    elif then is True:
        node = emit(fresh("o"), OR, (cond, other))
    elif other is True:
        node = emit(fresh("i"), IMPLY, (cond, then))
    elif then is False:
        node = emit(fresh("a"), AND, (emit(fresh("n"), NOT, (cond,)), other))
    elif other is False:
        node = emit(fresh("a"), AND, (cond, then))
    else:
        node = emit(fresh("t"), ITE, (cond, then, other))
    memo[key] = node
    return node
