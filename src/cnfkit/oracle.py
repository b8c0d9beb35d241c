"""Exhaustive ground truth for desk-scale formulas.

Assignments over n variables are enumerated as the integers 0..2^n-1 with
variable 1 as the least significant bit.  They are scanned in consecutive
blocks of 2^m, m = min(n, 16): within a block, variables 1..m vary and the
values of variables m+1..n are fixed by the block number.  Each clause
becomes a 2^m-bit mask over variables 1..m whose k-th bit says whether
assignment k satisfies it; a block's mask is the AND of the clauses that its
high values leave open, so satisfiability, model counting, and the
lexicographically least model are big-int operations per block, and the
least model comes from the first block with a set bit.  Mask memory is
bounded by the block: a bound above 20 costs time (2^n), not memory.
"""

__all__ = ["BoundExceeded", "DEFAULT_BOUND", "brute_force_sat", "count_models",
           "equisat", "all_models"]

DEFAULT_BOUND = 20

_LOW = 16  # block width: variables 1.._LOW vary inside a block (8 KB masks)


class BoundExceeded(Exception):
    pass


_var_masks: dict[tuple[int, int], int] = {}


def _true_mask(var: int, n: int) -> int:
    """Mask of assignments (over n >= var vars) in which `var` is true."""
    key = (var, n)
    mask = _var_masks.get(key)
    if mask is None:
        # one period, `width` zeros then `width` ones, doubled up to 2^n bits
        width = 1 << (var - 1)
        mask = ((1 << width) - 1) << width
        width *= 2
        while width < 1 << n:
            mask |= mask << width
            width *= 2
        _var_masks[key] = mask
    return mask


def _blocks(formula, n: int):
    """Yield (offset, mask) per block in enumeration order: bit i of mask is
    set iff assignment offset + i satisfies the formula."""
    m = min(n, _LOW)
    full = (1 << (1 << m)) - 1
    low = full  # the clauses with no literal above m
    # the other clauses, their low masks ANDed per (positive, negative) bits
    # of their literals above m
    high: dict[tuple[int, int], int] = {}
    for clause in formula.clauses.values():
        cm = pos = neg = 0
        for lit in clause:
            var = abs(lit)
            if var <= m:
                vm = _true_mask(var, m)
                cm |= vm if lit > 0 else (full ^ vm)
            elif lit > 0:
                pos |= 1 << (var - m - 1)
            else:
                neg |= 1 << (var - m - 1)
        if pos or neg:
            key = (pos, neg)
            high[key] = high.get(key, full) & cm
        else:
            low &= cm
            if not low:
                return
    for top in range(1 << (n - m)):
        mask = low
        for (pos, neg), cm in high.items():
            # open unless a positive literal is true or a negative one false
            if not (top & pos or neg & ~top):
                mask &= cm
                if not mask:
                    break
        yield top << m, mask


def _check_bound(formula, bound):
    n = formula.num_vars
    if n > bound:
        raise BoundExceeded(f"{n} variables exceeds oracle bound {bound}")
    return n


def _model(k: int, n: int) -> dict:
    return {v: bool((k >> (v - 1)) & 1) for v in range(1, n + 1)}


def brute_force_sat(formula, bound: int = DEFAULT_BOUND) -> dict | None:
    """Lexicographically least model (binary counting, var 1 least
    significant), or None when unsatisfiable."""
    n = _check_bound(formula, bound)
    for offset, mask in _blocks(formula, n):
        if mask:
            return _model(offset + (mask & -mask).bit_length() - 1, n)
    return None


def count_models(formula, bound: int = DEFAULT_BOUND) -> int:
    n = _check_bound(formula, bound)
    return sum(mask.bit_count() for _, mask in _blocks(formula, n))


def equisat(f1, f2, bound: int = DEFAULT_BOUND) -> bool:
    """True iff both formulas are satisfiable or both are not."""
    return (brute_force_sat(f1, bound) is None) == (brute_force_sat(f2, bound) is None)


def all_models(formula, bound: int = DEFAULT_BOUND):
    """Yield every satisfying total assignment in enumeration order."""
    n = _check_bound(formula, bound)
    for offset, mask in _blocks(formula, n):
        while mask:
            bit = mask & -mask
            mask ^= bit
            yield _model(offset + bit.bit_length() - 1, n)
