"""Exhaustive ground truth for desk-scale formulas.

Assignments over n variables are enumerated as the integers 0..2^n-1 with
variable 1 as the least significant bit.  Each clause becomes a 2^n-bit mask
whose k-th bit says whether assignment k satisfies it; the formula mask is the
AND of the clause masks, so satisfiability, model counting, and the
lexicographically least model are all single big-int operations.
"""

__all__ = ["BoundExceeded", "DEFAULT_BOUND", "brute_force_sat", "count_models",
           "equisat", "all_models"]

DEFAULT_BOUND = 20


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


def _formula_mask(formula, n: int) -> int:
    full = (1 << (1 << n)) - 1
    mask = full
    for clause in formula.clauses.values():
        cm = 0
        for lit in clause:
            vm = _true_mask(abs(lit), n)
            cm |= vm if lit > 0 else (full ^ vm)
        mask &= cm
        if not mask:
            break
    return mask


def _check_bound(formula, bound):
    n = formula.num_vars
    if n > bound:
        raise BoundExceeded(f"{n} variables exceeds oracle bound {bound}")
    return n


def brute_force_sat(formula, bound: int = DEFAULT_BOUND) -> dict | None:
    """Lexicographically least model (binary counting, var 1 least
    significant), or None when unsatisfiable."""
    n = _check_bound(formula, bound)
    mask = _formula_mask(formula, n)
    if not mask:
        return None
    k = (mask & -mask).bit_length() - 1
    return {v: bool((k >> (v - 1)) & 1) for v in range(1, n + 1)}


def count_models(formula, bound: int = DEFAULT_BOUND) -> int:
    n = _check_bound(formula, bound)
    return _formula_mask(formula, n).bit_count()


def equisat(f1, f2, bound: int = DEFAULT_BOUND) -> bool:
    """True iff both formulas are satisfiable or both are not."""
    return (brute_force_sat(f1, bound) is None) == (brute_force_sat(f2, bound) is None)


def all_models(formula, bound: int = DEFAULT_BOUND):
    """Yield every satisfying total assignment in enumeration order."""
    n = _check_bound(formula, bound)
    mask = _formula_mask(formula, n)
    while mask:
        low = mask & -mask
        mask ^= low
        k = low.bit_length() - 1
        yield {v: bool((k >> (v - 1)) & 1) for v in range(1, n + 1)}
