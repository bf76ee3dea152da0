"""Exhaustive property checkers for value oracles at desk scale.

Each checker reads the whole value table, so they are meant for ground sets
within the enumeration cap.  Every property is decided in bulk, by
comparisons made in C over list slices or whole lists.  The slices come
from `_slice_pairs`, which pairs each index lacking a bit with that index
plus the bit in at most 2^(n/2) slice pairs per bit:

* submodular: f(S+i) + f(S+j) >= f(S+i+j) + f(S) for every S and i < j
  outside S, equivalent to the condition on all subset pairs: the
  gains f(S+i) - f(S) of each i must not grow along the bits of the j > i,
  about n^2 2^n / 8 comparisons;
* posimodular: f(S+e) - f(S) >= f(V-T-e) - f(V-T) for every e and every
  S subset of T subset of V-e, also equivalent to its pair condition: per
  element a subset-min sweep over the other n-1 bits of its gains,
  skipped when they are all nonnegative (see `check_posimodular`);
* monotone: f(S) <= f(S+v) for every v and S outside v, n 2^(n-1)
  comparisons;
* symmetric: the table equals its own reverse, since index full - S is
  V - S.  A symmetric table takes half the work: the submodular test on
  the sets without the last element decides both pair properties.

Only when a test fails does its checker scan, to name the first witness:
the pairs with B >= A for the two pair properties, the sets in order for
the other two.  A failed check returns the first counterexample in the
documented scan order, which makes failures reproducible and comparable
across runs:

* submodular / posimodular: pairs (A, B) with A ascending, then B ascending
  from A (both relations are symmetric in A and B, so this is the first
  witness of the scan over all pairs),
* monotone: sets S ascending, then added elements ascending,
* symmetric: sets S ascending (each violation is met first at min(S, V-S)).

A pair or monotone scan that finds no witness after its test failed
raises `RuntimeError` rather than report the table either way.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple

from .core import GroundSet, ValueOracle

__all__ = [
    "CheckResult",
    "check_monotone",
    "check_posimodular",
    "check_submodular",
    "check_symmetric",
]


class CheckResult(NamedTuple):
    """Outcome of one property check.

    On failure, `witness` holds the pair of subset masks of the first
    counterexample and lhs/rhs the two sides of the violated inequality
    (for symmetry, the two values that should have been equal).
    """

    property_name: str
    ok: bool
    witness: tuple[int, int] | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self, ground_set: GroundSet) -> str:
        if self.ok:
            return f"{self.property_name}: ok"
        a, b = (ground_set.format_subset(m) for m in self.witness)
        return (
            f"{self.property_name}: violated at A={a}, B={b} "
            f"(lhs={self.lhs}, rhs={self.rhs})"
        )


def _first_pair_witness(name, d, tab, rhs) -> CheckResult:
    """The failed check for the first pair (A, B), scanning A then B in mask
    order, with f(A) + f(B) < rhs(A, B); `tab` is scaled by `d`.  Both pair
    relations are symmetric in A and B, so a violation with B < A was met
    in row B already, and row A scans B from A up.  Called only after a
    local test failed, so a scan without a witness is a bug."""
    for a, fa in enumerate(tab):
        for b, fb in enumerate(tab[a:], a):
            lhs, r = fa + fb, rhs(a, b)
            if lhs < r:
                return CheckResult(name, False, (a, b), Fraction(lhs, d), Fraction(r, d))
    raise RuntimeError(f"{name}: the local test failed but no pair violates it")


def _slice_pairs(size: int, bit: int) -> list[tuple[slice, slice, slice]]:
    """Slices (lacking, having, packed) of a list of length `size` that
    together pair every index lacking `bit` with that index plus `bit`;
    `packed` is where the lacking indices land, in order, in the half-size
    list that drops the bit.  `bit` strided slices while that is at most
    the number of contiguous chunks, size / (2 bit) chunks above that."""
    step = 2 * bit
    if bit <= size // step:
        return [
            (slice(o, size, step), slice(o + bit, size, step), slice(o, size >> 1, bit))
            for o in range(bit)
        ]
    return [
        (slice(c, c + bit), slice(c + bit, c + step), slice(c >> 1, (c >> 1) + bit))
        for c in range(0, size, step)
    ]


def _gains(tab, bit: int) -> list[int]:
    """gain[s] = f(S + bit) - f(S), with S the s-th set lacking `bit` in
    mask order."""
    gain = [0] * (len(tab) >> 1)
    for lacking, having, packed in _slice_pairs(len(tab), bit):
        gain[packed] = map(operator.sub, tab[having], tab[lacking])
    return gain


def _ordered(vals, op, start: int = 0) -> bool:
    """op(vals[S], vals[S + bit]) for every bit from 1 << start up and
    every index S lacking it."""
    size = len(vals)
    return all(
        all(map(op, vals[lacking], vals[having]))
        for i in range(start, size.bit_length() - 1)
        for lacking, having, _ in _slice_pairs(size, 1 << i)
    )


def _locally_submodular(n: int, tab: tuple[int, ...]) -> bool:
    """Diminishing returns for single elements: f(S+i) + f(S+j) >=
    f(S+i+j) + f(S) for all S and i < j outside S.  In the gains of i,
    element j > i is bit j-1, so the bits from 1 << i up are the j > i.
    A symmetric f is read on the sets without the last element v: the
    second difference at S is the one at V-i-j-S, and with g(X) = f(X+i) -
    f(X), g(S+v) = -g(V-v-i-S), so j = v reads g(S) + g(V-v-i-S) >= 0."""
    if tab != tab[::-1]:
        return all(_ordered(_gains(tab, 1 << i), operator.ge, i) for i in range(n))
    low = tab[: len(tab) >> 1]
    for i in range(n - 1):
        gain = _gains(low, 1 << i)
        if not _ordered(gain, operator.ge, i) or min(map(operator.add, gain, reversed(gain))) < 0:
            return False
    return True


def check_submodular(oracle: ValueOracle) -> CheckResult:
    """f(A) + f(B) >= f(A | B) + f(A & B) for all subset pairs.

    Decided by the local test; the scan of the pairs with B >= A runs only
    on failure, to report the first witness in scan order.
    """
    d, tab = oracle.scaled_table()
    if _locally_submodular(oracle.n, tab):
        return CheckResult("submodular", True)
    return _first_pair_witness("submodular", d, tab, lambda a, b: tab[a | b] + tab[a & b])


def _locally_monotone(n: int, tab: tuple[int, ...]) -> bool:
    """f(S) <= f(S + v) for every v and every S outside v."""
    return _ordered(tab, operator.le)


def check_monotone(oracle: ValueOracle) -> CheckResult:
    """f(S) <= f(S + {v}) for all S and v outside S (implies f(A) <= f(B)
    for every A subset of B).

    Decided on list slices; the ordered scan runs only on failure, to
    report the first witness.
    """
    d, tab = oracle.scaled_table()
    n = oracle.n
    if _locally_monotone(n, tab):
        return CheckResult("monotone", True)
    for s, fs in enumerate(tab):
        for v in range(n):
            bit = 1 << v
            if s & bit:
                continue
            t = s | bit
            if fs > tab[t]:
                return CheckResult(
                    "monotone", False, (s, t), Fraction(fs, d), Fraction(tab[t], d)
                )
    raise RuntimeError("monotone: the local test failed but no pair violates it")


def check_symmetric(oracle: ValueOracle) -> CheckResult:
    """f(S) = f(V - S) for all S.

    Index full - S of the table is V - S, so the check is one comparison of
    the table with its reverse; the scan runs only on failure, to report
    the first witness.
    """
    d, tab = oracle.scaled_table()
    if tab == tab[::-1]:
        return CheckResult("symmetric", True)
    full = oracle.ground_set.full_mask
    s = next(s for s, (fs, fc) in enumerate(zip(tab, reversed(tab))) if fs != fc)
    c = full ^ s
    return CheckResult("symmetric", False, (s, c), Fraction(tab[s], d), Fraction(tab[c], d))


def _locally_posimodular(n: int, tab: tuple[int, ...]) -> bool:
    """Gains against complements: f(S+e) - f(S) >= f(V-T-e) - f(V-T) for
    every e and S subset of T subset of V-e.  Symmetric f: submodularity."""
    if tab == tab[::-1]:
        return _locally_submodular(n, tab)
    size = len(tab) >> 1
    for e in range(n):
        gain = _gains(tab, 1 << e)
        if min(gain) >= 0:
            continue  # a sum of two nonnegative gains is nonnegative
        # subset-min sweep: low[t] = min of gain over the subsets of T
        low = gain[:]
        step = 1
        while step < size:
            for lacking, having, _ in _slice_pairs(size, step):
                low[having] = [a if a < b else b for a, b in zip(low[having], low[lacking])]
            step <<= 1
        # index size-1-t holds V-e-T, whose gain is f(V-T) - f(V-T-e)
        if min(map(operator.add, low, reversed(gain))) < 0:
            return False
    return True


def check_posimodular(oracle: ValueOracle) -> CheckResult:
    """f(A) + f(B) >= f(A - B) + f(B - A) for all subset pairs.

    Decided by the local test f(S+e) - f(S) >= f(V-T-e) - f(V-T) for every
    e and every S subset of T subset of V-e.  It is necessary (take A = S+e,
    B = V-T) and sufficient: telescoping over the elements c_1..c_m of
    A & B, with S_i = (A - B) + c_1..c_{i-1} and T_i = (V - B) + c_1..c_{i-1},
    sums it to the pair inequality.  For each e, a subset-min sweep over the
    other n-1 bits gives min over S of the left side for every T at once,
    about n^2 2^(n-2) comparisons in all, made over list slices.  With
    g(X) = f(X+e) - f(X), the test reads g(S) + g(V-e-T) >= 0 for the
    disjoint sets S and V-e-T, so an element whose gains are all
    nonnegative passes without the sweep.  For symmetric f, f(A) = f(V-A),
    A - B = V - ((V-A) | B) and B - A = (V-A) & B, so posimodularity at
    (A, B) is submodularity at (V-A, B).  The scan of the pairs with B >= A
    runs only on failure, to report the first witness in scan order.
    """
    d, tab = oracle.scaled_table()
    if _locally_posimodular(oracle.n, tab):
        return CheckResult("posimodular", True)
    return _first_pair_witness("posimodular", d, tab, lambda a, b: tab[a & ~b] + tab[b & ~a])
