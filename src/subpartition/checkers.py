"""Exhaustive property checkers for value oracles at desk scale.

Each checker reads the whole value table, so they are meant for ground sets
within the enumeration cap.  Every property is decided in bulk, by
comparisons made in C over list slices or whole lists.  The slices come
from `_slice_pairs`, which pairs each index lacking a bit with that index
plus the bit in at most 2^(n/2) slice pairs per bit.  One walk over the
elements computes the gains f(S+e) - f(S) of each element e once for every
local test still running, for all properties in `check_classes` and for its
own in each single checker:

* submodular: f(S+i) + f(S+j) >= f(S+i+j) + f(S) for every S and i < j
  outside S, equivalent to the condition on all subset pairs: the
  gains of each i must not grow along the bits of the j > i,
  about n^2 2^n / 8 comparisons;
* posimodular: f(S+e) - f(S) >= f(V-T-e) - f(V-T) for every e and every
  S subset of T subset of V-e, also equivalent to its pair condition: per
  element a subset-min sweep over the other n-1 bits of its gains,
  skipped when they are all nonnegative (see `check_posimodular`);
* monotone: f(S) <= f(S+v) for every v and S outside v, that is every
  gain nonnegative;
* symmetric: the table equals its own reverse, since index full - S is
  V - S.  A symmetric table takes half the work: the walk reads the sets
  without the last element, whose n-1 gains lists decide all three other
  properties, posimodular by the submodular test.

Each violated local inequality is itself a violated pair, so a failed
check names the first violation its own test meets: the bulk comparisons
find the failing element or pair of elements, then a scan of at most 2^n
steps finds the first set, so at n = 13 a failing check names its witness
in milliseconds.  The documented order makes failures reproducible:

* submodular: (S+i, S+j) by i, then j > i, then S ascending;
* posimodular: (S+e, V-T) by e, then T ascending, then S subset of T
  ascending; a symmetric table names (V-A, B) for the submodular (A, B);
* monotone: (S, S+v) by S ascending, then v ascending;
* symmetric: (S, V-S) by S ascending (each violation is met first at
  min(S, V-S)).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple

from .core import GroundSet, ValueOracle

__all__ = [
    "CheckResult",
    "check_classes",
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


def _holds(vals, op, bit: int) -> bool:
    """op(vals[S], vals[S + bit]) for every index S lacking `bit`."""
    return all(
        all(map(op, vals[lacking], vals[having]))
        for lacking, having, _ in _slice_pairs(len(vals), bit)
    )


def _first(found):
    """The first item of a scan that runs after a bulk test failed.  A scan
    that finds nothing is a bug, raised as ValueError rather than as the
    StopIteration that would quietly end an enclosing loop."""
    for item in found:
        return item
    raise ValueError("a bulk test failed but its scan finds no violation")


def _submodular_at(tab, symmetric: bool, i: int, gain) -> tuple[int, int] | None:
    """The first (S+i, S+j) with f(S+i) + f(S+j) < f(S+i+j) + f(S), in the
    module's order, or None, from the gains of i: element j > i is their
    bit j-1.  A symmetric f is read on the sets without the last element v:
    the inequality at S is the one at V-i-j-S, the smaller set when S holds
    v, so for j < v the first violating S lacks v; and with g(X) = f(X+i) -
    f(X), g(S+v) = -g(V-v-i-S), so j = v reads g(S) + g(V-v-i-S) >= 0."""
    bits = (1 << b for b in range(i, len(gain).bit_length() - 1))
    bj = next((bit << 1 for bit in bits if not _holds(gain, operator.ge, bit)), None)
    if bj is None and symmetric and min(map(operator.add, gain, reversed(gain))) < 0:
        bj = len(tab) >> 1
    if bj is None:
        return None
    bi, both = 1 << i, 1 << i | bj
    s = _first(
        s for s in range(len(tab))
        if not s & both and tab[s | bi] + tab[s | bj] < tab[s | both] + tab[s]
    )
    return s | bi, s | bj


def _monotone_at(tab, symmetric: bool, e: int, gain) -> tuple[int, int] | None:
    """The first (S, S+v) with f(S) > f(S+v), by S then v, once the gains of
    e show that one exists, else None.  On a symmetric table, whose sets
    holding the last element v are not read, g(S+v) = -g(V-v-e-S), so the
    gains of e are all nonnegative only when the ones read are all 0."""
    if not any(gain) if symmetric else min(gain) >= 0:
        return None
    bits = [1 << v for v in range(len(tab).bit_length() - 1)]
    return _first(
        (s, s | bit) for s in range(len(tab)) for bit in bits if not s & bit and tab[s] > tab[s | bit]
    )


def _posimodular_at(tab, symmetric: bool, e: int, gain) -> tuple[int, int] | None:
    """The first (S+e, V-T) with f(S+e) - f(S) < f(V-T-e) - f(V-T), in the
    module's order, or None, from the gains of e on a table that is not
    symmetric; see `check_posimodular`."""
    if min(gain) >= 0:
        return None  # a sum of two nonnegative gains is nonnegative
    size, bit = len(gain), 1 << e
    # subset-min sweep: low[t] = min of gain over the subsets of T
    low = gain[:]
    step = 1
    while step < size:
        for lacking, having, _ in _slice_pairs(size, step):
            low[having] = [a if a < b else b for a, b in zip(low[having], low[lacking])]
        step <<= 1
    # index size-1-t holds V-e-T, whose gain is f(V-T) - f(V-T-e)
    if min(map(operator.add, low, reversed(gain))) >= 0:
        return None
    p = _first(p for p, (a, b) in enumerate(zip(low, reversed(gain))) if a + b < 0)
    rest, t = gain[size - 1 - p], p + (p & -bit)  # T is the p-th set lacking e
    s = _first(s for s in range(t + 1) if s & t == s and tab[s | bit] + rest < tab[s])
    return s | bit, len(tab) - 1 ^ t


def _checks(oracle: ValueOracle, *names: str) -> dict[str, CheckResult]:
    """The result of each named property, in the order named, with the first
    violation of a failed one in the module's order and both sides of its
    inequality there.  One walk over the elements computes the gains of each
    element once and hands them to every local test that has not failed yet."""
    d, tab = oracle.scaled_table()
    tests = {"submodular": _submodular_at, "monotone": _monotone_at, "posimodular": _posimodular_at}
    full = len(tab) - 1
    symmetric = tab == tab[::-1]
    # a symmetric f is posimodular at (A, B) where it is submodular at (V-A, B)
    walked = {"submodular" if symmetric and name == "posimodular" else name for name in names}
    found = {name: None for name in tests if name in walked}
    low = tab[: len(tab) >> 1] if symmetric else tab
    for e in range(oracle.n - symmetric):
        pending = [name for name, witness in found.items() if witness is None]
        if not pending or e == oracle.n - 1 and pending == ["submodular"]:
            break  # the last element has no j > e to test submodularity at
        gain = _gains(low, 1 << e)
        for name in pending:
            found[name] = tests[name](tab, symmetric, e, gain)
    if symmetric and "posimodular" in names:
        witness = found["submodular"]
        found["posimodular"] = witness and (full ^ witness[0], witness[1])
    if "symmetric" in names:
        found["symmetric"] = None if symmetric else _first(
            (s, full - s) for s, (fs, fc) in enumerate(zip(tab, reversed(tab))) if fs != fc
        )
    results = {}
    for name in names:
        if found[name] is None:
            results[name] = CheckResult(name, True)
            continue
        a, b = found[name]
        if name in ("monotone", "symmetric"):
            lhs, rhs = tab[a], tab[b]
        elif name == "submodular":
            lhs, rhs = tab[a] + tab[b], tab[a | b] + tab[a & b]
        else:
            lhs, rhs = tab[a] + tab[b], tab[a & ~b] + tab[b & ~a]
        results[name] = CheckResult(name, False, (a, b), Fraction(lhs, d), Fraction(rhs, d))
    return results


def check_classes(oracle: ValueOracle) -> dict[str, CheckResult]:
    """The submodular, monotone, symmetric and posimodular results, in that
    order, from one walk; each equals the result of its own checker."""
    return _checks(oracle, "submodular", "monotone", "symmetric", "posimodular")


def check_submodular(oracle: ValueOracle) -> CheckResult:
    """f(A) + f(B) >= f(A | B) + f(A & B) for all subset pairs.

    Decided by the local test, whose first violation is the witness.
    """
    return _checks(oracle, "submodular")["submodular"]


def check_monotone(oracle: ValueOracle) -> CheckResult:
    """f(S) <= f(S + {v}) for all S and v outside S (implies f(A) <= f(B)
    for every A subset of B).

    Decided by the signs of the gains; the ordered scan runs only on
    failure, to report the first witness.
    """
    return _checks(oracle, "monotone")["monotone"]


def check_symmetric(oracle: ValueOracle) -> CheckResult:
    """f(S) = f(V - S) for all S.

    Index full - S of the table is V - S, so the check is one comparison of
    the table with its reverse; the scan runs only on failure, to report
    the first witness.
    """
    return _checks(oracle, "symmetric")["symmetric"]


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
    (A, B) is submodularity at (V-A, B).  The first violation of the local
    test is the witness.
    """
    return _checks(oracle, "posimodular")["posimodular"]
