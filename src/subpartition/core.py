"""Exact primitives: ground sets, subset masks, partitions, value oracles.

Everything in this package works with set functions f: 2^V -> Q given by
value oracles over a small ground set V = {0, ..., n-1}.  This module fixes
the representations the rest of the package builds on:

* subsets are n-bit integer masks (bit i set means element i is present),
* values are `fractions.Fraction`; floats are rejected everywhere,
* partitions are tuples of disjoint nonempty masks covering V, stored in a
  canonical order (blocks sorted by their minimum element).

The canonical block order induces a restricted-growth string for each
partition (element i's block index), and lexicographic order on those
strings is the canonical total order on partitions of a fixed ground set.
Every "ties broken canonically" rule in this package means exactly that
order.

Exhaustive work is capped at n <= 13 ground elements; SUBMOD_N_CAP can lower
the cap but never raise it.  The 2^n value table that every checker, brute
force, minimizer and greedy split reads comes from one method,
`ValueOracle.scaled_table`, the only code that checks the cap for a table
(on every call; instance loading checks it too), builds the table, reduces
it to lowest terms and caches it.  An oracle built by a family's `oracle()`
builds it from the family's integer builder; a bare
`ValueOracle(ground_set, fn)` reads `fn` once per subset, and counts none
of those reads as queries.

Once the table exists, every layer scores a partition P in scaled integers,
D * f(P) = `scaled_value(tab, P)`, and builds a `Fraction` only for a value
it reports; `ValueOracle.eval` then answers from the table too.  A
baseline that needs no table (`cheapest_singleton`, and `greedy_splitting`
at k = 1) asks a fresh oracle's `eval` for the few subsets it names.
"""

from __future__ import annotations

import os
import string
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "ENUMERATION_CAP",
    "GroundSet",
    "GroundSetCapError",
    "NonSubmodularError",
    "Partition",
    "ValueOracle",
    "as_fraction",
    "enumeration_cap",
    "refined_part",
    "refines",
    "scaled_value",
    "singleton_partition",
    "trivial_partition",
]

ENUMERATION_CAP = 13


class NonSubmodularError(RuntimeError):
    """An internal consistency check failed in a way only a non-submodular
    oracle can produce (broken minimizer nesting, unattained breakpoint)."""


class GroundSetCapError(ValueError):
    """An operation would enumerate over a ground set above the configured cap."""


def enumeration_cap() -> int:
    """Current cap on ground-set size for exhaustive paths.

    Defaults to 13.  SUBMOD_N_CAP may lower the cap (values above 13 are
    clamped down to 13).  Read on every call, so tests can adjust it.
    """
    raw = os.environ.get("SUBMOD_N_CAP")
    if raw is None:
        return ENUMERATION_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"SUBMOD_N_CAP must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError("SUBMOD_N_CAP must be at least 1")
    return min(value, ENUMERATION_CAP)


def require_within_cap(n: int, operation: str) -> None:
    cap = enumeration_cap()
    if n > cap:
        raise GroundSetCapError(
            f"{operation} enumerates over a ground set of {n} elements, "
            f"above the cap of {cap} (cap is min(13, SUBMOD_N_CAP))"
        )


def require_block_count(k: int, n: int) -> None:
    """Reject a block count k outside 1..n for an n-element ground set."""
    if not 1 <= k <= n:
        raise ValueError(f"block count k={k} must be between 1 and n={n}")


def as_fraction(x) -> Fraction:
    """Coerce an exact number to Fraction.

    Accepts Fraction, int, and 'p/q' strings.  Floats are rejected: they are
    not exact and would silently poison every downstream comparison.
    """
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'p/q' string")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to an exact Fraction")


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"e{i}" for i in range(n))


class _Frozen:
    """A frozen dataclass without code generation: slotted, compared, hashed, pickled
    and shown by its `__slots__` fields; setting or deleting one raises FrozenInstanceError."""

    __slots__ = ()

    def __reduce__(self):  # the constructor validates again
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # imported on this error path only
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class GroundSet(_Frozen):
    """Ground set {0, ..., n-1} with display labels (default ones for None)."""

    __slots__ = ("n", "labels")
    n: int
    labels: tuple[str, ...]

    def __init__(self, n: int, labels: Iterable[str] | None = None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("a ground set needs an integer size of at least 1")
        labels = default_labels(n) if labels is None else tuple(labels)
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        if not all(isinstance(label, str) for label in labels):
            raise TypeError("element labels must be strings")
        if len(set(labels)) != len(labels):
            raise ValueError("element labels must be distinct")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def validate_mask(self, mask: int) -> None:
        if not isinstance(mask, int) or isinstance(mask, bool):
            raise TypeError("subset masks must be ints")
        if mask < 0 or mask > self.full_mask:
            raise ValueError(f"mask {mask:#x} is not a subset of a {self.n}-element ground set")

    def elements(self, mask: int) -> tuple[str, ...]:
        self.validate_mask(mask)
        return tuple(self.labels[i] for i in range(self.n) if mask >> i & 1)

    def format_subset(self, mask: int) -> str:
        return "{" + ",".join(self.elements(mask)) + "}"

    def format_partition(self, partition: "Partition") -> str:
        return " | ".join(self.format_subset(b) for b in partition.blocks)


class Partition(_Frozen):
    """A partition of {0..n-1} into nonempty blocks, canonically ordered.

    Blocks are stored as masks sorted by ascending minimum element.  The
    constructor validates disjointness and coverage; enumeration code uses
    the trusted classmethod to skip re-validation of blocks it built itself.
    """

    __slots__ = ("n", "blocks")
    n: int
    blocks: tuple[int, ...]

    def __init__(self, n: int, blocks: Iterable[int]):
        block_tuple = tuple(blocks)
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError("partition ground size must be an int")
        if n < 1:
            raise ValueError("partition ground size must be a positive int")
        full = (1 << n) - 1
        seen = 0
        for b in block_tuple:
            if not isinstance(b, int) or isinstance(b, bool):
                raise TypeError("partition blocks must be int masks")
            if b <= 0 or b > full:
                raise ValueError(f"block {b:#x} is not a nonempty subset of {n} elements")
            if seen & b:
                raise ValueError("partition blocks overlap")
            seen |= b
        if seen != full:
            raise ValueError("partition blocks do not cover the ground set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(sorted(block_tuple, key=lambda m: m & -m)))

    @classmethod
    def _trusted(cls, n: int, blocks: tuple[int, ...]) -> "Partition":
        # blocks already disjoint, covering, and in canonical order
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        return self

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.blocks)

    def __contains__(self, mask: int) -> bool:
        return mask in self.blocks

    def __repr__(self) -> str:
        sets = [sorted(i for i in range(self.n) if b >> i & 1) for b in self.blocks]
        return f"Partition({self.n}, {sets})"

    def block_of(self, element: int) -> int:
        """Mask of the block containing the given element index."""
        if not 0 <= element < self.n:
            raise ValueError(f"element {element} out of range")
        bit = 1 << element
        # the blocks cover the ground set, so this returns; next() on a generator is 2x slower
        for b in self.blocks:
            if b & bit:
                return b


def trivial_partition(n: int) -> Partition:
    """The one-block partition {V}."""
    return Partition._trusted(n, ((1 << n) - 1,))


def singleton_partition(n: int) -> Partition:
    """The all-singletons partition."""
    return Partition._trusted(n, tuple(1 << i for i in range(n)))


def refines(p: Partition, q: Partition) -> bool:
    """True when every block of p is contained in some block of q."""
    if p.n != q.n:
        raise ValueError("partitions are over different ground sets")
    for b in p.blocks:
        w = q.block_of((b & -b).bit_length() - 1)
        if b & ~w:
            return False
    return True


def refined_part(coarse: Partition, fine: Partition) -> int | None:
    """The unique block of `coarse` that `fine` splits, if there is exactly one.

    Returns the mask of the block S when exactly one block of `coarse` is
    missing from `fine`: the other coarse blocks are then fine blocks, so
    the remaining fine blocks partition S into at least two proper subsets.
    Returns None otherwise (equal partitions, more than one split part, or
    no refinement at all).
    """
    if coarse.n != fine.n:
        raise ValueError("partitions are over different ground sets")
    fine_set = set(fine.blocks)
    missing = [b for b in coarse.blocks if b not in fine_set]
    return missing[0] if len(missing) == 1 else None


def over_common_denominator(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(D, ints) with D the lcm of the denominators, so value = int / D."""
    values = list(values)
    d = reduce(lcm, (v.denominator for v in values), 1)
    return d, [v.numerator * (d // v.denominator) for v in values]


class ValueOracle:
    """Memoizing wrapper around an exact set function, and the one builder
    of its value table.

    `fn` maps a subset mask to a Fraction (ints are coerced; floats raise).
    `scaled_table` builds the table from `table` when given, which returns
    (D, ints) over any common denominator without calling `fn`, else from
    `fn` read once per subset; after that, `eval` answers from the table.
    `total_calls` counts `eval` calls alone, never the build, and
    `distinct_evaluations` is at most 2^n, and 2^n once the table is built.
    """

    def __init__(
        self,
        ground_set: GroundSet,
        fn: Callable[[int], Fraction],
        name: str = "oracle",
        table: Callable[[], tuple[int, Sequence[int]]] | None = None,
    ):
        self.ground_set = ground_set
        self.name = name
        self._fn = fn
        self._build_table = table
        self._memo: dict[int, Fraction] = {}
        self._total_calls = 0
        self._scaled: tuple[int, tuple[int, ...]] | None = None

    @property
    def n(self) -> int:
        return self.ground_set.n

    @property
    def total_calls(self) -> int:
        return self._total_calls

    @property
    def distinct_evaluations(self) -> int:
        return 1 << self.n if self._scaled is not None else len(self._memo)

    def eval(self, mask: int) -> Fraction:
        self.ground_set.validate_mask(mask)
        self._total_calls += 1
        if self._scaled is not None:
            d, tab = self._scaled
            return Fraction(tab[mask], d)
        value = self._memo.get(mask)
        if value is None:
            value = self._memo[mask] = self._read(mask)
        return value

    def _read(self, mask: int) -> Fraction:
        """f(mask) from `fn`, checked to be exact: neither counted nor memoized."""
        raw = self._fn(mask)
        if isinstance(raw, float):
            raise TypeError(
                f"oracle {self.name!r} returned a float for mask {mask:#x}; "
                "set functions must return exact Fractions"
            )
        if isinstance(raw, Fraction):
            return raw
        if isinstance(raw, int):
            return Fraction(raw)
        raise TypeError(
            f"oracle {self.name!r} returned {type(raw).__name__}; expected Fraction or int"
        )

    def scaled_table(self) -> tuple[int, tuple[int, ...]]:
        """(D, values) in lowest terms, so that f(mask) = values[mask] / D.
        Built once, from the `table` builder when there is one, else from
        `fn` read once per subset, and then cached; every call, cached or
        not, checks the enumeration cap."""
        require_within_cap(self.n, "scaled_table")
        if self._scaled is None:
            if self._build_table is not None:
                d, ints = self._build_table()
            else:
                d, ints = over_common_denominator(map(self._read, range(1 << self.n)))
            common = gcd(d, *ints)
            if common > 1:
                d, ints = d // common, [v // common for v in ints]
            self._scaled = (d, tuple(ints))
        return self._scaled


def scaled_value(tab: Sequence[int], partition: Partition) -> int:
    """D * f(P): the scaled value table `tab` of `scaled_table` summed over
    the blocks of P, in integers."""
    return sum(map(tab.__getitem__, partition.blocks))
