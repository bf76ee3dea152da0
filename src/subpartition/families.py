"""Submodular set-function families: graph-style instances and tight constructions.

Each family is a small object with one `GroundSet` (which checks the size
and the distinct labels), a declared function class, and an exact
`value(mask)` method; `oracle()` wraps it in a memoizing ValueOracle.  Two
private bases hold the shared constructors: `_EdgeFamily` cleans the edge
list of the graph cut and coverage families, and `_TableFamily` checks the
value table and class of the explicit and the two 3-element tight tables.
The declared class is what the approximation bounds key on:

* "monotone":     f(A) <= f(B) for A subset of B (coverage, matroid ranks),
* "symmetric":    f(A) = f(V - A) (graph and hypergraph cuts),
* "posimodular":  f(A) + f(B) >= f(A - B) + f(B - A),
* "general":      submodular with none of the above promised.

Monotone and symmetric functions are both posimodular, as are nonnegative
combinations of them.  The declarations are verified exhaustively by the
checkers in tests; the tight families at the bottom of this module are the
instances that meet their class bounds with equality in the limit.

A family's 2^n value table is built by `ValueOracle.scaled_table`:
`oracle()` hands it the family's `_integer_table`, and `scaled_table()` is
a fresh oracle's table, in lowest terms, so it equals the table read off
the Fraction `value` bit for bit.  Every built-in family fills it with
integer arithmetic over one common denominator (the edge families and the
partition matroid by doubling: element v appends the 2^v values of the
sets whose largest element is v, as list operations over the 2^v values
already built), and a combination sums its parts' tables.  Each `value`
stays the exact reference the integer tables are tested against; with no
`_integer_table`, the oracle reads `value` once per subset.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Sequence

from .core import GroundSet, ValueOracle, as_fraction, over_common_denominator

__all__ = [
    "FUNCTION_CLASSES",
    "SetFunctionFamily",
    "GraphCutFn",
    "HypergraphCutFn",
    "GraphCoverageFn",
    "PartitionMatroidRankFn",
    "GraphicMatroidRankFn",
    "ExplicitTableFn",
    "CombinationFn",
    "MonoTight3Fn",
    "MonoTightNFn",
    "PosiTight3Fn",
    "DigraphHyperFn",
]

FUNCTION_CLASSES = ("monotone", "symmetric", "posimodular", "general")


class SetFunctionFamily:
    """Base class carrying the ground set and oracle plumbing; a subclass
    defines `value`, and `_integer_table` if it fills its table in integers."""

    name = "family"
    function_class = "general"

    def __init__(self, n: int, labels: Sequence[str] | None = None):
        self._ground_set = GroundSet(n, labels)

    @property
    def n(self) -> int:
        return self._ground_set.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self._ground_set.labels

    def ground_set(self) -> GroundSet:
        return self._ground_set

    def value(self, mask: int) -> Fraction:
        raise NotImplementedError

    # () -> (D, ints), f(mask) = ints[mask] / D over any common denominator
    _integer_table = None

    def scaled_table(self) -> tuple[int, tuple[int, ...]]:
        """(D, values) in lowest terms with f(mask) = values[mask] / D: the
        table of a fresh `oracle()`."""
        return self.oracle().scaled_table()

    def oracle(self) -> ValueOracle:
        return ValueOracle(self._ground_set, self.value, name=self.name, table=self._integer_table)


def _check_endpoint(i, n, what):
    if not isinstance(i, int) or isinstance(i, bool):
        raise ValueError(f"{what} index {i!r} is not an int")
    if not 0 <= i < n:
        raise ValueError(f"{what} index {i!r} out of range for {n} elements")


def _nonneg_weight(w):
    w = as_fraction(w)
    if w < 0:
        raise ValueError("weights must be nonnegative")
    return w


class _EdgeFamily(SetFunctionFamily):
    """Shared constructor of the weighted edge-list families: edges are
    (u, v, weight) with u != v and weight >= 0; parallel edges add up.

    Both tables are built by doubling.  Element v appends the values of the
    sets T + v, T a subset of {0..v-1}, in the order of the masks T:
    f(T + v) = f(T) + deg(v) - overlap * w(v, T), where w(v, T) is the
    weight of the edges between v and T, and overlap is 2 for the cut (those
    edges stop being cut) and 1 for the coverage (they were covered
    already).  The list of deg(v) - overlap * w(v, T) over T doubles the same
    way, once per element u < v: the second half is the first less
    overlap * w(u, v), or a copy of it when u and v share no weight.
    """

    overlap: int

    def __init__(self, n, edges, labels=None):
        super().__init__(n, labels)
        cleaned = []
        for u, v, w in edges:
            _check_endpoint(u, n, "edge endpoint")
            _check_endpoint(v, n, "edge endpoint")
            if u == v:
                raise ValueError("edges must join distinct elements")
            cleaned.append((u, v, _nonneg_weight(w)))
        self.edges = tuple(cleaned)

    def _integer_table(self):
        n = self.n
        d, weights = over_common_denominator(w for _, _, w in self.edges)
        deg = [0] * n
        # below[v][u]: overlap times the weight between u < v and v
        below = [[0] * v for v in range(n)]
        for (u, v, _), w in zip(self.edges, weights):
            deg[u] += w
            deg[v] += w
            below[max(u, v)][min(u, v)] += self.overlap * w
        table = [0]
        for v in range(n):
            step = [deg[v]]
            for w in below[v]:
                step += [s - w for s in step] if w else step
            table += list(map(add, table, step))
        return d, table


class GraphCutFn(_EdgeFamily):
    """Weighted graph cut: f(S) = total weight of edges with one endpoint in S.
    Symmetric."""

    name = "graph_cut"
    function_class = "symmetric"
    overlap = 2

    def value(self, mask: int) -> Fraction:
        total = Fraction(0)
        for u, v, w in self.edges:
            if (mask >> u ^ mask >> v) & 1:
                total += w
        return total


class HypergraphCutFn(SetFunctionFamily):
    """Weighted hypergraph cut: f(S) = total weight of hyperedges split by S.

    A hyperedge (members, weight) is split when S contains some but not all
    of its members.  Symmetric.
    """

    name = "hypergraph_cut"
    function_class = "symmetric"

    def __init__(self, n, hyperedges, labels=None):
        super().__init__(n, labels)
        cleaned = []
        for members, w in hyperedges:
            emask = 0
            for m in members:
                _check_endpoint(m, n, "hyperedge member")
                emask |= 1 << m
            if emask.bit_count() < 2:
                raise ValueError("hyperedges need at least two distinct members")
            cleaned.append((tuple(sorted(set(members))), emask, _nonneg_weight(w)))
        self.hyperedges = tuple(cleaned)

    def value(self, mask: int) -> Fraction:
        total = Fraction(0)
        for _, emask, w in self.hyperedges:
            inside = mask & emask
            if inside and inside != emask:
                total += w
        return total

    def _integer_table(self):
        d, weights = over_common_denominator(w for _, _, w in self.hyperedges)
        edges = tuple(zip((emask for _, emask, _ in self.hyperedges), weights))
        table = []
        for mask in range(1 << self.n):
            total = 0
            for emask, w in edges:
                inside = mask & emask
                if inside and inside != emask:
                    total += w
            table.append(total)
        return d, table


class GraphCoverageFn(_EdgeFamily):
    """Edge coverage: f(S) = total weight of edges with at least one endpoint
    in S, i.e. w(E[S]) + w(delta(S)).  Monotone."""

    name = "graph_coverage"
    function_class = "monotone"
    overlap = 1

    def value(self, mask: int) -> Fraction:
        total = Fraction(0)
        for u, v, w in self.edges:
            if (mask >> u | mask >> v) & 1:
                total += w
        return total


class PartitionMatroidRankFn(SetFunctionFamily):
    """Partition matroid rank: the ground set is split into base blocks and
    f(S) counts how many base blocks S intersects.  Monotone."""

    name = "partition_matroid"
    function_class = "monotone"

    def __init__(self, n, blocks, labels=None):
        super().__init__(n, labels)
        seen = 0
        masks = []
        for block in blocks:
            bmask = 0
            for e in block:
                _check_endpoint(e, n, "base block element")
                bmask |= 1 << e
            if bmask == 0:
                raise ValueError("base blocks must be nonempty")
            if seen & bmask:
                raise ValueError("base blocks overlap")
            seen |= bmask
            masks.append(bmask)
        if seen != (1 << n) - 1:
            raise ValueError("base blocks must cover the ground set")
        self.block_masks = tuple(masks)
        self.blocks = tuple(tuple(sorted(i for i in range(n) if m >> i & 1)) for m in masks)

    def _rank(self, mask: int) -> int:
        return sum(1 for bm in self.block_masks if mask & bm)

    def value(self, mask: int) -> Fraction:
        return Fraction(self._rank(mask))

    def _integer_table(self):
        # rank(T + v) = rank(T) + [T misses B(v)], for T a subset of
        # {0..v-1} and B(v) the elements of v's block below v
        table = [0]
        for v in range(self.n):
            block = next(bm for bm in self.block_masks if bm >> v & 1)
            step = [1]
            for u in range(v):
                step += [0] * len(step) if block >> u & 1 else step
            table += list(map(add, table, step))
        return 1, table


class GraphicMatroidRankFn(SetFunctionFamily):
    """Graphic matroid rank: elements are the edges of a multigraph and
    f(S) = (number of vertices) - (components of the subgraph with edge set S).
    Monotone."""

    name = "graphic_matroid"
    function_class = "monotone"

    def __init__(self, num_vertices, edges, labels=None):
        edges = tuple((u, v) for u, v in edges)
        if not edges:
            raise ValueError("a graphic matroid needs at least one edge")
        if not isinstance(num_vertices, int) or isinstance(num_vertices, bool) or num_vertices < 1:
            raise ValueError("num_vertices must be a positive int")
        for u, v in edges:
            _check_endpoint(u, num_vertices, "vertex")
            _check_endpoint(v, num_vertices, "vertex")
        super().__init__(len(edges), labels)
        self.num_vertices = num_vertices
        self.edges = edges
        # isolated vertices leave the rank unchanged, so the rank is taken
        # over the endpoints alone, renumbered 0..m-1 (m <= 2n)
        ends = sorted({x for edge in edges for x in edge})
        self._ends = tuple((ends.index(u), ends.index(v)) for u, v in edges)
        self._num_ends = len(ends)

    def _rank(self, mask: int) -> int:
        parent = list(range(self._num_ends))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for i, (u, v) in enumerate(self._ends):
            if mask >> i & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    rank += 1
        return rank

    def value(self, mask: int) -> Fraction:
        return Fraction(self._rank(mask))

    def _integer_table(self):
        # rank(M) = rank(R) + [u, w in different components of R], with
        # v = low(M), R = M - v and (u, w) the endpoints of edge v; each mask
        # keeps its endpoints' component labels as bytes (at most 2n of
        # them), R's own unless the rank grows
        size = 1 << self.n
        ranks = [0] * size
        comps = [bytes(range(self._num_ends))] * size
        label = [bytes([c]) for c in range(self._num_ends)]
        for m in range(1, size):
            low = m & -m
            r = m ^ low
            comp = comps[r]
            u, w = self._ends[low.bit_length() - 1]
            cu, cw = comp[u], comp[w]
            if cu == cw:
                ranks[m], comps[m] = ranks[r], comp
            else:
                ranks[m] = ranks[r] + 1
                comps[m] = comp.replace(label[cu], label[cw])
        return 1, ranks


def _known_class(function_class: str) -> str:
    if function_class not in FUNCTION_CLASSES:
        raise ValueError(f"unknown function class {function_class!r}")
    return function_class


class _TableFamily(SetFunctionFamily):
    """Shared base of the families given by their full value table, indexed
    by subset mask, with a declared function class."""

    def __init__(self, n, values, function_class="general", labels=None, name=None):
        super().__init__(n, labels)
        values = tuple(as_fraction(v) for v in values)
        if len(values) != 1 << n:
            raise ValueError(f"expected {1 << n} table entries, got {len(values)}")
        self.table = values
        self.function_class = _known_class(function_class)
        if name:
            self.name = name

    def value(self, mask: int) -> Fraction:
        return self.table[mask]

    def _integer_table(self):
        return over_common_denominator(self.table)


class ExplicitTableFn(_TableFamily):
    """Set function given by its full value table, indexed by subset mask."""

    name = "explicit_table"


class CombinationFn(SetFunctionFamily):
    """Nonnegative combination sum_i c_i * f_i of families on one ground set.

    The caller declares the class of the result; a nonnegative combination
    of monotone and symmetric parts is posimodular.
    """

    name = "combination"

    def __init__(self, parts, coefficients, function_class, name=None):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a combination needs at least one part")
        n = parts[0].n
        for p in parts[1:]:
            if p.n != n:
                raise ValueError("combination parts live on different ground sets")
        super().__init__(n, parts[0].labels)
        coefficients = tuple(_nonneg_weight(c) for c in coefficients)
        if len(coefficients) != len(parts):
            raise ValueError("one coefficient per part, please")
        self.parts = parts
        self.coefficients = coefficients
        self.function_class = _known_class(function_class)
        if name:
            self.name = name

    def value(self, mask: int) -> Fraction:
        total = Fraction(0)
        for c, p in zip(self.coefficients, self.parts):
            total += c * p.value(mask)
        return total

    def _integer_table(self):
        tables = [p.scaled_table() for p in self.parts]
        # c f_i = c ints / pd = factor ints / d
        weights = (c / pd for c, (pd, _) in zip(self.coefficients, tables))
        d, factors = over_common_denominator(weights)
        total = [0] * (1 << self.n)
        for factor, (_, ints) in zip(factors, tables):
            total = [t + factor * v for t, v in zip(total, ints)]
        return d, total


def _eps_in_window(eps):
    eps = as_fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("eps must satisfy 0 < eps <= 1/2")
    return eps


class MonoTight3Fn(_TableFamily):
    """Monotone 3-element instance meeting the 6/5 class bound in the eps -> 0
    limit.  Values on {a, b, c}:

        {}: 0          {a}: 1         {b}: 1+e      {a,b}: 3/2+e
        {c}: 1+e       {a,c}: 3/2+e   {b,c}: 2+2e   {a,b,c}: 2+2e

    Its principal sequence is ({V}, singletons) with breakpoint 1/2; the
    2-partition returned from it costs 3+2e against an optimum of 5/2+2e.
    """

    name = "mono_tight3"
    function_class = "monotone"

    def __init__(self, eps=Fraction(1, 10**6), labels=None):
        e = self.eps = _eps_in_window(eps)
        table = (0, 1, 1 + e, Fraction(3, 2) + e, 1 + e, Fraction(3, 2) + e, 2 + 2 * e, 2 + 2 * e)
        super().__init__(3, table, self.function_class, labels)


class MonoTightNFn(SetFunctionFamily):
    """Monotone family on odd n >= 5 approaching the 4/3 - 4/(3n+3) ratio.

    The ground set splits into U (the first (n-1)/2 elements) and D (the
    remaining (n+1)/2).  With g(T) = 1/2 + |T|/2 for nonempty T, g({}) = 0:

        h(S) = g(S & U) + (1 + eps) * |S & D|
        f(S) = min(h(S), (n+1)/2)

    Its principal sequence is ({V}, singletons); for k = (n+1)/2 the returned
    partition ({u} for u in U, D as one block) costs exactly n, while the
    comparison partition (U + one D element, remaining D singletons) costs
    (3n+3)/4 + (n+1)eps/2.
    """

    name = "mono_tight_n"
    function_class = "monotone"

    def __init__(self, n, eps=Fraction(1, 10**6), labels=None):
        if not isinstance(n, int) or n < 5 or n % 2 == 0:
            raise ValueError("this family needs odd n >= 5")
        default = tuple(f"v{i}" for i in range(1, n + 1))
        super().__init__(n, default if labels is None else labels)
        self.eps = _eps_in_window(eps)
        self.u_mask = (1 << ((n - 1) // 2)) - 1
        self.d_mask = ((1 << n) - 1) ^ self.u_mask
        self.cap_value = Fraction(n + 1, 2)

    def unclamped(self, mask: int) -> Fraction:
        su = mask & self.u_mask
        g = Fraction(0) if su == 0 else Fraction(1, 2) + Fraction(su.bit_count(), 2)
        return g + (1 + self.eps) * (mask & self.d_mask).bit_count()

    def value(self, mask: int) -> Fraction:
        return min(self.unclamped(mask), self.cap_value)

    def _integer_table(self):
        # over D = 2q with eps = p/q: g(T) -> q + q|T| (T nonempty),
        # 1 + eps -> 2(q + p) and the cap (n+1)/2 -> q(n + 1)
        p, q = self.eps.numerator, self.eps.denominator
        cap, unit = q * (self.n + 1), 2 * (q + p)
        table = []
        for mask in range(1 << self.n):
            su = (mask & self.u_mask).bit_count()
            h = (q + q * su if su else 0) + unit * (mask & self.d_mask).bit_count()
            table.append(min(h, cap))
        return 2 * q, table


class PosiTight3Fn(_TableFamily):
    """Posimodular (not monotone, not symmetric) 3-element instance meeting
    the 2 - 2/(n+1) = 3/2 bound in the eps -> 0 limit.  Values on {a, b, c}:

        {}: 0        {a}: 1       {b}: 1      {a,b}: 1+e
        {c}: 1+e     {a,c}: 2     {b,c}: 2    {a,b,c}: 1+e

    Its principal sequence is ({V}, singletons) with breakpoint 1; the
    2-partition returned from it costs 3 against an optimum of 2+2e.
    """

    name = "posi_tight3"
    function_class = "posimodular"

    def __init__(self, eps=Fraction(1, 10**6), labels=None):
        e = self.eps = _eps_in_window(eps)
        table = (0, 1, 1, 1 + e, 1 + e, 2, 2, 1 + e)
        super().__init__(3, table, self.function_class, labels)


class DigraphHyperFn(SetFunctionFamily):
    """General submodular instance forcing an Omega(n/k) gap.

    On {v0, ..., v_{n-1}}: arcs v0 -> vi of weight a for every i >= 1, plus
    one unit hyperedge over {v1, ..., v_{n-1}}.  f(S) charges a per arc whose
    head lies in S and tail outside, plus 1 if the hyperedge is split by S.
    Submodular but neither monotone, symmetric, nor posimodular (n >= 4).

    Its principal sequence is ({V}, singletons).  For k blocks the returned
    partition keeps {v0} as a block and costs at least a(n-1), while grouping
    v0 with the bulk achieves (1+a)(k-1) + 1.
    """

    name = "digraph_hyper"
    function_class = "general"

    def __init__(self, n, a=10**6, labels=None):
        if not isinstance(n, int) or n < 3:
            raise ValueError("this family needs n >= 3")
        super().__init__(n, tuple(f"v{i}" for i in range(n)) if labels is None else labels)
        a = as_fraction(a)
        if a < 1:
            raise ValueError("arc weight a must be at least 1")
        self.a = a
        self.rest_mask = ((1 << n) - 1) ^ 1  # {v1, ..., v_{n-1}}

    def value(self, mask: int) -> Fraction:
        total = Fraction(0)
        if not mask & 1:
            # tail v0 outside: every head inside pays its arc
            total += self.a * (mask & self.rest_mask).bit_count()
        inside = mask & self.rest_mask
        if inside and inside != self.rest_mask:
            total += 1
        return total

    def _integer_table(self):
        # over D = q with a = p/q: each arc pays p, the hyperedge q
        p, q = self.a.numerator, self.a.denominator
        rest = self.rest_mask
        table = []
        for mask in range(1 << self.n):
            inside = mask & rest
            arcs = 0 if mask & 1 else p * inside.bit_count()
            table.append(arcs + (q if inside and inside != rest else 0))
        return q, table
