"""Finite digraphs and the order-theoretic checks built on them.

Everything downstream (cobweb construction, the orderability decider,
the brute force oracle) works over the small vocabulary defined here:
vertices labelled by position and level, digraphs with deterministic
iteration order, chains, and reachability relations.  All reachability-style
computations run on vertex indices and integer bitmasks: a Digraph
stores its arcs only as index pairs and successor lists, and
reachability is kept as one mask per vertex, either over vertex
indices or over positions along a chain.  Vertex objects appear only
where a result is handed back to the caller.
"""

from __future__ import annotations

import heapq
from itertools import islice
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = [
    "Arc",
    "Chain",
    "CheckResult",
    "CyclicInputError",
    "Digraph",
    "NotLinearExtensionError",
    "Relation",
    "Vertex",
    "VertexSetMismatchError",
    "is_acyclic",
    "is_admissible",
    "is_linear_extension",
    "is_regular",
    "iter_topological_orders",
    "reachability",
    "topological_order",
    "transitive_reduction",
]


class CyclicInputError(ValueError):
    """An operation defined only for acyclic digraphs was given a cycle."""


class VertexSetMismatchError(ValueError):
    """A chain does not cover exactly the vertex set it is checked against."""


class NotLinearExtensionError(ValueError):
    """A chain violates at least one arc of its digraph."""


@dataclass(frozen=True, order=True)
class Vertex:
    """Element at 1-based ``position`` within layer ``level``."""

    position: int
    level: int

    def __post_init__(self) -> None:
        if type(self.position) is not int or type(self.level) is not int:
            raise TypeError(f"vertex coordinates must be int, got {self!r}")
        if self.position < 1:
            raise ValueError(f"vertex position must be >= 1, got {self.position}")
        if self.level < 0:
            raise ValueError(f"vertex level must be >= 0, got {self.level}")

    def __str__(self) -> str:
        return f"{self.position},{self.level}"


Arc = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a predicate, with a witness when one makes sense.

    Truthiness mirrors ``ok``, so results can be used directly in
    conditions while the witness stays available for error reporting.
    For failed checks the witness pinpoints the violation (an arc, a
    vertex triple, a pair); for some successful checks it carries the
    object that proves success.
    """

    ok: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


class Digraph:
    """Loop-free directed graph over an ordered vertex set.

    Vertices keep their construction order and arcs keep first-insertion
    order, so every computation derived from a Digraph is deterministic.
    Duplicate arcs are dropped silently; duplicate vertices, loops and
    arcs with unknown endpoints are rejected.  The arcs are stored only
    as index pairs; ``arcs`` builds the vertex pairs on each read.
    """

    __slots__ = ("vertices", "_index", "_succ", "_arc_index")

    def __init__(self, vertices: Iterable[Vertex], arcs: Iterable[Arc] = ()) -> None:
        vs = tuple(vertices)
        index = _vertex_index(vs)
        self._build(vs, index, _resolved(index, arcs, str))

    @classmethod
    def _from_index_arcs(
        cls, vertices: Iterable[Vertex], arcs: Iterable[tuple[int, int]]
    ) -> Digraph:
        """A Digraph from arcs given as index pairs into ``vertices``.

        The constructor behind every parser and the cobweb builder: it
        hashes no Vertex per arc.  Rejects duplicate vertices and loops
        with the same messages as the public constructor; the indices
        must be in range.
        """
        g = cls.__new__(cls)
        vs = tuple(vertices)
        g._build(vs, _vertex_index(vs), arcs)
        return g

    def _build(
        self,
        vs: tuple[Vertex, ...],
        index: dict[Vertex, int],
        arcs: Iterable[tuple[int, int]],
    ) -> None:
        succ: list[list[int]] = [[] for _ in vs]
        seen: set[tuple[int, int]] = set()
        kept: list[tuple[int, int]] = []
        for arc in arcs:
            t, h = arc
            if t == h:
                raise ValueError(f"loop at {vs[t]}")
            if arc in seen:
                continue
            seen.add(arc)
            succ[t].append(h)
            kept.append(arc)
        self.vertices = vs
        self._index = index
        self._succ = succ
        self._arc_index = kept

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as vertex pairs, in first-insertion order, built on each read."""
        vs = self.vertices
        return tuple([(vs[t], vs[h]) for t, h in self._arc_index])

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        # equal vertex tuples give equal index maps, so index arcs compare
        return self.vertices == other.vertices and set(self._arc_index) == set(
            other._arc_index
        )

    def __hash__(self) -> int:
        return hash((self.vertices, frozenset(self._arc_index)))

    def __repr__(self) -> str:
        return f"Digraph({len(self.vertices)} vertices, {len(self._arc_index)} arcs)"

    def index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"{v} is not a vertex of this digraph") from None

    def successors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(self.vertices[j] for j in self._succ[self.index(v)])


def _vertex_index(vs: tuple[Vertex, ...]) -> dict[Vertex, int]:
    index = {v: i for i, v in enumerate(vs)}
    if len(index) != len(vs):
        seen: set[Vertex] = set()
        for v in vs:
            if v in seen:
                raise ValueError(f"duplicate vertex {v}")
            seen.add(v)
    return index


def _resolved(
    index: dict[Any, int], arcs: Iterable[tuple[Any, Any]], name: Callable[[Any], Any]
) -> Iterator[tuple[int, int]]:
    """The arcs as index pairs, resolved lazily through ``index``.

    An unknown endpoint, tail before head, raises ValueError with
    ``name`` formatting its key.
    """
    for tail, head in arcs:
        t, h = index.get(tail), index.get(head)
        if t is None or h is None:
            unknown = tail if t is None else head
            raise ValueError(f"arc endpoint {name(unknown)} is not a vertex")
        yield t, h


@dataclass(frozen=True)
class Relation:
    """A set of ordered vertex pairs over a fixed vertex tuple.

    Used both for reachability of a digraph and for the strict order of
    a poset; two relations compare equal when they relate the same
    vertices the same way, regardless of where they came from.
    """

    vertices: tuple[Vertex, ...]
    pairs: frozenset[Arc]

    def __contains__(self, pair: Arc) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Arc]:
        return iter(self.pairs)


class Chain:
    """Total order on a vertex set, stored as an explicit sequence."""

    __slots__ = ("order", "_rank")

    def __init__(self, order: Iterable[Vertex]) -> None:
        self.order: tuple[Vertex, ...] = tuple(order)
        self._rank: dict[Vertex, int] = {v: i for i, v in enumerate(self.order)}
        if len(self._rank) != len(self.order):
            raise ValueError("chain repeats a vertex")

    def rank(self, v: Vertex) -> int:
        try:
            return self._rank[v]
        except KeyError:
            raise KeyError(f"{v} is not in the chain") from None

    def precedes(self, u: Vertex, v: Vertex) -> bool:
        """True when u comes no later than v (reflexive)."""
        return self.rank(u) <= self.rank(v)

    @property
    def vertex_set(self) -> frozenset[Vertex]:
        return frozenset(self._rank)

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.order)

    def __getitem__(self, i: int) -> Vertex:
        return self.order[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        body = " -> ".join(str(v) for v in self.order[:8])
        if len(self.order) > 8:
            body += f" -> ... ({len(self.order)} vertices)"
        return f"Chain({body})"


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _inverse(perm: Sequence[int]) -> list[int]:
    """The inverse permutation: ``out[perm[k]] == k``."""
    out = [0] * len(perm)
    for k, i in enumerate(perm):
        out[i] = k
    return out


def _kahn_order(n: int, succ: list[list[int]]) -> list[int] | None:
    """Smallest-index-first topological order, or None if there is a cycle."""
    indeg = [0] * n
    for heads in succ:
        for j in heads:
            indeg[j] += 1
    avail = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(avail)
    out: list[int] = []
    while avail:
        i = heapq.heappop(avail)
        out.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(avail, j)
    return out if len(out) == n else None


def _acyclic_order(g: Digraph) -> list[int]:
    order = _kahn_order(len(g), g._succ)
    if order is None:
        raise CyclicInputError("digraph contains a directed cycle")
    return order


def is_acyclic(g: Digraph) -> bool:
    return _kahn_order(len(g), g._succ) is not None


def topological_order(g: Digraph) -> tuple[Vertex, ...]:
    """The lexicographically first topological order of g.

    Ties are broken by vertex construction order.  Raises
    CyclicInputError when no topological order exists.
    """
    return tuple(g.vertices[i] for i in _acyclic_order(g))


def _position_reach(
    succ: list[list[int]], order: Sequence[int], pos_of: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Reach and redundant-head masks along a chain, from one reverse pass.

    ``order`` is a topological order of the vertex indices and
    ``pos_of[i]`` the chain position of vertex i.  Bit q of ``reach[p]``
    is set when position q is reachable, via >= 1 arc, from position p.
    ``red[p]`` holds p's redundant heads: the heads q of arcs p -> q
    that a longer path implies, because another head reaches q.  With
    ``pos_of`` the identity, positions are vertex indices.
    """
    reach = [0] * len(order)
    red = [0] * len(order)
    for i in reversed(order):
        acc = heads = 0
        for j in succ[i]:
            q = pos_of[j]
            acc |= reach[q]
            heads |= 1 << q
        p = pos_of[i]
        red[p] = acc & heads
        reach[p] = acc | heads
    return reach, red


def _along(g: Digraph) -> tuple[list[int], list[int], list[int], list[int]]:
    """Kahn's order of g, its inverse, and the reach and redundant-head masks along it.

    The one analysis behind every decider entry point: one Kahn pass
    (CyclicInputError for cyclic g) and one reverse pass over the arcs.
    """
    first = _acyclic_order(g)
    pos_of = _inverse(first)
    return (first, pos_of, *_position_reach(g._succ, first, pos_of))


def _reach_bits(g: Digraph) -> tuple[list[int], list[int]]:
    """Reach and redundant-head masks over vertex indices, as _position_reach's."""
    return _position_reach(g._succ, _acyclic_order(g), range(len(g)))


def reachability(g: Digraph) -> Relation:
    """All pairs (u, w) with a directed path of length >= 1 from u to w.

    The result is irreflexive because g is required to be acyclic
    (CyclicInputError otherwise).
    """
    reach = _reach_bits(g)[0]
    vs = g.vertices
    pairs = frozenset(
        (vs[i], vs[j]) for i in range(len(vs)) for j in _iter_bits(reach[i])
    )
    return Relation(vs, pairs)


def _regularity(g: Digraph, pos_of: Sequence[int], red: list[int]) -> CheckResult:
    """is_regular from the redundant-head masks of one chain's pass.

    g is regular exactly when no vertex has a redundant head; only
    otherwise are the arcs scanned for the first redundant one.
    """
    if any(red):
        for t, h in g._arc_index:
            if red[pos_of[t]] >> pos_of[h] & 1:
                return CheckResult(False, (g.vertices[t], g.vertices[h]))
    return CheckResult(True)


def transitive_reduction(g: Digraph) -> Digraph:
    """The unique minimal subgraph of g with the same reachability.

    Uniqueness holds because g is acyclic; an arc is dropped exactly
    when its head is in its tail's redundant-head mask (_position_reach).
    """
    red = _reach_bits(g)[1]
    kept = ((t, h) for t, h in g._arc_index if not red[t] >> h & 1)
    return Digraph._from_index_arcs(g.vertices, kept)


def is_regular(g: Digraph) -> CheckResult:
    """Whether g equals its own transitive reduction.

    Reads the redundant-head masks of reachability's reverse pass.  On
    failure the witness is the first redundant arc in insertion order,
    i.e. an arc whose endpoints are also joined by a longer path.
    """
    return _regularity(g, range(len(g)), _reach_bits(g)[1])


def _chain_positions(c: Chain, g: Digraph) -> list[int]:
    """pos_of[i] = position along c of vertex i of g; c must cover g."""
    rank = c._rank
    if rank.keys() != g._index.keys():
        raise VertexSetMismatchError(
            "chain does not cover exactly the digraph's vertex set"
        )
    return [rank[v] for v in g.vertices]


def is_linear_extension(c: Chain, g: Digraph) -> bool:
    """True when every arc of g goes forward along c.

    Requires c to cover exactly the vertices of g
    (VertexSetMismatchError otherwise).  A cyclic digraph has no linear
    extension, so the answer is then False for every chain.
    """
    pos_of = _chain_positions(c, g)
    return all(pos_of[t] < pos_of[h] for t, h in g._arc_index)


def _admissibility_witness(pos_reach: list[int]) -> tuple[int, int, int] | None:
    """First forbidden triple of chain positions, or None if admissible.

    A triple p1 < p2 < p3 is forbidden when p1 and p2 are incomparable,
    p2 and p3 are incomparable, yet p3 is reachable from p1.  Positions
    are scanned in lexicographic order so the witness is deterministic.
    """
    n = len(pos_reach)
    full = (1 << n) - 1
    for p1 in range(n):
        r1 = pos_reach[p1]
        later = full >> (p1 + 1) << (p1 + 1)
        if not r1 & later:
            continue
        for p2 in _iter_bits(later & ~r1):
            hits = r1 & ~pos_reach[p2] & (full >> (p2 + 1) << (p2 + 1))
            if hits:
                p3 = (hits & -hits).bit_length() - 1
                return (p1, p2, p3)
    return None


def is_admissible(c: Chain, g: Digraph) -> CheckResult:
    """Whether chain c avoids every forbidden incomparability triple in g.

    The forbidden pattern is a triple x1 before x2 before x3 along c
    with x1 parallel to x2, x2 parallel to x3, but a directed path from
    x1 to x3.  Comparability means a path in either direction.  On
    failure the witness is the lexicographically first such triple
    (by chain positions).  Requires an acyclic g covering the same
    vertex set as c; c itself does not have to be a linear extension.
    """
    pos_of = _chain_positions(c, g)
    reach, _ = _position_reach(g._succ, _acyclic_order(g), pos_of)
    hit = _admissibility_witness(reach)
    if hit is None:
        return CheckResult(True)
    return CheckResult(False, tuple(c.order[p] for p in hit))


def _iter_index_orders(n: int, succ: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """All topological orders of 0..n-1, lexicographically smallest first.

    Depth-first backtracking over an explicit stack, so the depth is not
    bounded by the interpreter's recursion limit.  Vertex sets are
    bitmasks: a vertex becomes available once its predecessors are all
    placed.  Yields nothing if the graph is cyclic.
    """
    if n == 0:
        yield ()
        return
    pred = [0] * n
    for i, heads in enumerate(succ):
        for j in heads:
            pred[j] |= 1 << i
    order: list[int] = []
    placed = 0
    # One frame per depth: the vertices available there, and the
    # smallest index not yet tried.  While a frame's last choice is
    # still placed, ``order`` is as long as the stack.
    stack = [(sum(1 << i for i in range(n) if not pred[i]), 0)]
    while stack:
        avail, low = stack[-1]
        if len(order) == len(stack):
            placed ^= 1 << order.pop()
        untried = avail >> low << low
        if not untried:
            stack.pop()
            continue
        v = (untried & -untried).bit_length() - 1
        stack[-1] = (avail, v + 1)
        order.append(v)
        placed |= 1 << v
        if len(order) == n:
            yield tuple(order)
            continue
        avail ^= 1 << v
        for w in succ[v]:
            if not pred[w] & ~placed:
                avail |= 1 << w
        stack.append((avail, 0))


def iter_topological_orders(g: Digraph, limit: int | None = None) -> Iterator[Chain]:
    """Every topological order of g as a Chain, lexicographically.

    ``limit`` caps the number of chains yielded.  A non-positive limit
    raises ValueError, and CyclicInputError is raised when g has no
    topological order at all, both on the call, before any iteration.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    _acyclic_order(g)
    indices = _iter_index_orders(len(g), g._succ)
    return islice((Chain(g.vertices[i] for i in idx) for idx in indices), limit)
