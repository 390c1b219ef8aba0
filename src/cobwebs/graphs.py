"""Finite digraphs and the order-theoretic checks built on them.

Everything downstream (cobweb construction, the orderability decider,
the brute force oracle) works over the small vocabulary defined here:
vertices labelled by position and level, digraphs with deterministic
iteration order, chains, and reachability relations.  A Digraph stores
its arcs only as successor lists, plus an array of tails when their
order is not the canonical one.  Every order query reads one analysis,
_along: a bitmask per vertex in the caller's numbering (vertex indices,
Kahn's order or a chain), from one reverse and one forward pass over
vertices or twin classes; only the oracle's input has its own per-arc
pass.  Vertex objects appear only where a result is handed back.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter, deque
from itertools import chain, filterfalse, islice, repeat
from operator import itemgetter, ne
from dataclasses import dataclass
from typing import Any, Collection, Iterable, Iterator, Sequence

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
    """Element at 1-based ``position`` within layer ``level``.

    Slotted: no instance dict (``dataclasses.asdict``, not ``vars``) and
    no weak references.  The state is the field dict, set through
    ``__init__``, so a vertex pickled with an instance dict loads too.
    """

    # written out: Python 3.10's slots=True would replace __getstate__ and
    # __setstate__ with its own, which read the state as a field list
    __slots__ = ("position", "level")
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

    def __getstate__(self) -> dict[str, int]:
        return {"position": self.position, "level": self.level}

    def __setstate__(self, state: dict[str, int]) -> None:
        self.__init__(**state)


def _vertices(keys: Collection[Sequence[int]]) -> list[Vertex]:
    """``Vertex(position, level)`` for each key, made in C steps.

    Each vertex is made without ``__init__``, and its two slots are set
    past the frozen ``__setattr__``.  Skips ``__post_init__``: the caller
    guarantees int coordinates with position >= 1 and level >= 0.
    """
    vs = list(map(object.__new__, repeat(Vertex, len(keys))))
    deque(map(object.__setattr__, vs, repeat("position"), map(itemgetter(0), keys)), 0)
    deque(map(object.__setattr__, vs, repeat("level"), map(itemgetter(1), keys)), 0)
    return vs


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
    arcs with unknown endpoints are rejected, the first fault in input
    order deciding the message.  No arc is stored as a pair: ``_succ[t]``
    lists t's heads in insertion order, and ``_m`` counts the arcs.
    The arc order is canonical when the tails come in vertex order, each
    tail's heads in list order; ``_tails`` is then None.  Otherwise the
    ``array('I')`` ``_tails`` holds each arc's tail in order, 4 bytes per
    arc, and arc k's head is the next unread head of its tail.  Either
    way ``_pairs`` yields the index pairs in order, and ``arcs`` builds
    the vertex pairs on each read.  The constructor and the readers keep
    a tails array and drop repeated arcs; the cobweb builder,
    ``FinitePoset.strict_digraph`` and ``transitive_reduction`` of a
    canonical digraph keep none, and make no repeats.  Every digraph
    builds its ``_index`` of vertex to index on first lookup; the
    constructor resolves its arcs through a dict that it then drops.  A
    copy or an unpickled digraph holds the index only if the original did.
    """

    __slots__ = ("vertices", "_index", "_succ", "_tails", "_m")

    def __init__(self, vertices: Iterable[Vertex], arcs: Iterable[Arc] = ()) -> None:
        vs = tuple(vertices)
        index = _vertex_index(vs)
        succ: list[list[int]] = [[] for _ in vs]
        tails = array("I")
        for tail, head in arcs:
            t, h = index.get(tail), index.get(head)
            if t is None or h is None or t == h:
                _resolved(index, [(tail, head)], vs)  # raises, wording the fault
            succ[t].append(h)
            tails.append(t)
        self._keep(vs, succ, tails)

    @classmethod
    def _from_succ(
        cls, vertices: Iterable[Vertex], succ: list[list[int]], tails: array | None
    ) -> Digraph:
        """A Digraph that keeps the successor lists and tails array it is given.

        For distinct vertices and loop-free arcs, such as the readers'
        and the cobweb builder's; neither is checked here.  ``succ[t]``
        lists t's heads in insertion order; ``tails`` lists the tails in
        that order, or is None for the canonical order (every tail's
        heads in turn, in vertex order).  Tails may share one list.  Only
        arcs with a tails array are checked for repeats (``_keep``);
        canonical lists, which must not repeat a head, are kept as given,
        and no vertex is hashed until the first lookup.
        """
        g = cls.__new__(cls)
        g._keep(tuple(vertices), succ, tails)
        return g

    def __getattr__(self, name: str) -> Any:  # only for a slot not yet set
        if name != "_index":
            raise AttributeError(name)
        self._index: dict[Vertex, int] = dict(zip(self.vertices, range(len(self))))
        return self._index

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        """No dict, and the slots that are set, read past ``__getattr__``.

        So a copy or a pickle builds no index (nor a chain's rank), at
        every protocol; copy and pickle restore such a state without a
        ``__setstate__``.  Relation, Chain and CobwebPoset share it.
        """
        slots = {}
        for name in self.__slots__:
            try:
                slots[name] = object.__getattribute__(self, name)
            except AttributeError:
                pass
        return None, slots

    def _keep(
        self, vs: tuple[Vertex, ...], succ: list[list[int]], tails: array | None
    ) -> None:
        """Store the fields, keeping the first occurrence of each arc, in order.

        Only lists with a tails array (from the readers, the constructor
        or the reduction of a read graph) can repeat a head; a ``set`` of
        each finds a repeat in C, and only then are the tails array and
        the lists rebuilt without the repeats, through ``dict.fromkeys``.
        Lists without repeats are kept, and no set of all the arcs is built.
        """
        self.vertices, self._succ, self._tails = vs, succ, tails
        if tails is not None and any(map(ne, map(len, map(set, succ)), map(len, succ))):
            self._tails = array("I", map(itemgetter(0), dict.fromkeys(self._pairs())))
            self._succ = [list(dict.fromkeys(heads)) for heads in succ]
        self._m = sum(map(len, self._succ))

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """The arcs as index pairs, in insertion order, without a Python step per arc.

        Without a tails array each tail is repeated once per head; with
        one, each tail gets its own iterator over its successor list, so
        the pairs come out right when tails share one list.
        """
        if self._tails is None:
            per_tail = map(repeat, range(len(self._succ)), map(len, self._succ))
            return zip(chain.from_iterable(per_tail), chain.from_iterable(self._succ))
        its = list(map(iter, self._succ))
        return zip(self._tails, map(next, map(its.__getitem__, self._tails)))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as vertex pairs, in first-insertion order, built on each read."""
        vs = self.vertices
        return tuple([(vs[t], vs[h]) for t, h in self._pairs()])

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        # equal vertex tuples give equal index maps, so each tail's heads compare
        return self.vertices == other.vertices and all(
            a is b or len(a) == len(b) and set(a) == set(b)
            for a, b in zip(self._succ, other._succ)
        )

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(map(frozenset, self._succ))))

    def __repr__(self) -> str:
        return f"Digraph({len(self.vertices)} vertices, {self._m} arcs)"

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
    index: dict[Vertex, int],
    arcs: Iterable[Arc],
    vs: Sequence[Vertex] | None = None,
) -> list[tuple[int, int]]:
    """The arcs as a list of index pairs, resolved through ``index`` in input order.

    An unknown endpoint, tail before head, raises ValueError.  Given
    the vertices ``vs``, a loop raises too, so the first of either
    fault decides the message.
    """
    out = []
    for tail, head in arcs:
        t, h = index.get(tail), index.get(head)
        if t is None or h is None:
            unknown = tail if t is None else head
            raise ValueError(f"arc endpoint {unknown} is not a vertex")
        if t == h and vs is not None:
            raise ValueError(f"loop at {vs[t]}")
        out.append((t, h))
    return out


class Relation:
    """A set of ordered vertex pairs over a fixed vertex tuple, one bitmask per vertex.

    Used both for reachability of a digraph and for the strict order of
    a poset.  Bit j of the mask of vertices[i] is set when the pair
    (vertices[i], vertices[j]) is in the relation, so a relation over n
    vertices holds n**2 / 8 bytes of masks; ``pairs`` builds the
    frozenset of vertex pairs on each read.  Two relations compare
    equal when they have the same vertex tuple, in the same order, and
    relate its vertices the same way; the same pairs over a reordered
    vertex tuple compare unequal.  Iteration yields the pairs in vertex
    order.  The constructor rejects duplicate vertices and pairs with an
    endpoint outside ``vertices`` (ValueError).
    """

    __slots__ = ("vertices", "_masks", "_index")
    __getstate__ = Digraph.__getstate__

    def __init__(self, vertices: Iterable[Vertex], pairs: Iterable[Arc]) -> None:
        vs = tuple(vertices)
        index = _vertex_index(vs)
        masks = [0] * len(vs)
        for i, j in _resolved(index, pairs):
            masks[i] |= 1 << j
        self.vertices, self._masks, self._index = vs, tuple(masks), index

    @classmethod
    def _from_masks(
        cls, vertices: tuple[Vertex, ...], masks: Iterable[int], index: dict[Any, int]
    ) -> Relation:
        """The relation of the masks over ``vertices``, which ``index`` numbers."""
        r = cls.__new__(cls)
        r.vertices, r._masks, r._index = vertices, tuple(masks), index
        return r

    @property
    def pairs(self) -> frozenset[Arc]:
        """The pairs as a frozenset, built on each read."""
        return frozenset(self)

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            hash(pair)  # an unhashable value raises TypeError, as in a frozenset
            return False
        u, v = pair
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j is not None and self._masks[i] >> j & 1 == 1

    def __len__(self) -> int:
        return sum(m.bit_count() for m in self._masks)

    def __iter__(self) -> Iterator[Arc]:
        vs, rows = self.vertices, enumerate(self._masks)
        return ((vs[i], vs[j]) for i, m in rows for j in _iter_bits(m))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.vertices == other.vertices and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.vertices, self._masks))

    def __repr__(self) -> str:
        return f"Relation({len(self.vertices)} vertices, {len(self)} pairs)"


class Chain:
    """Total order on a vertex set, stored as an explicit sequence.

    Ranks are built on first read; ``Chain(order)`` reads them to reject repeats.
    """

    __slots__ = ("order", "_rank")
    __getstate__ = Digraph.__getstate__

    def __init__(self, order: Iterable[Vertex]) -> None:
        self.order: tuple[Vertex, ...] = tuple(order)
        if len(self._rank) != len(self.order):
            raise ValueError("chain repeats a vertex")

    @classmethod
    def _permuted(cls, vertices: Sequence[Vertex], perm: Iterable[int]) -> Chain:
        """The chain of vertices[i] for i in perm, trusted not to repeat a vertex."""
        chain = cls.__new__(cls)
        chain.order = tuple(map(vertices.__getitem__, perm))
        return chain

    def __getattr__(self, name: str) -> Any:  # only for a slot not yet set
        if name != "_rank":
            raise AttributeError(name)
        self._rank: dict[Vertex, int] = {v: i for i, v in enumerate(self.order)}
        return self._rank

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


Analysis = tuple[list[int], list[int], list[int], list[int], list[int]]
Classes = dict[int, list[int]]  # per twin class, named by its least vertex
Twins = tuple[list[int], Classes, Classes]
Successors = Sequence[list[int]] | Classes  # per vertex or per twin class


def _position_reach(
    succ: Successors, order: Sequence[int], slot: Sequence[int], at: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Reach and redundant-head masks along a chain, from one reverse pass.

    A node is a vertex, with ``at[i] == 1 << pos_of[i]`` and ``slot[i]
    == pos_of[i]``, or a twin class whose ``at`` holds its members'
    positions (_along_twins).  ``order`` is a topological order of the
    nodes and ``slot[i]`` indexes node i's masks.  Bit q of
    ``reach[slot[i]]`` is set when position q is reachable, via >= 1
    arc, from i.  ``red[slot[i]]`` holds i's redundant heads: those that
    another head reaches.  With ``pos_of`` the identity, positions are
    vertex indices.
    """
    reach = [0] * len(slot)
    red = [0] * len(slot)
    for i in reversed(order):
        acc = heads = 0
        for j in succ[i]:
            acc |= reach[slot[j]]
            heads |= at[j]
        s = slot[i]
        red[s] = acc & heads
        reach[s] = acc | heads
    return reach, red


def _above_masks(
    succ: Successors, order: Sequence[int], slot: Sequence[int], at: Sequence[int]
) -> list[int]:
    """Per node, the chain positions from which it is reachable.

    The arguments are _position_reach's; bit q of ``above[slot[i]]`` is
    set when node i is reachable, via >= 1 arc, from position q.  One
    forward pass over the arcs.
    """
    above = [0] * len(slot)
    for i in order:
        mask = above[slot[i]] | at[i]
        for j in succ[i]:
            above[slot[j]] |= mask
    return above


def _twin_classes(succ: list[list[int]]) -> Twins:
    """The classes of twins, vertices with equal successor and predecessor sets.

    A class is named by its least vertex.  Returns ``cls_of`` (each
    vertex's class), ``members`` (each class's vertices, ascending, in
    class order) and ``qsucc`` (each class's successor classes in the
    quotient).  Twins are never adjacent, and the arcs between two
    classes are all or none.  The vertices are grouped by successor
    set, keyed once per distinct list object (the cobweb builder shares
    one per level) and then by length and sum; a group makes its one
    frozenset only when another list has its key.  A vertex's
    predecessor set is the union of the successor groups that list it,
    so the groups listing it refine the grouping into the twin classes;
    only vertices in a group of two or more are refined.

    _along takes the classes past two cut points, measured on Python
    3.11 against its per-arc passes.  First, m >= 6n, an O(1) test
    that rules out sparse inputs before any grouping: on twin-free
    random DAGs of 300 to 3,000 vertices the grouping alone costs 1.2
    to 1.45 times the per-arc passes at m = 2n, 0.6 to 0.8 times at 4n
    and 0.5 to 0.6 times at 6n.  Second, a quotient that drops at least
    6n arcs: on cobwebs read from JSON the class path costs 1.27 times
    the per-arc passes at const:5 (a drop of 4.8n), 1.05 to 1.12 times
    at const:6 (5.8n) and 0.8 to 0.9 times at const:8 (7.7n); on built
    cobwebs, whose levels share one successor list, it breaks even
    between const:4 and const:5 (3.9n and 4.8n).
    """
    n = len(succ)
    by_list: dict[int, int] = {}  # id of a successor list -> its group
    by_key: dict[tuple[int, int], list[int]] = {}  # (length, sum) -> the groups
    group_heads: list[list[int]] = []  # each group's first successor list
    group_set: list[frozenset[int] | None] = []  # made once a key is shared
    group = [0] * n
    for i, heads in enumerate(succ):
        k = by_list.get(id(heads))
        if k is None:
            same = by_key.setdefault((len(heads), sum(heads)), [])
            for k in same:
                if group_set[k] is None:
                    group_set[k] = frozenset(group_heads[k])
                if group_set[k].issuperset(heads):  # of equal length: equal
                    break
            else:
                k = len(group_heads)
                same.append(k)
                group_heads.append(heads)
                group_set.append(None)
            by_list[id(heads)] = k
        group[i] = k
    cls_of = list(range(n))
    if len(group_heads) < n:
        size = Counter(group)
        # the groups listing i, for each i in a shared group, in ascending order
        # so that the least vertex names its class
        listed_by = {i: [] for i, k in enumerate(group) if size[k] > 1}
        for k, heads in enumerate(group_heads):
            for j in listed_by.keys() & heads:
                listed_by[j].append(k)
        classes: dict[tuple[int, tuple[int, ...]], int] = {}
        for i, listing in listed_by.items():
            cls_of[i] = classes.setdefault((group[i], tuple(listing)), i)
        twins = {i for i in listed_by if cls_of[i] != i}
        if twins:
            members: dict[int, list[int]] = {}
            for i, c in enumerate(cls_of):
                members.setdefault(c, []).append(i)
            heads_of = [list(filterfalse(twins.__contains__, h)) for h in group_heads]
            return cls_of, members, {c: heads_of[group[c]] for c in members}
    # no twins: every class is one vertex, and the quotient is g
    return cls_of, {i: [i] for i in range(n)}, dict(enumerate(succ))


def _along_twins(
    cls_of: list[int], members: Classes, qsucc: Classes, pos_of: Sequence[int] | None = None
) -> Analysis:
    """_along's lists from the twin classes: Python steps per vertex and class arc only.

    Kahn's heap holds vertex indices and receives every member of a
    class at once: twins have the same predecessors, so the per-arc
    pass also makes them available at the same pop.  The classes
    finish in a topological order of the quotient, along which
    _position_reach and _above_masks run over the quotient arcs, with
    its members' positions (_along's ``pos_of``) as a class's ``at``.  A
    class's masks are stored at the class and shared by its members,
    whose masks are equal since they have the same successors and predecessors.
    """
    n = len(cls_of)
    indeg = [0] * n  # per class, its predecessor classes not yet finished
    for heads in qsucc.values():
        for d in heads:
            indeg[d] += 1
    left = [0] * n  # per class, its members not yet popped
    for c, m in members.items():
        left[c] = len(m)
    avail = [i for c, m in members.items() if not indeg[c] for i in m]
    heapq.heapify(avail)
    first: list[int] = []
    done: list[int] = []  # the classes, in the order their last member left the heap
    while avail:
        i = heapq.heappop(avail)
        first.append(i)
        c = cls_of[i]
        left[c] -= 1
        if not left[c]:
            done.append(c)
            for d in qsucc[c]:
                indeg[d] -= 1
                if not indeg[d]:
                    for j in members[d]:
                        heapq.heappush(avail, j)
    if len(first) != n:
        raise CyclicInputError("digraph contains a directed cycle")
    by_pos = first if pos_of is None else _inverse(pos_of)  # the vertex at each position
    pos_of = _inverse(by_pos) if pos_of is None else pos_of
    at = [0] * n  # per class, its members' positions
    for i, c in enumerate(cls_of):
        at[c] |= 1 << pos_of[i]
    slot = range(n)
    masks = (*_position_reach(qsucc, done, slot, at), _above_masks(qsucc, done, slot, at))
    cls_at = list(map(cls_of.__getitem__, by_pos))
    return first, pos_of, *(list(map(m.__getitem__, cls_at)) for m in masks)


def _along(g: Digraph, pos_of: Sequence[int] | None = None) -> Analysis:
    """Kahn's order of g, ``pos_of``, and the reach, redundant-head and above masks in it.

    The one analysis behind every order query (CyclicInputError for
    cyclic g); vertex i's masks sit at ``pos_of[i]``, Kahn's position by
    default.  When the twin quotient drops at least 6n of the m arcs, it
    runs on the classes (_twin_classes, whose docstring gives the cut
    points, and _along_twins); otherwise it is one Kahn pass, then the
    same reverse and forward passes (_position_reach, _above_masks) over
    the arcs, one position bit per vertex as ``at``.  Both give the same lists.
    """
    n, m = len(g), g._m
    if m >= 6 * n:
        twins = _twin_classes(g._succ)
        if m - sum(map(len, twins[2].values())) >= 6 * n:
            return _along_twins(*twins, pos_of)
    first = _acyclic_order(g)
    pos_of = _inverse(first) if pos_of is None else pos_of
    at = [1 << p for p in pos_of]
    reach, red = _position_reach(g._succ, first, pos_of, at)
    return first, pos_of, reach, red, _above_masks(g._succ, first, pos_of, at)


def _reach_bits(g: Digraph) -> list[int]:
    """The oracle's input: per-arc reach masks by vertex index, independent of _along."""
    slot = range(len(g))
    return _position_reach(g._succ, _acyclic_order(g), slot, [1 << i for i in slot])[0]


def reachability(g: Digraph) -> Relation:
    """All pairs (u, w) with a directed path of length >= 1 from u to w.

    The result is irreflexive because g is required to be acyclic
    (CyclicInputError otherwise); its masks are _along's over vertex indices.
    """
    return Relation._from_masks(g.vertices, _along(g, range(len(g)))[2], g._index)


def _regularity(g: Digraph, pos_of: Sequence[int], red: list[int]) -> CheckResult:
    """is_regular from the redundant-head masks of one chain's pass.

    g is regular exactly when no vertex has a redundant head; only
    otherwise are the arcs scanned for the first redundant one.
    """
    if any(red):
        for t, h in g._pairs():
            if red[pos_of[t]] >> pos_of[h] & 1:
                return CheckResult(False, (g.vertices[t], g.vertices[h]))
    return CheckResult(True)


def transitive_reduction(g: Digraph) -> Digraph:
    """The unique minimal subgraph of g with the same reachability.

    Uniqueness holds because g is acyclic; an arc is dropped exactly
    when its head is in its tail's redundant-head mask (_along, over
    vertex indices).  A regular g is returned itself.  Otherwise the
    kept arcs keep g's order, so a canonical g gives a canonical result.
    """
    red = _along(g, range(len(g)))[3]
    if not any(red):
        return g
    succ = [[h for h in heads if not red[t] >> h & 1] for t, heads in enumerate(g._succ)]
    tails = None
    if g._tails is not None:
        tails = array("I", [t for t, h in g._pairs() if not red[t] >> h & 1])
    return Digraph._from_succ(g.vertices, succ, tails)


def is_regular(g: Digraph) -> CheckResult:
    """Whether g equals its own transitive reduction.

    Reads the redundant-head masks of _along, in Kahn's numbering.  On
    failure the witness is the first redundant arc in insertion order,
    i.e. an arc whose endpoints are also joined by a longer path.
    """
    _, pos_of, _, red, _ = _along(g)
    return _regularity(g, pos_of, red)


def _chain_positions(c: Chain, g: Digraph) -> list[int]:
    """pos_of[i] = position along c of vertex i of g; c must cover g.

    Reads g's index over c's vertices and inverts the result, as
    verify_realizer does; no rank dict is built.
    """
    order = [g._index.get(v) for v in c.order]
    # a chain's vertices are distinct, so it covers g when all n are in g
    if len(order) != len(g) or None in order:
        raise VertexSetMismatchError(
            "chain does not cover exactly the digraph's vertex set"
        )
    return _inverse(order)


def is_linear_extension(c: Chain, g: Digraph) -> bool:
    """True when every arc of g goes forward along c.

    Requires c to cover exactly the vertices of g
    (VertexSetMismatchError otherwise).  A cyclic digraph has no linear
    extension, so the answer is then False for every chain.
    """
    pos_of = _chain_positions(c, g)
    return all(pos_of[t] < pos_of[h] for t, h in g._pairs())


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
    hit = _admissibility_witness(_along(g, _chain_positions(c, g))[2])
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
    return islice((Chain._permuted(g.vertices, idx) for idx in indices), limit)
