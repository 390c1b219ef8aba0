"""Brute-force ground truth for small posets.

Everything here takes the slow road on purpose: linear extensions are
enumerated outright and dimension questions are settled on them
directly.  Two extensions intersect in the order exactly when the
second reverses every incomparable pair of the first, so each extension
has one possible partner, an extension when the numbers of elements
after each of its elements differ (Landau 1953); the pair search joins
each prefix to a suffix by those numbers, and a third extension is
found by an acyclicity test.

``FinitePoset`` keeps its order as the bitmasks of a ``Relation``, which
every routine here reads, and runs one down-set dynamic program, meeting
in the middle, for both the pair search and ``order_dimension``.
``enumerate_linear_extensions`` runs the topological-order enumerator of
the graphs module.  Nothing here shares search logic with the realizer
construction, so agreement between the two is meaningful evidence.
Hard size guards keep the combinatorics from running away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterator

from .graphs import (
    Chain,
    CheckResult,
    Digraph,
    Relation,
    Vertex,
    _iter_bits,
    _reach_bits,
    iter_topological_orders,
)
from .realizers import Realizer

__all__ = [
    "FinitePoset",
    "MAX_DIMENSION_SIZE",
    "MAX_ENUMERATION_SIZE",
    "MAX_PAIR_SEARCH_SIZE",
    "TooLargeError",
    "brute_force_dim_le_2",
    "enumerate_linear_extensions",
    "order_dimension",
]

MAX_ENUMERATION_SIZE = 12
MAX_PAIR_SEARCH_SIZE = 9
MAX_DIMENSION_SIZE = 8

# _BITS[m] lists the set bits of m ascending, for every m below
# 1 << MAX_PAIR_SEARCH_SIZE: the masks of the pair search and of order_dimension.
_BITS: tuple[tuple[int, ...], ...] = ((),)
for _k in range(MAX_PAIR_SEARCH_SIZE):
    _BITS += tuple(bits + (_k,) for bits in _BITS)
del _k

_Halves = tuple[list[tuple[int, int]], dict[int, list[int]], int]


class TooLargeError(ValueError):
    """The input exceeds the size guard of a brute-force routine."""


def _check_size(n: int, limit: int, guard: str) -> None:
    """Refuse n elements beyond limit with TooLargeError."""
    if n > limit:
        raise TooLargeError(f"{n} elements exceeds the {guard} guard of {limit}")


@dataclass(frozen=True)
class FinitePoset:
    """An explicit strict partial order on a tuple of elements.

    ``strict`` is kept as a Relation over ``elements``: n**2 / 8 bytes
    of masks, with ``pairs`` building the vertex pairs on read.  A
    Relation over the same tuple is kept as given; any other set of
    pairs is sorted and resolved by the Relation constructor, which
    rejects duplicate elements, then the least pair with an endpoint
    outside ``elements``, with its messages.  The order axioms
    (irreflexivity, antisymmetry, transitivity) are then validated in
    that order, a failure naming the first violation in element order.
    The halves of the extension masks and the realizing pair are kept
    from first use for the poset's lifetime, outside the dataclass
    fields: 18,144 masks on the 9-element antichain, not its 9!.
    """

    elements: tuple[Vertex, ...]
    strict: Relation
    # bit i of _pred[j] (and bit j of strict._masks[i]): elements[i] < elements[j]
    _pred: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        elements, strict = tuple(self.elements), self.strict
        if not (isinstance(strict, Relation) and strict.vertices == elements):
            strict = Relation(elements, sorted(strict))
        succ = strict._masks
        pred = [0] * len(succ)
        for i, above in enumerate(succ):
            for j in _iter_bits(above):
                pred[j] |= 1 << i
        for i, above in enumerate(succ):
            if above >> i & 1:
                raise ValueError(f"strict order is not irreflexive at {elements[i]}")
        for i, mask in enumerate(lo & hi for lo, hi in zip(pred, succ)):
            if mask:
                a, b = elements[i], elements[(mask & -mask).bit_length() - 1]
                raise ValueError(f"strict order is not antisymmetric on {a}, {b}")
        for i, above in enumerate(succ):
            for j in _iter_bits(above):
                missing = succ[j] & ~above
                if missing:
                    a, b = elements[i], elements[j]
                    c = elements[(missing & -missing).bit_length() - 1]
                    raise ValueError(
                        f"strict order is not transitive: {a} < {b} < {c} "
                        f"but not {a} < {c}"
                    )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "strict", strict)
        object.__setattr__(self, "_pred", tuple(pred))

    @classmethod
    def from_digraph(cls, g: Digraph) -> FinitePoset:
        """The poset whose strict order is the reachability of g, from _reach_bits."""
        return cls(g.vertices, Relation._from_masks(g.vertices, _reach_bits(g), g._index))

    def strict_digraph(self) -> Digraph:
        """The strict order as a digraph, arcs in element order.

        That order is canonical, so the digraph keeps no tails array.
        """
        succ = [list(_iter_bits(row)) for row in self.strict._masks]
        return Digraph._from_succ(self.elements, succ, None)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _extensions(self) -> tuple[_Halves, tuple[int, int] | None]:
        """``_extension_halves`` and the realizing pair, computed once."""
        halves = _extension_halves(self)
        return halves, _realizing_pair(halves, len(self))


def enumerate_linear_extensions(
    p: FinitePoset, limit: int | None = None
) -> Iterator[Chain]:
    """Every linear extension of p as a Chain, lexicographically.

    Lexicographic order is with respect to element positions in
    ``p.elements``.  ``limit`` caps the number of chains yielded.
    Refuses posets larger than MAX_ENUMERATION_SIZE elements, and a
    non-positive limit, on the call, before any iteration.
    """
    _check_size(len(p), MAX_ENUMERATION_SIZE, "enumeration")
    return iter_topological_orders(p.strict_digraph(), limit)


def _extension_halves(p: FinitePoset) -> _Halves:
    """The (mask, down-set) prefixes, the suffix masks of each middle down-set; incomp.

    The pair mask of an extension has bit i*n + j set exactly when
    element i comes before element j; ``incomp`` is the mask of the
    ordered incomparable pairs.  Placing i on top of the down-set
    ``placed`` puts i before every element still unplaced, so the pairs
    placed later depend on ``placed`` alone: each down-set's list of
    suffix masks is built once, level by level from the full set down
    to the down-sets of ``n // 2`` elements, a level dropped once the
    next is built; concatenating over i ascending keeps each list
    lexicographic.  The (mask, down-set) prefixes of ``n // 2`` elements
    grow forward the same way, lexicographically too, and each extension
    is its prefix's mask OR a suffix mask of the prefix's down-set.  The
    count of elements after i in the partner ``m ^ incomp``, those above
    i and the incomparable ones before it in m, depends on ``placed``
    alone too: each mask also sets bit n*n + count per element it places.
    """
    n = len(p)
    pred, succ = p._pred, p.strict._masks
    full = (1 << n) - 1

    def row(placed: int, i: int) -> int:
        count = (placed ^ pred[i] ^ succ[i]).bit_count()
        return (full ^ placed ^ 1 << i) << (i * n) | 1 << n * n + count
    larger = {full: [0]}  # the suffix masks of each down-set one larger
    for _ in range(n - n // 2):
        # a down-set one smaller drops one of its maximal elements
        level = {
            upper ^ 1 << i: []
            for upper in larger
            for i in _BITS[upper]
            if not succ[i] & upper
        }
        for placed, suffixes in level.items():
            rest = full ^ placed
            for i in _BITS[rest]:
                if not pred[i] & rest:
                    bits = row(placed, i)
                    suffixes += [bits | m for m in larger[placed | 1 << i]]
        larger = level
    prefixes = [(0, 0)]  # (mask, down-set) of each prefix, lexicographically
    for _ in range(n // 2):
        prefixes = [
            (mask | row(placed, i), placed | 1 << i)
            for mask, placed in prefixes
            for i in _BITS[full ^ placed]
            if not pred[i] & ~placed
        ]
    incomp = sum((full ^ 1 << i ^ pred[i] ^ succ[i]) << (i * n) for i in range(n))
    return prefixes, larger, incomp


def _extension_pair_masks(p: FinitePoset) -> tuple[list[int], int, int]:
    """All extension masks, lexicographically, count bits stripped; target; incomp."""
    (prefixes, suffixes, incomp), _ = p._extensions
    n = len(p)
    pairs = (1 << n * n) - 1
    masks = [(mask | m) & pairs for mask, placed in prefixes for m in suffixes[placed]]
    target = sum(above << (i * n) for i, above in enumerate(p.strict._masks))
    return masks, target, incomp


def _realizing_pair(halves: _Halves, n: int) -> tuple[int, int] | None:
    """The first extension mask, in order, whose partner is an extension.

    An extension's mask m holds the order's and misses its transpose, so
    its only possible partner is ``m ^ incomp``, meeting it in the order.
    That partner is a tournament holding the order, so it is an
    extension exactly when its n counts differ (Landau 1953): when the
    count sets of m's prefix and suffix partition ``range(n)``.  Each
    prefix looks that suffix up among its down-set's, keyed on first use
    by the first suffix per count set.  Partnership is symmetric, so the
    first hit is the first pair (i, j >= i) of a scan over all pairs.
    """
    prefixes, suffixes, incomp = halves
    top, full = n * n, (1 << n) - 1
    joins: dict[int, dict[int, int]] = {}
    for mask, placed in prefixes:
        if placed not in joins:
            joins[placed] = {m >> top: m for m in reversed(suffixes[placed])}
        m = joins[placed].get(mask >> top ^ full)
        if m is not None:
            m = (mask | m) & (1 << top) - 1
            return m, m ^ incomp
    return None


def _chain_of(mask: int, p: FinitePoset) -> Chain:
    """The extension with pair mask ``mask``: most elements after it first."""
    n = len(p)
    full = (1 << n) - 1
    after = [(mask >> (i * n) & full).bit_count() for i in range(n)]
    order = sorted(range(n), key=after.__getitem__, reverse=True)
    return Chain._permuted(p.elements, order)


def brute_force_dim_le_2(p: FinitePoset) -> CheckResult:
    """Search all pairs of linear extensions for one realizing p.

    Each extension's prefix is joined to the suffixes that make its one
    possible partner an extension.  The witness on success is a
    verified-by-construction Realizer over the strict order digraph (the
    two chains may coincide, e.g. for a total order).  Refuses posets
    larger than MAX_PAIR_SEARCH_SIZE elements.  Deterministic: the
    lexicographically first realizing pair wins.
    """
    _check_size(len(p), MAX_PAIR_SEARCH_SIZE, "pair-search")
    pair = p._extensions[1]
    if pair is None:
        return CheckResult(False)
    first, second = (_chain_of(m, p) for m in pair)
    return CheckResult(True, Realizer(first, second, p.strict_digraph()))


def _completes(pred: tuple[int, ...], pairs: int) -> bool:
    """Whether the order stays acyclic with each pair bit (a, b) of pairs reversed."""
    n = len(pred)
    full = (1 << n) - 1
    rows = [row | pairs >> (a * n) & full for a, row in enumerate(pred)]
    left, stuck = full, 0
    while left != stuck:
        stuck = left
        for a, row in enumerate(rows):
            if not row & left:
                left &= ~(1 << a)
    return not left


def order_dimension(p: FinitePoset, max_k: int = 3) -> int | None:
    """Smallest number of linear extensions intersecting in p, up to max_k.

    Returns None when the dimension exceeds ``max_k`` (1, 2 or 3).
    Extensions realize p exactly when each critical pair is reversed by
    one (Trotter, *Dimension Theory*, 1992), and a third extension
    reverses the critical pairs two others put forward exactly when the
    order stays acyclic with them reversed.  Refuses posets beyond
    MAX_DIMENSION_SIZE elements, which admits S4 (dimension 4).
    """
    if max_k not in (1, 2, 3):
        raise ValueError(f"max_k must be 1, 2 or 3, got {max_k}")
    n = len(p)
    _check_size(n, MAX_DIMENSION_SIZE, "dimension")
    if len(p.strict) == n * (n - 1) // 2:
        return 1
    if max_k == 1:
        return None
    if p._extensions[1]:
        return 2
    if max_k == 2:
        return None
    masks, _, incomp = _extension_pair_masks(p)
    pred, succ = p._pred, p.strict._masks
    critical = sum(  # incomparable, below(a) <= below(b), above(b) <= above(a)
        1 << (a * n + b)
        for a, b in product(range(n), repeat=2)
        if incomp >> (a * n + b) & 1 and not pred[a] & ~pred[b] | succ[b] & ~succ[a]
    )
    forward = list({m & critical for m in masks})
    shared = (fi & fj for i, fi in enumerate(forward) for fj in forward[i:])
    return 3 if any(_completes(pred, both) for both in shared) else None
