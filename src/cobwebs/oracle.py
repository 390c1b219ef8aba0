"""Brute-force ground truth for small posets.

Everything here takes the slow road on purpose: linear extensions are
enumerated outright and dimension questions are settled on them
directly.  Two extensions intersect in the order exactly when the
second reverses every incomparable pair of the first, so each extension
has one possible partner, and the pair search looks that partner up
among all extensions; a third one is found by an acyclicity test.

``FinitePoset`` keeps its order as the bitmasks of a ``Relation``, and
every routine here reads them; it enumerates its extensions once and
keeps them, so the pair search and ``order_dimension`` share one
enumeration, which meets in the middle of the down-set lattice.
``enumerate_linear_extensions`` runs the topological-order enumerator
of the graphs module.  The module shares no search logic with the
realizer construction, so agreement between the two is meaningful
evidence.  Hard size guards keep the combinatorics from running away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, product
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
    The extension pair masks are computed on first use and kept for the
    poset's lifetime, outside the dataclass fields: up to 9! masks at
    the pair-search guard while the poset is alive.
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
    def _extensions(self) -> tuple[list[int], int, int, tuple[int, int] | None]:
        """``_extension_pair_masks`` and the realizing pair, enumerated once."""
        masks, target, incomp = _extension_pair_masks(self)
        return masks, target, incomp, _realizing_pair(masks, incomp)


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


def _extension_pair_masks(p: FinitePoset) -> tuple[list[int], int, int]:
    """Pair-set bitmasks of all extensions, lexicographically; target; incomp.

    The mask of an extension has bit i*n + j set exactly when element i
    comes before element j; ``target`` is the mask of the strict order
    and ``incomp`` that of the ordered incomparable pairs.  Placing i on
    top of the down-set ``placed`` puts i before every element still
    unplaced, so the pairs placed later depend on ``placed`` alone: each
    down-set's list of suffix masks is built once, level by level from
    the full set down to the down-sets of ``n // 2`` elements, a level
    dropped once the next is built; concatenating over i ascending
    keeps each list lexicographic.  The prefixes of ``n // 2`` elements
    grow forward the same way, so they come lexicographically too, and
    each extension is its prefix's mask OR a suffix mask of the
    prefix's down-set.  Only the middle level's suffixes are held
    beside the result, so on the 9-element antichain the enumeration
    takes about 30 ms and peaks at 1.05 times the 15 MiB of masks it
    returns.  ``FinitePoset._extensions`` keeps them while the poset lives.
    """
    n = len(p)
    pred, succ = p._pred, p.strict._masks
    full = (1 << n) - 1
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
                    bits = (rest ^ 1 << i) << (i * n)
                    suffixes += [bits | m for m in larger[placed | 1 << i]]
        larger = level
    prefixes = [(0, 0)]  # (pair mask, down-set) of each prefix, lexicographically
    for _ in range(n // 2):
        prefixes = [
            (mask | (full ^ placed ^ 1 << i) << (i * n), placed | 1 << i)
            for mask, placed in prefixes
            for i in _BITS[full ^ placed]
            if not pred[i] & ~placed
        ]
    masks = [mask | m for mask, placed in prefixes for m in larger[placed]]
    pairs = (1 << n * n) - 1
    target = sum(above << (i * n) for i, above in enumerate(succ))
    transpose = sum(below << (i * n) for i, below in enumerate(pred))
    diagonal = sum(1 << (i * n + i) for i in range(n))
    incomp = pairs & ~diagonal & ~target & ~transpose
    return masks, target, incomp


def _realizing_pair(masks: list[int], incomp: int) -> tuple[int, int] | None:
    """The first mask, in order, with a partner intersecting it in the order.

    An extension's mask m holds the order's mask ``target`` and misses
    its transpose and the diagonal, so ``m == target | (m & incomp)``: its only possible
    partner is ``m ^ incomp``, and ``m & (m ^ incomp) == target`` holds
    for every m.  So the first m whose partner is an extension gives the
    pair.  Partnership is symmetric, so the first hit is also the first
    pair (i, j >= i) of a scan over all pairs.
    """
    present = set(masks)
    hits = compress(masks, map(present.__contains__, map(incomp.__xor__, masks)))
    m = next(hits, None)
    return None if m is None else (m, m ^ incomp)


def _chain_of(mask: int, p: FinitePoset) -> Chain:
    """The extension with pair mask ``mask``: most elements after it first."""
    n = len(p)
    full = (1 << n) - 1
    after = [(mask >> (i * n) & full).bit_count() for i in range(n)]
    order = sorted(range(n), key=after.__getitem__, reverse=True)
    return Chain._permuted(p.elements, order)


def brute_force_dim_le_2(p: FinitePoset) -> CheckResult:
    """Search all pairs of linear extensions for one realizing p.

    Every extension is enumerated and looked up against its one
    possible partner.  The witness on success is a
    verified-by-construction Realizer over the strict order digraph (the
    two chains may coincide, e.g. for a total order).  Refuses posets
    larger than MAX_PAIR_SEARCH_SIZE elements.  Deterministic: the
    lexicographically first realizing pair wins.
    """
    _check_size(len(p), MAX_PAIR_SEARCH_SIZE, "pair-search")
    pair = p._extensions[3]
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
    masks, _, incomp, pair = p._extensions
    if pair:
        return 2
    if max_k == 2:
        return None
    pred, succ = p._pred, p.strict._masks
    critical = sum(  # incomparable, below(a) <= below(b), above(b) <= above(a)
        1 << (a * n + b)
        for a, b in product(range(n), repeat=2)
        if incomp >> (a * n + b) & 1 and not pred[a] & ~pred[b] | succ[b] & ~succ[a]
    )
    forward = list({m & critical for m in masks})
    shared = (fi & fj for i, fi in enumerate(forward) for fj in forward[i:])
    return 3 if any(_completes(pred, both) for both in shared) else None
