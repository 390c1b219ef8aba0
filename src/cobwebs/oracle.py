"""Brute-force ground truth for small posets.

Everything here takes the slow road on purpose: linear extensions are
enumerated outright and dimension questions are settled on them
directly.  Two extensions intersect in the order exactly when the
second reverses every incomparable pair of the first, so each extension
has one possible partner, and the pair search looks that partner up
among all extensions; a third one is found by an acyclicity test.

``FinitePoset`` builds its order as bitmasks once, on validation, and
every routine here reads them; it enumerates its extensions once and
keeps them, so the pair search and ``order_dimension`` share one
enumeration.  ``enumerate_linear_extensions`` runs the
topological-order enumerator of the graphs module.  The module shares
no search logic with the realizer construction, so agreement between
the two is meaningful evidence.  Hard size guards keep the
combinatorics from running away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterator

from .graphs import (
    Arc,
    Chain,
    CheckResult,
    Digraph,
    Vertex,
    _iter_bits,
    iter_topological_orders,
    reachability,
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


class TooLargeError(ValueError):
    """The input exceeds the size guard of a brute-force routine."""


def _check_size(n: int, limit: int, guard: str) -> None:
    """Refuse n elements beyond limit with TooLargeError."""
    if n > limit:
        raise TooLargeError(f"{n} elements exceeds the {guard} guard of {limit}")


@dataclass(frozen=True)
class FinitePoset:
    """An explicit strict partial order on a tuple of elements.

    Containment of all pair endpoints in ``elements``, then the order
    axioms (irreflexivity, antisymmetry, transitivity) are validated in
    that order on construction.  A failure names the first violation in
    element order; for non-elements, the least offending pair in vertex
    order.  The extension pair masks are computed on first use and kept
    for the poset's lifetime, outside the dataclass fields: up to 9!
    masks at the pair-search guard while the poset is alive.
    """

    elements: tuple[Vertex, ...]
    strict: frozenset[Arc]
    # bit i of _pred[j] (and bit j of _succ[i]): elements[i] < elements[j]
    _pred: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _succ: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "strict", frozenset(self.strict))
        idx = {e: i for i, e in enumerate(elements)}
        if len(idx) != len(elements):
            raise ValueError("duplicate elements")
        pred, succ = [0] * len(elements), [0] * len(elements)
        for a, b in self.strict:
            i, j = idx.get(a), idx.get(b)
            if i is None or j is None:
                bad = (p for p in self.strict if p[0] not in idx or p[1] not in idx)
                a, b = min(bad)
                raise ValueError(f"pair ({a}, {b}) uses a non-element")
            pred[j] |= 1 << i
            succ[i] |= 1 << j
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
        object.__setattr__(self, "_pred", tuple(pred))
        object.__setattr__(self, "_succ", tuple(succ))

    @classmethod
    def from_digraph(cls, g: Digraph) -> FinitePoset:
        """The poset whose strict order is the reachability of g."""
        return cls(g.vertices, reachability(g).pairs)

    def strict_digraph(self) -> Digraph:
        """The strict order as a digraph, arcs in element order."""
        arcs = ((i, j) for i, row in enumerate(self._succ) for j in _iter_bits(row))
        return Digraph._from_index_arcs(self.elements, arcs)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _extensions(self) -> tuple[list[int], int, int, tuple[int, int] | None]:
        """``_extension_pair_masks`` and the realizing pair, enumerated once."""
        masks, target, incomp = _extension_pair_masks(self)
        return masks, target, incomp, _realizing_pair(masks, target, incomp)


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
    the full set down to the empty one, and a level is dropped once the
    level below it is built.  Concatenating over i ascending keeps the
    lexicographic order.  ``FinitePoset._extensions`` keeps the result
    for as long as the poset lives.
    """
    n = len(p)
    pred, succ = p._pred, p._succ
    full = (1 << n) - 1
    larger = {full: [0]}  # the suffix masks of each down-set one larger
    for _ in range(n):
        # a down-set one smaller drops one of its maximal elements
        level = {
            upper ^ 1 << i: []
            for upper in larger
            for i in _iter_bits(upper)
            if not succ[i] & upper
        }
        for placed, suffixes in level.items():
            rest = full ^ placed
            for i in _iter_bits(rest):
                if not pred[i] & rest:
                    bits = (rest ^ 1 << i) << (i * n)
                    suffixes += [bits | m for m in larger[placed | 1 << i]]
        larger = level
    masks = larger[0]
    pairs = (1 << n * n) - 1
    target = sum(above << (i * n) for i, above in enumerate(succ))
    transpose = sum(below << (i * n) for i, below in enumerate(pred))
    diagonal = sum(1 << (i * n + i) for i in range(n))
    incomp = pairs & ~diagonal & ~target & ~transpose
    return masks, target, incomp


def _realizing_pair(
    masks: list[int], target: int, incomp: int
) -> tuple[int, int] | None:
    """The first mask, in order, with a partner intersecting it in target.

    The only possible partner of m is ``target | (incomp & ~m)``.
    Partnership is symmetric, so the first hit is also the first pair
    (i, j >= i) of a scan over all pairs.
    """
    present = set(masks)
    for m in masks:
        partner = target | (incomp & ~m)
        if partner in present and m & partner == target:
            return m, partner
    return None


def _chain_of(mask: int, p: FinitePoset) -> Chain:
    """The extension with pair mask ``mask``: most elements after it first."""
    n = len(p)
    full = (1 << n) - 1
    after = [(mask >> (i * n) & full).bit_count() for i in range(n)]
    order = sorted(range(n), key=after.__getitem__, reverse=True)
    return Chain(p.elements[i] for i in order)


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
    if not 1 <= max_k <= 3:
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
    pred, succ = p._pred, p._succ
    critical = sum(  # incomparable, below(a) <= below(b), above(b) <= above(a)
        1 << (a * n + b)
        for a, b in product(range(n), repeat=2)
        if incomp >> (a * n + b) & 1 and not pred[a] & ~pred[b] | succ[b] & ~succ[a]
    )
    forward = list({m & critical for m in masks})
    shared = (fi & fj for i, fi in enumerate(forward) for fj in forward[i:])
    return 3 if any(_completes(pred, both) for both in shared) else None
