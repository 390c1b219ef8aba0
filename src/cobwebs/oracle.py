"""Brute-force ground truth for small posets.

Everything here takes the slow road on purpose: linear extensions are
enumerated outright and dimension questions are settled by scanning
pairs or triples of extensions for one whose intersection reproduces
the order.  The module shares no search logic with the realizer
construction, so agreement between the two is meaningful evidence.
Hard size guards keep the combinatorics from running away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .graphs import Arc, Chain, CheckResult, Digraph, Vertex, reachability
from .realizers import Realizer

if TYPE_CHECKING:
    import numpy as np

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
MAX_DIMENSION_SIZE = 7

_WORD = (1 << 64) - 1


class TooLargeError(ValueError):
    """The input exceeds the size guard of a brute-force routine."""


@dataclass(frozen=True)
class FinitePoset:
    """An explicit strict partial order on a tuple of elements.

    The order axioms (irreflexivity, antisymmetry, transitivity) are
    validated on construction, as is containment of all pair endpoints
    in ``elements``.
    """

    elements: tuple[Vertex, ...]
    strict: frozenset[Arc]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "strict", frozenset(self.strict))
        members = set(self.elements)
        if len(members) != len(self.elements):
            raise ValueError("duplicate elements")
        succ: dict[Vertex, set[Vertex]] = {e: set() for e in self.elements}
        for a, b in self.strict:
            if a not in members or b not in members:
                raise ValueError(f"pair ({a}, {b}) uses a non-element")
            if a == b:
                raise ValueError(f"strict order is not irreflexive at {a}")
            succ[a].add(b)
        for a, b in self.strict:
            if (b, a) in self.strict:
                raise ValueError(f"strict order is not antisymmetric on {a}, {b}")
        for a in self.elements:
            for b in succ[a]:
                missing = succ[b] - succ[a]
                if missing:
                    c = next(iter(missing))
                    raise ValueError(
                        f"strict order is not transitive: {a} < {b} < {c} "
                        f"but not {a} < {c}"
                    )

    @classmethod
    def from_digraph(cls, g: Digraph) -> FinitePoset:
        """The poset whose strict order is the reachability of g."""
        return cls(g.vertices, reachability(g).pairs)

    def strict_digraph(self) -> Digraph:
        """The strict order as a digraph, arcs in element order."""
        idx = {e: i for i, e in enumerate(self.elements)}
        arcs = sorted(self.strict, key=lambda p: (idx[p[0]], idx[p[1]]))
        return Digraph(self.elements, arcs)

    def __len__(self) -> int:
        return len(self.elements)


def _predecessor_masks(p: FinitePoset) -> list[int]:
    idx = {e: i for i, e in enumerate(p.elements)}
    pred = [0] * len(p.elements)
    for a, b in p.strict:
        pred[idx[b]] |= 1 << idx[a]
    return pred


def _iter_extension_indices(pred: list[int]) -> Iterator[tuple[int, ...]]:
    """Index tuples of all linear extensions, lexicographically.

    Straightforward backtracking: a candidate may be placed once all of
    its predecessors are placed.  Written independently of the
    topological-order enumerator in the graphs module; the test suite
    cross-checks the two.
    """
    n = len(pred)
    out: list[int] = []

    def walk(placed: int) -> Iterator[tuple[int, ...]]:
        if len(out) == n:
            yield tuple(out)
            return
        for i in range(n):
            bit = 1 << i
            if placed & bit or pred[i] & ~placed:
                continue
            out.append(i)
            yield from walk(placed | bit)
            out.pop()

    yield from walk(0)


def enumerate_linear_extensions(
    p: FinitePoset, limit: int | None = None
) -> Iterator[Chain]:
    """Yield every linear extension of p as a Chain, lexicographically.

    Lexicographic order is with respect to element positions in
    ``p.elements``.  ``limit`` caps the number of chains yielded.
    Refuses posets larger than MAX_ENUMERATION_SIZE elements.
    """
    if len(p) > MAX_ENUMERATION_SIZE:
        raise TooLargeError(
            f"{len(p)} elements exceeds the enumeration guard "
            f"of {MAX_ENUMERATION_SIZE}"
        )
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    count = 0
    for idx in _iter_extension_indices(_predecessor_masks(p)):
        yield Chain(p.elements[i] for i in idx)
        count += 1
        if limit is not None and count >= limit:
            return


def _extension_pair_masks(p: FinitePoset) -> tuple[list[tuple[int, ...]], list[int], int]:
    """All extensions with their pair-set bitmasks, plus the target mask.

    The mask of an extension has bit i*n + j set exactly when element i
    comes before element j.  Two extensions realize the order exactly
    when their masks intersect in the target mask (every extension's
    mask is a superset of it).
    """
    n = len(p)
    extensions = list(_iter_extension_indices(_predecessor_masks(p)))
    masks = []
    for ext in extensions:
        seen_after = 0
        mask = 0
        for e in reversed(ext):
            mask |= seen_after << (e * n)
            seen_after |= 1 << e
        masks.append(mask)
    idx = {e: i for i, e in enumerate(p.elements)}
    target = 0
    for a, b in p.strict:
        target |= 1 << (idx[a] * n + idx[b])
    return extensions, masks, target


def _split_words(masks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    lo = np.array([m & _WORD for m in masks], dtype=np.uint64)
    hi = np.array([m >> 64 for m in masks], dtype=np.uint64)
    return lo, hi


def brute_force_dim_le_2(p: FinitePoset) -> CheckResult:
    """Search all pairs of linear extensions for one realizing p.

    The witness on success is a verified-by-construction Realizer over
    the strict order digraph (the two chains may coincide, e.g. for a
    total order).  Refuses posets larger than MAX_PAIR_SEARCH_SIZE
    elements.  Deterministic: the lexicographically first realizing
    pair wins.
    """
    import numpy as np

    if len(p) > MAX_PAIR_SEARCH_SIZE:
        raise TooLargeError(
            f"{len(p)} elements exceeds the pair-search guard "
            f"of {MAX_PAIR_SEARCH_SIZE}"
        )
    extensions, masks, target = _extension_pair_masks(p)
    lo, hi = _split_words(masks)
    target_lo = np.uint64(target & _WORD)
    target_hi = np.uint64(target >> 64)
    for i in range(len(masks)):
        hits = np.nonzero(
            ((lo[i:] & lo[i]) == target_lo) & ((hi[i:] & hi[i]) == target_hi)
        )[0]
        if hits.size:
            j = i + int(hits[0])
            realizer = Realizer(
                Chain(p.elements[k] for k in extensions[i]),
                Chain(p.elements[k] for k in extensions[j]),
                p.strict_digraph(),
            )
            return CheckResult(True, realizer)
    return CheckResult(False)


def _check_dimension_size(n: int) -> None:
    """Refuse n elements beyond MAX_DIMENSION_SIZE with TooLargeError."""
    if n > MAX_DIMENSION_SIZE:
        raise TooLargeError(
            f"{n} elements exceeds the dimension guard of {MAX_DIMENSION_SIZE}"
        )


def order_dimension(p: FinitePoset, max_k: int = 3) -> int | None:
    """Smallest number of linear extensions intersecting in p, up to max_k.

    Returns None when the dimension exceeds ``max_k``.  Only
    max_k in 1..3 is supported, and posets are refused beyond
    MAX_DIMENSION_SIZE elements; past that the search space is out of
    reach for a literal scan.
    """
    import numpy as np

    if not 1 <= max_k <= 3:
        raise ValueError(f"max_k must be 1, 2 or 3, got {max_k}")
    _check_dimension_size(len(p))
    n = len(p)
    if len(p.strict) == n * (n - 1) // 2:
        return 1
    if max_k == 1:
        return None
    if brute_force_dim_le_2(p):
        return 2
    if max_k == 2:
        return None
    _, masks, target = _extension_pair_masks(p)
    lo, hi = _split_words(masks)
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i, len(masks)):
            excess = (mi & masks[j]) & ~target
            third = np.nonzero(
                ((lo & np.uint64(excess & _WORD)) == np.uint64(0))
                & ((hi & np.uint64(excess >> 64)) == np.uint64(0))
            )[0]
            if third.size:
                return 3
    return None
