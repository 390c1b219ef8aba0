"""Two-chain realizers and the orderability decision for DAGs.

A DAG is orderable when it is the Hasse diagram of a poset whose order
dimension is at most 2, i.e. when the reflexive closure of its
reachability equals the intersection of two total orders.  The
construction implemented here searches for an admissible linear
extension; reversing its incomparable pairs yields the second chain
whenever the resulting tournament is transitive.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Sequence

from .cobweb import CobwebPoset
from .graphs import (
    Arc,
    Chain,
    CheckResult,
    CyclicInputError,
    Digraph,
    NotLinearExtensionError,
    Vertex,
    VertexSetMismatchError,
    _acyclic_order,
    _admissibility_witness,
    _along,
    _chain_positions,
    _inverse,
    _iter_bits,
    _iter_index_orders,
    _kahn_order,
    _position_reach,
    _regularity,
    is_linear_extension,
)

__all__ = [
    "ConjugateCycleError",
    "NoAdmissibleChain",
    "NonTransitiveConjugate",
    "NotRegular",
    "Orderable",
    "OrderabilityVerdict",
    "Realizer",
    "ascending_chain",
    "conjugate_chain",
    "decide_orderable",
    "descending_chain",
    "intersect_chains",
    "verify_realizer",
]

DEFAULT_SEARCH_BUDGET = 1_000_000


class ConjugateCycleError(ValueError):
    """The conjugate candidate relation contains a directed cycle.

    Carries the offending cycle as a tuple of vertices, each preceding
    the next in the candidate relation and the last preceding the first.
    """

    def __init__(self, cycle: tuple[Vertex, ...]) -> None:
        super().__init__(
            "conjugate relation has a cycle: " + " -> ".join(str(v) for v in cycle)
        )
        self.cycle = cycle


def ascending_chain(p: CobwebPoset) -> Chain:
    """All vertices of p by level, left to right within each level."""
    return Chain(v for level in p.levels for v in level)


def descending_chain(p: CobwebPoset) -> Chain:
    """All vertices of p by level, right to left within each level."""
    return Chain(v for level in p.levels for v in reversed(level))


def intersect_chains(a: Chain, b: Chain) -> frozenset[Arc]:
    """Pairs (u, v) that both chains order the same way, u no later than v.

    The result is reflexive and is a partial order whenever both chains
    cover the same vertex set, which is required
    (VertexSetMismatchError otherwise).
    """
    if a.vertex_set != b.vertex_set:
        raise VertexSetMismatchError("chains cover different vertex sets")
    rank_b = b._rank
    pairs: set[Arc] = set()
    for i, u in enumerate(a.order):
        bu = rank_b[u]
        for v in a.order[i:]:
            if bu <= rank_b[v]:
                pairs.add((u, v))
    return frozenset(pairs)


@dataclass(frozen=True)
class Realizer:
    """Two chains claimed to intersect in the target digraph's order."""

    first: Chain
    second: Chain
    target: Digraph


@dataclass(frozen=True)
class Orderable:
    """The digraph is the Hasse diagram of an order of dimension <= 2."""

    realizer: Realizer


@dataclass(frozen=True)
class NotRegular:
    """The digraph is not its own transitive reduction; witness arc attached."""

    witness: Arc


@dataclass(frozen=True)
class NoAdmissibleChain:
    """No admissible linear extension was found.

    Conclusive when ``exhaustive`` is True; otherwise the search budget
    ran out before the space of topological orders was covered.
    """

    exhaustive: bool = True


@dataclass(frozen=True)
class NonTransitiveConjugate:
    """Every admissible chain tried had a cyclic conjugate relation.

    Kept for completeness of the verdict taxonomy; ``cycle`` records one
    offending cycle.  The same exhaustiveness caveat as for
    NoAdmissibleChain applies.
    """

    cycle: tuple[Vertex, ...]
    exhaustive: bool = True


OrderabilityVerdict = Orderable | NotRegular | NoAdmissibleChain | NonTransitiveConjugate


def _mismatch_masks(reach: list[int], second: Sequence[int]) -> list[int]:
    """Per position p along the first chain, the pairs (p, q) that break a realizer.

    ``reach`` holds reach masks in positions along the first chain, and
    ``second`` lists those positions in the order of the second chain.
    Both chains put p before q exactly when q is reachable from p; bit q
    of entry p is set where that fails.  One walk back along the second
    chain collects, for each p, the positions after p in both chains.
    """
    diff = [0] * len(reach)
    after = 0  # positions met so far, i.e. later along the second chain
    for p in reversed(second):
        diff[p] = (after >> (p + 1) << (p + 1)) ^ reach[p]
        after |= 1 << p
    return diff


def verify_realizer(r: Realizer) -> CheckResult:
    """Check the realizer's defining equation directly.

    The intersection of the two chains must equal the reflexive closure
    of the target's reachability.  On mismatch the witness is the
    first differing pair (by target vertex order).  Chains that fail to
    cover the target's vertex set raise VertexSetMismatchError.
    """
    g = r.target
    rank = r.first._rank
    if rank.keys() != g._index.keys():
        raise VertexSetMismatchError(
            "realizer chains do not cover the target's vertex set"
        )
    if r.second._rank.keys() != rank.keys():
        raise VertexSetMismatchError("chains cover different vertex sets")
    pos_of = [rank[v] for v in g.vertices]
    reach = _position_reach(g._succ, _acyclic_order(g), pos_of)
    diff = _mismatch_masks(reach, [rank[v] for v in r.second.order])
    for i, p in enumerate(pos_of):
        if diff[p]:
            j = min(g._index[r.first.order[q]] for q in _iter_bits(diff[p]))
            return CheckResult(False, (g.vertices[i], g.vertices[j]))
    return CheckResult(True)


def _conjugate_positions(
    x: Chain,
    succ: list[list[int]],
    order: list[int],
    pos_of: list[int],
    reach: list[int],
) -> list[int]:
    """Positions along x in the order of its conjugate chain.

    x must be a linear extension whose vertex indices are ``order``,
    ``pos_of`` the inverse of ``order``, and ``reach`` the reach masks
    in positions along x.  Position p beats q when q is reachable from
    p, or q precedes p with no path between them.  The conjugate is a
    chain exactly when this tournament is transitive, i.e. when the
    scores (how many positions each one beats) are n-1, ..., 0; it then
    lists the positions by falling score.  Otherwise the positions whose
    scores do read n-1, n-2, ... are the ones a greedy peel of unbeaten
    positions takes, and the rest hold the cycle that
    ConjugateCycleError reports.
    """
    n = len(order)
    above = [0] * n  # positions from which p is reachable
    for p, i in enumerate(order):
        mask = above[p] | (1 << p)
        for j in succ[i]:
            above[pos_of[j]] |= mask
    score = [reach[p].bit_count() + p - above[p].bit_count() for p in range(n)]
    ranked = sorted(range(n), key=score.__getitem__, reverse=True)
    for k, p in enumerate(ranked):
        if score[p] != n - 1 - k:
            beats = [reach[q] | (((1 << q) - 1) & ~above[q]) for q in range(n)]
            remaining = (1 << n) - 1
            for q in ranked[:k]:
                remaining &= ~(1 << q)
            raise ConjugateCycleError(_tournament_cycle(beats, remaining, x))
    return ranked


def conjugate_chain(x: Chain, g: Digraph) -> Chain:
    """The chain that reverses exactly the incomparable pairs of x.

    Comparable pairs (joined by a directed path in g) keep their order
    from x; incomparable pairs are flipped.  The result is a total
    order exactly when that candidate relation is transitive; otherwise
    ConjugateCycleError carries a witness cycle.  x must be a linear
    extension of g (NotLinearExtensionError otherwise, which also
    covers cyclic g since those have no linear extensions).
    """
    if not is_linear_extension(x, g):
        raise NotLinearExtensionError("chain is not a linear extension of the digraph")
    pos_of = _chain_positions(x, g)
    order = _inverse(pos_of)
    reach = _position_reach(g._succ, order, pos_of)
    mate = _conjugate_positions(x, g._succ, order, pos_of, reach)
    return Chain(x.order[p] for p in mate)


def _tournament_cycle(
    beats: list[int], remaining: int, x: Chain
) -> tuple[Vertex, ...]:
    """Locate a directed cycle in the restriction of beats to remaining."""
    visited: set[int] = set()
    for root in _iter_bits(remaining):
        if root in visited:
            continue
        visited.add(root)
        stack = [(root, _iter_bits(beats[root] & remaining))]
        path = [root]
        on_path = {root}
        while stack:
            _, neighbors = stack[-1]
            advanced = False
            for nb in neighbors:
                if nb in on_path:
                    start = path.index(nb)
                    return tuple(x.order[p] for p in path[start:])
                if nb not in visited:
                    visited.add(nb)
                    stack.append((nb, _iter_bits(beats[nb] & remaining)))
                    path.append(nb)
                    on_path.add(nb)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
    raise AssertionError("no cycle found in a sourceless tournament")


def _rotated_greedy_order(
    n: int, succ: list[list[int]], rotation: int
) -> tuple[int, ...]:
    """Decode a rotation index into one topological order.

    At each step the available vertices are sorted and the rotation's
    next mixed-radix digit picks one of them.  Rotation 0 reproduces the
    lexicographically first order; increasing rotations visit
    progressively different corners of the order space.
    """
    indeg = [0] * n
    for heads in succ:
        for j in heads:
            indeg[j] += 1
    avail = sorted(i for i in range(n) if indeg[i] == 0)
    out: list[int] = []
    r = rotation
    while avail:
        r, d = divmod(r, len(avail))
        v = avail.pop(d)
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                insort(avail, w)
    return tuple(out)


def decide_orderable(
    g: Digraph, search_budget: int = DEFAULT_SEARCH_BUDGET
) -> OrderabilityVerdict:
    """Decide whether g is the Hasse diagram of an order of dimension <= 2.

    Regularity is checked first.  Then topological orders are examined
    lexicographically; the first admissible one yields a verified
    realizer via its conjugate.  If the whole order space fits within
    ``search_budget`` the negative verdicts are conclusive
    (exhaustive=True).  Otherwise a deterministic rotation sweep samples
    up to ``search_budget`` further orders and a failure to find an
    admissible chain is reported as inconclusive.

    One Kahn pass and one reach pass along its order serve acyclicity,
    regularity and the first order examined; every order examined gets
    its reach masks from one pass over the arcs, and the admissibility
    check, the conjugate and the verification all read those masks.

    Raises CyclicInputError for cyclic input.
    """
    if search_budget < 1:
        raise ValueError(f"search_budget must be positive, got {search_budget}")
    n = len(g)
    first = _kahn_order(n, g._succ)
    if first is None:
        raise CyclicInputError("digraph contains a directed cycle")
    first_along = _along(g, first)
    regular = _regularity(g, *first_along)
    if not regular:
        return NotRegular(regular.witness)

    cycle_witness: tuple[Vertex, ...] | None = None

    def attempt(
        order_idx: tuple[int, ...], pos_of: list[int], reach: list[int]
    ) -> Orderable | None:
        nonlocal cycle_witness
        if _admissibility_witness(reach) is not None:
            return None
        chain = Chain(g.vertices[i] for i in order_idx)
        try:
            mate = _conjugate_positions(chain, g._succ, order_idx, pos_of, reach)
        except ConjugateCycleError as err:
            if cycle_witness is None:
                cycle_witness = err.cycle
            return None
        if any(_mismatch_masks(reach, mate)):
            raise AssertionError("constructed realizer failed verification")
        return Orderable(Realizer(chain, Chain(chain.order[p] for p in mate), g))

    produced = 0
    exhausted = False
    # The lexicographically first topological order is Kahn's.
    orders = _iter_index_orders(n, g._succ)
    while True:
        order_idx = next(orders, None)
        if order_idx is None:
            exhausted = True
            break
        if produced == search_budget:
            break
        produced += 1
        along = first_along if produced == 1 else _along(g, order_idx)
        found = attempt(order_idx, *along)
        if found is not None:
            return found

    if exhausted:
        if cycle_witness is not None:
            return NonTransitiveConjugate(cycle_witness, exhaustive=True)
        return NoAdmissibleChain(exhaustive=True)

    seen: set[tuple[int, ...]] = set()
    for rotation in range(search_budget):
        order_idx = _rotated_greedy_order(n, g._succ, rotation)
        if order_idx in seen:
            continue
        seen.add(order_idx)
        found = attempt(order_idx, *_along(g, order_idx))
        if found is not None:
            return found
    if cycle_witness is not None:
        return NonTransitiveConjugate(cycle_witness, exhaustive=False)
    return NoAdmissibleChain(exhaustive=False)
