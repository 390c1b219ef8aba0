"""Two-chain realizers and the orderability decision for DAGs.

A DAG is orderable when it is the Hasse diagram of a poset whose order
dimension is at most 2, i.e. when the reflexive closure of its
reachability equals the intersection of two total orders.  Such a
realizer comes from an admissible linear extension: reversing its
incomparable pairs yields the second chain.

A poset has dimension at most 2 exactly when its incomparability graph
has a transitive orientation T (Dushnik & Miller 1941), and P ∪ T is
then an admissible linear extension.  decide_orderable finds T with
Golumbic's G-decomposition into implication classes (Golumbic 1977;
*Algorithmic Graph Theory and Perfect Graphs*, ch. 5) in polynomial
time, so every verdict is conclusive.
"""

from __future__ import annotations

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
    _admissibility,
    _admissibility_witness,
    _along,
    _chain_positions,
    _inverse,
    _iter_bits,
    _kahn_order,
    _position_reach,
    _regularity,
    is_linear_extension,
)

__all__ = [
    "ConjugateCycleError",
    "NoAdmissibleChain",
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
    """The digraph has no admissible linear extension: its order has dimension > 2.

    The verdict is always conclusive; ``exhaustive`` is always True and
    stays only because the verdict JSON prints it.
    """

    exhaustive: bool = True


OrderabilityVerdict = Orderable | NotRegular | NoAdmissibleChain


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


def _above_masks(
    succ: list[list[int]], order: Sequence[int], pos_of: Sequence[int]
) -> list[int]:
    """Per position p along a linear extension, the positions from which p is reachable.

    ``order`` lists the extension's vertex indices and ``pos_of`` is its
    inverse; one forward pass over the arcs.
    """
    above = [0] * len(order)
    for p, i in enumerate(order):
        mask = above[p] | (1 << p)
        for j in succ[i]:
            above[pos_of[j]] |= mask
    return above


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
    above = _above_masks(succ, order, pos_of)
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


def _orient_incomparability(
    succ: list[list[int]], order: list[int], pos_of: list[int], reach: list[int]
) -> list[int] | None:
    """Positions along ``order`` in the order of P ∪ T, or None if there is no T.

    ``order`` is a linear extension of the poset P, ``pos_of`` its
    inverse and ``reach`` the reach masks in its positions.  T is a
    transitive orientation of the incomparability graph, built by
    Golumbic's G-decomposition: orient the smallest remaining pair
    (p, q), p < q, as p -> q, close its implication class in the
    remaining graph, and delete it.  Within that graph, a -> b forces
    a -> c for every neighbour c of a that is not adjacent to b, and
    c -> b for every neighbour c of b not adjacent to a.  A class that
    forces some pair both ways proves that no T exists.  Otherwise the
    classes together are a transitive orientation, and P ∪ T is a linear
    order that lists the positions by falling count of successors.
    """
    n = len(order)
    full = (1 << n) - 1
    above = _above_masks(succ, order, pos_of)
    # the incomparability graph still to be oriented, one mask per position
    adj = [full & ~(reach[p] | above[p] | 1 << p) for p in range(n)]
    out = [0] * n  # T so far
    p = 0
    while True:
        while p < n and not adj[p]:
            p += 1
        if p == n:
            break
        q = (adj[p] & -adj[p]).bit_length() - 1
        heads = {p: 1 << q}  # the class being closed: a -> heads[a]
        tails = {q: 1 << p}  # and its transpose: tails[b] -> b
        todo = [(p, q)]
        while todo:
            a, b = todo.pop()
            for c in _iter_bits(adj[a] & ~adj[b] & ~(1 << b) & ~heads.get(a, 0)):
                if heads.get(c, 0) >> a & 1:
                    return None
                heads[a] = heads.get(a, 0) | 1 << c
                tails[c] = tails.get(c, 0) | 1 << a
                todo.append((a, c))
            for c in _iter_bits(adj[b] & ~adj[a] & ~(1 << a) & ~tails.get(b, 0)):
                if heads.get(b, 0) >> c & 1:
                    return None
                heads[c] = heads.get(c, 0) | 1 << b
                tails[b] = tails.get(b, 0) | 1 << c
                todo.append((c, b))
        for a, mask in heads.items():
            adj[a] &= ~mask
            out[a] |= mask
        for b, mask in tails.items():
            adj[b] &= ~mask
    score = [(reach[p] | out[p]).bit_count() for p in range(n)]
    return sorted(range(n), key=score.__getitem__, reverse=True)


def _admissible_order(
    succ: list[list[int]], first: list[int], pos_of: list[int], reach: list[int]
) -> list[int] | None:
    """Vertex indices of an admissible linear extension, or None when none exists.

    ``first`` is Kahn's order, with ``pos_of`` and ``reach`` along it.
    When ``first`` is admissible it is returned itself: the levels of a
    cobweb are cliques of the incomparability graph, in which every
    pair would be an implication class of its own, so this saves the
    orientation on every cobweb.
    """
    if _admissibility_witness(reach) is None:
        return first
    ranked = _orient_incomparability(succ, first, pos_of, reach)
    return None if ranked is None else [first[p] for p in ranked]


def _check_graph(g: Digraph) -> tuple[CheckResult, CheckResult] | None:
    """Regularity of g, and whether it has an admissible linear extension.

    One Kahn pass and one reach pass serve both.  When no admissible
    extension exists the witness is the first forbidden triple of
    Kahn's order.  None when g is cyclic.
    """
    first = _kahn_order(len(g), g._succ)
    if first is None:
        return None
    pos_of, reach = _along(g, first)
    if _admissible_order(g._succ, first, pos_of, reach) is not None:
        admissible = CheckResult(True)
    else:
        admissible = _admissibility([g.vertices[i] for i in first], reach)
    return _regularity(g, pos_of, reach), admissible


def decide_orderable(g: Digraph) -> OrderabilityVerdict:
    """Decide whether g is the Hasse diagram of an order of dimension <= 2.

    Regularity is checked first.  Then an admissible linear extension is
    sought: Kahn's order (the lexicographically first topological order)
    if it is admissible, else P ∪ T for a transitive orientation T of
    the incomparability graph.  Its conjugate completes the realizer,
    which is verified before it is returned.  When T does not exist the
    verdict is NoAdmissibleChain; every verdict is conclusive.

    One Kahn pass and one reach pass along its order serve acyclicity,
    regularity, admissibility and the orientation; an extension other
    than Kahn's gets one more reach pass, which the conjugate and the
    verification share.

    Raises CyclicInputError for cyclic input.
    """
    n = len(g)
    first = _kahn_order(n, g._succ)
    if first is None:
        raise CyclicInputError("digraph contains a directed cycle")
    pos_of, reach = _along(g, first)
    regular = _regularity(g, pos_of, reach)
    if not regular:
        return NotRegular(regular.witness)
    order = _admissible_order(g._succ, first, pos_of, reach)
    if order is None:
        return NoAdmissibleChain()
    if order is not first:
        # reach along the new order, taken in Kahn's order so that it is
        # right even if the orientation were wrong and order no extension
        pos_of = _inverse(order)
        reach = _position_reach(g._succ, first, pos_of)
    chain = Chain(g.vertices[i] for i in order)
    mate = _conjugate_positions(chain, g._succ, order, pos_of, reach)
    if any(_mismatch_masks(reach, mate)):
        raise AssertionError("constructed realizer failed verification")
    return Orderable(Realizer(chain, Chain(chain.order[p] for p in mate), g))
