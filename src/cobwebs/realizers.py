"""Two-chain realizers and the orderability decision for DAGs.

A DAG is orderable when it is the Hasse diagram of a poset whose order
dimension is at most 2, i.e. when the reflexive closure of its
reachability equals the intersection of two total orders.  Such a
realizer comes from an admissible linear extension: reversing its
incomparable pairs yields the second chain.

A poset has dimension at most 2 exactly when its incomparability graph
has a transitive orientation T (Dushnik & Miller 1941).  P ∪ T is then
an admissible linear extension and P ∪ T⁻¹ its conjugate, so the two
chains form a realizer.  decide_orderable finds T with
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
    Digraph,
    NotLinearExtensionError,
    Vertex,
    VertexSetMismatchError,
    _admissibility_witness,
    _along,
    _chain_positions,
    _inverse,
    _iter_bits,
    _position_reach,
    _reach_bits,
    _regularity,
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

    Carries the offending cycle as a tuple of three vertices, each
    preceding the next in the candidate relation and the last preceding
    the first.
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
    stays because the verdict JSON prints it and the benchmark reads it.
    """

    exhaustive: bool = True


OrderabilityVerdict = Orderable | NotRegular | NoAdmissibleChain


def _mismatch_masks(
    reach: list[int], first: Sequence[int], second: Sequence[int]
) -> list[int]:
    """Per element p, the elements q for which the pair (p, q) breaks a realizer.

    ``reach`` holds reach masks over some numbering of the elements, and
    ``first`` and ``second`` list the same numbers in the order of the
    two chains.  Both chains put p before q exactly when q is reachable
    from p; bit q of entry p is set where that fails.  One walk back
    along each chain collects, for each p, the elements after p in it.
    """
    diff = [0] * len(reach)
    after = 0
    for p in reversed(first):
        diff[p] = after  # for now, the elements after p in the first chain
        after |= 1 << p
    after = 0
    for p in reversed(second):
        diff[p] = (after & diff[p]) ^ reach[p]
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
    index = g._index
    if r.first._rank.keys() != index.keys():
        raise VertexSetMismatchError(
            "realizer chains do not cover the target's vertex set"
        )
    if r.second._rank.keys() != index.keys():
        raise VertexSetMismatchError("chains cover different vertex sets")
    diff = _mismatch_masks(
        _reach_bits(g)[0],
        [index[v] for v in r.first.order],
        [index[v] for v in r.second.order],
    )
    for i, mask in enumerate(diff):
        if mask:
            j = (mask & -mask).bit_length() - 1
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


def _conjugate_scores(reach: list[int], above: list[int]) -> list[int]:
    """Per position p along a linear extension, how many positions p beats in its conjugate.

    ``reach`` and ``above`` are the extension's masks in its positions.
    Position p beats q when q is reachable from p, or q precedes p with
    no path between them.  The scores lie in 0..n-1, so the tournament
    is transitive, and the conjugate a chain, exactly when they are all
    different (Landau 1953).  The chain then lists the positions by
    falling score.
    """
    return [
        r.bit_count() + p - a.bit_count() for p, (r, a) in enumerate(zip(reach, above))
    ]


def _ranked(score: list[int]) -> list[int]:
    """Positions by falling score."""
    return sorted(range(len(score)), key=score.__getitem__, reverse=True)


def conjugate_chain(x: Chain, g: Digraph) -> Chain:
    """The chain that reverses exactly the incomparable pairs of x.

    Comparable pairs (joined by a directed path in g) keep their order
    from x; incomparable pairs are flipped.  The result is a total
    order exactly when x is admissible (is_admissible).  Otherwise
    ConjugateCycleError carries the 3-cycle (x1, x3, x2) of the first
    forbidden triple (x1, x2, x3): x1 reaches x3 while x2 is parallel
    to both, so both pairs with x2 flip.  A tournament that is not
    transitive has a 3-cycle (Moon 1968), and along x the only possible
    one is such a triple.  x must be a linear extension of g
    (NotLinearExtensionError otherwise, which also covers cyclic g
    since those have no linear extensions).
    """
    pos_of = _chain_positions(x, g)
    if not all(pos_of[t] < pos_of[h] for t, h in g._arc_index):
        raise NotLinearExtensionError("chain is not a linear extension of the digraph")
    order = _inverse(pos_of)
    reach, _ = _position_reach(g._succ, order, pos_of)
    score = _conjugate_scores(reach, _above_masks(g._succ, order, pos_of))
    if len(set(score)) != len(score):
        hit = _admissibility_witness(reach)
        if hit is None:
            raise AssertionError("no forbidden triple behind a cyclic conjugate")
        x1, x2, x3 = (x.order[p] for p in hit)
        raise ConjugateCycleError((x1, x3, x2))
    return Chain(x.order[p] for p in _ranked(score))


def _orient_incomparability(reach: list[int], above: list[int]) -> list[int] | None:
    """Out-degrees of a transitive orientation T of the incomparability graph, or None.

    ``reach`` and ``above`` are the masks of a linear extension of the
    poset P, in its positions.  T is built by Golumbic's
    G-decomposition: orient the smallest remaining pair (p, q), p < q,
    as p -> q, close its implication class in the remaining graph, and
    delete it.  Within that graph, a -> b forces a -> c for every
    neighbour c of a that is not adjacent to b, and c -> b for every
    neighbour c of b not adjacent to a.  A class that forces some pair
    both ways proves that no T exists, and the result is None.
    Otherwise the classes together are a transitive orientation.
    Forcing commutes with reversal, so the class of q -> p is the
    reverse of the class A of p -> q: A = A⁻¹ or A ∩ A⁻¹ = ∅ (Golumbic
    1980, ch. 5), and A holds a pair both ways exactly when it holds
    q -> p.  Each added pair is pushed, so one test before each pop
    finds q -> p as soon as it appears.
    """
    n = len(reach)
    full = (1 << n) - 1
    # the incomparability graph still to be oriented, one mask per position
    adj = [full & ~(reach[p] | above[p] | 1 << p) for p in range(n)]
    out = [0] * n  # out-degrees in T so far
    p = 0
    while True:
        while p < n and not adj[p]:
            p += 1
        if p == n:
            return out
        q = (adj[p] & -adj[p]).bit_length() - 1
        heads = {p: 1 << q}  # the class being closed: a -> heads[a]
        tails = {q: 1 << p}  # and its transpose: tails[b] -> b
        todo = [(p, q)]
        while todo:
            if heads.get(q, 0) >> p & 1:
                return None
            a, b = todo.pop()
            for c in _iter_bits(adj[a] & ~adj[b] & ~(1 << b) & ~heads.get(a, 0)):
                heads[a] = heads.get(a, 0) | 1 << c
                tails[c] = tails.get(c, 0) | 1 << a
                todo.append((a, c))
            for c in _iter_bits(adj[b] & ~adj[a] & ~(1 << a) & ~tails.get(b, 0)):
                heads[c] = heads.get(c, 0) | 1 << b
                tails[b] = tails.get(b, 0) | 1 << c
                todo.append((c, b))
        for a, mask in heads.items():
            adj[a] &= ~mask
            out[a] += mask.bit_count()
        for b, mask in tails.items():
            adj[b] &= ~mask


def _realizer_positions(
    succ: list[list[int]], first: list[int], pos_of: list[int], reach: list[int]
) -> tuple[list[int], list[int]] | None:
    """Both chains of a realizer as positions along Kahn's order, or None if none exists.

    ``first`` is Kahn's order, ``pos_of`` its inverse and ``reach`` the
    reach masks in its positions.  The chains are P ∪ T and P ∪ T⁻¹ for
    a transitive orientation T of the incomparability graph; with
    ``out`` T's out-degrees, they list the positions by falling
    |reach| + out and n - 1 - |above| - out.  Kahn's order is tried
    first (``out``: its incomparable positions after p), and is P ∪ T
    exactly when the second key, its conjugate's score, takes n values.
    Every cobweb takes that exit, which saves _orient_incomparability:
    the levels of a cobweb are cliques of the incomparability graph, in
    which every pair would be an implication class of its own.  The
    pair is verified against ``reach``, which does not depend on T, and
    AssertionError is raised if it fails.
    """
    n = len(first)
    above = _above_masks(succ, first, pos_of)
    if len(set(_conjugate_scores(reach, above))) == n:
        out = [n - 1 - p - r.bit_count() for p, r in enumerate(reach)]
    else:
        out = _orient_incomparability(reach, above)
    if out is None:
        return None
    chains = (
        _ranked([reach[p].bit_count() + out[p] for p in range(n)]),
        _ranked([n - 1 - above[p].bit_count() - out[p] for p in range(n)]),
    )
    if any(_mismatch_masks(reach, *chains)):
        raise AssertionError("constructed realizer failed verification")
    return chains


def _check_graph(g: Digraph) -> tuple[CheckResult, CheckResult]:
    """Regularity of g, and whether it has an admissible linear extension.

    Both read one analysis, _along: regularity its redundant-head
    masks, the extension search its reach masks.  When no admissible
    extension exists the witness is the first forbidden triple of
    Kahn's order.  Raises CyclicInputError for cyclic g.
    """
    first, pos_of, reach, red = _along(g)
    admissible = CheckResult(True)
    if _realizer_positions(g._succ, first, pos_of, reach) is None:
        hit = _admissibility_witness(reach)
        admissible = CheckResult(False, tuple(g.vertices[first[p]] for p in hit))
    return _regularity(g, pos_of, red), admissible


def _dimension_up_to_2(g: Digraph) -> int | None:
    """Order dimension of g's reachability if at most 2 (1 or 2), else None.

    The order is total, i.e. of dimension 1, exactly when the realizer's
    two chains coincide.  g need not be regular; raises
    CyclicInputError for cyclic g.
    """
    first, pos_of, reach, _ = _along(g)
    chains = _realizer_positions(g._succ, first, pos_of, reach)
    if chains is None:
        return None
    return 1 if chains[0] == chains[1] else 2


def decide_orderable(g: Digraph) -> OrderabilityVerdict:
    """Decide whether g is the Hasse diagram of an order of dimension <= 2.

    Regularity is checked first, and an irregular g gets no realizer
    search.  Then the realizer is sought: P ∪ T and P ∪ T⁻¹ for a
    transitive orientation T of the incomparability graph, Kahn's order
    (the lexicographically first topological order) being the first
    P ∪ T tried.  The realizer is verified before it is returned.  When
    T does not exist the verdict is NoAdmissibleChain; every verdict is
    conclusive.  All of it reads one analysis, _along.

    Raises CyclicInputError for cyclic input.
    """
    first, pos_of, reach, red = _along(g)
    regular = _regularity(g, pos_of, red)
    if not regular:
        return NotRegular(regular.witness)
    chains = _realizer_positions(g._succ, first, pos_of, reach)
    if chains is None:
        return NoAdmissibleChain()
    x, y = (Chain(g.vertices[first[p]] for p in chain) for chain in chains)
    return Orderable(Realizer(x, y, g))
