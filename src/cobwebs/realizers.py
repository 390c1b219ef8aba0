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
from typing import Iterator, Sequence

from .cobweb import CobwebPoset
from .graphs import (
    Arc,
    Chain,
    CheckResult,
    Digraph,
    NotLinearExtensionError,
    Relation,
    Vertex,
    VertexSetMismatchError,
    _admissibility_witness,
    _along,
    _chain_positions,
    _inverse,
    _iter_bits,
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


def intersect_chains(a: Chain, b: Chain) -> Relation:
    """Pairs (u, v) that both chains order the same way, u no later than v.

    The result is a Relation over a's order, from one walk back along b
    in a's positions (_mismatches against the empty relation).  It is
    reflexive and is a partial order whenever both chains cover the
    same vertex set, which is required (VertexSetMismatchError otherwise).
    """
    if a.vertex_set != b.vertex_set:
        raise VertexSetMismatchError("chains cover different vertex sets")
    rank, n = a._rank, len(a)
    both = dict(_mismatches([0] * n, [rank[v] for v in b.order]))
    return Relation._from_masks(a.order, (both.get(p, 0) | 1 << p for p in range(n)), rank)


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


def _mismatches(
    reach: list[int], second: Sequence[int], later: list[int] | None = None
) -> Iterator[tuple[int, int]]:
    """Back along the second chain, each element p in a pair (p, q) that breaks a realizer.

    ``reach`` holds reach masks over a numbering of the elements, which
    ``second`` lists in its order.  Both chains must put p before q exactly
    when q is reachable from p; p comes with the mask of the q where that
    fails.  ``later[p]`` holds the q after p in the first chain: by default
    those above p, the numbering being the first chain.  One mask is kept.
    """
    after = 0
    for p in reversed(second):
        both = after >> (p + 1) << (p + 1) if later is None else after & later[p]
        if both != reach[p]:
            yield p, both ^ reach[p]
        after |= 1 << p


def verify_realizer(r: Realizer) -> CheckResult:
    """Check the realizer's defining equation directly.

    The two chains must intersect in the reflexive closure of the target's
    reachability, _along's reach masks in the first chain's positions.  On
    mismatch the witness is the first differing pair (by target vertex order).
    Chains not covering the target raise VertexSetMismatchError, a cyclic
    target CyclicInputError.
    """
    g = r.target
    # a chain's vertices are distinct, so it covers g when all n are in g
    first, second = ([g._index.get(v) for v in c.order] for c in (r.first, r.second))
    if len(first) != len(g) or None in first:
        raise VertexSetMismatchError("realizer chains do not cover the target's vertex set")
    if len(second) != len(g) or None in second:
        raise VertexSetMismatchError("chains cover different vertex sets")
    pos_of = _inverse(first)
    walk = _mismatches(_along(g, pos_of)[2], [pos_of[i] for i in second])
    i, m = min(((first[p], m) for p, m in walk), default=(None, 0))
    if not m:
        return CheckResult(True)
    return CheckResult(False, (g.vertices[i], g.vertices[min(first[q] for q in _iter_bits(m))]))


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
    if not all(pos_of[t] < pos_of[h] for t, h in g._pairs()):
        raise NotLinearExtensionError("chain is not a linear extension of the digraph")
    _, _, reach, _, above = _along(g, pos_of)
    score = _conjugate_scores(reach, above)
    if len(set(score)) != len(score):
        hit = _admissibility_witness(reach)
        if hit is None:
            raise AssertionError("no forbidden triple behind a cyclic conjugate")
        x1, x2, x3 = (x.order[p] for p in hit)
        raise ConjugateCycleError((x1, x3, x2))
    return Chain._permuted(x.order, _ranked(score))


def _orient_incomparability(reach: list[int], above: list[int]) -> list[int] | None:
    """Masks of P ∪ T for a transitive orientation T of the incomparability graph, or None.

    ``reach`` and ``above`` are the masks of a linear extension of the
    poset P, in its positions.  T is built by Golumbic's
    G-decomposition: orient the smallest remaining pair (p, q), p < q,
    as p -> q, close its implication class in the remaining graph, and
    delete it.  Within that graph, a -> b forces a -> c for every
    neighbour c of a that is not adjacent to b, and c -> b for every
    neighbour c of b not adjacent to a.  A class that forces some pair
    both ways proves that no T exists, and the result is None.
    Otherwise the classes give T, and ``later[p]`` holds the positions after p in P ∪ T.
    Forcing commutes with reversal, so the class of q -> p is the
    reverse of the class A of p -> q: A = A⁻¹ or A ∩ A⁻¹ = ∅ (Golumbic
    1980, ch. 5), and A holds a pair both ways exactly when it holds
    q -> p.  Each added pair is appended to the class, so one test
    before each pair is expanded finds q -> p as soon as it appears.
    """
    n = len(reach)
    full = (1 << n) - 1
    # the incomparability graph still to be oriented, one mask per position
    adj = [full & ~(reach[p] | above[p] | 1 << p) for p in range(n)]
    later = reach[:]  # the masks of P ∪ T, T as oriented so far
    heads = [0] * n  # the class being closed: a -> heads[a], cleared after it
    tails = [0] * n  # and its transpose: tails[b] -> b
    p = 0
    while True:
        while p < n and not adj[p]:
            p += 1
        if p == n:
            return later
        q = (adj[p] & -adj[p]).bit_length() - 1
        heads[p] = 1 << q
        tails[q] = 1 << p
        pairs = [(p, q)]  # the class so far; the loop also visits pairs appended
        for a, b in pairs:
            if heads[q] >> p & 1:
                return None
            new = adj[a] & ~adj[b] & ~heads[a] & ~(1 << b)
            if new:
                heads[a] |= new
                while new:
                    c = (new & -new).bit_length() - 1
                    new &= new - 1
                    tails[c] |= 1 << a
                    pairs.append((a, c))
            new = adj[b] & ~adj[a] & ~tails[b] & ~(1 << a)
            if new:
                tails[b] |= new
                while new:
                    c = (new & -new).bit_length() - 1
                    new &= new - 1
                    heads[c] |= 1 << b
                    pairs.append((c, b))
        for a, b in pairs:  # delete the class; the masks clear at its endpoints
            if heads[a]:
                adj[a] &= ~heads[a]
                later[a] |= heads[a]
                heads[a] = 0
            if tails[b]:
                adj[b] &= ~tails[b]
                tails[b] = 0


def _realizer_positions(
    reach: list[int], above: list[int]
) -> tuple[list[int], list[int]] | None:
    """Both chains of a realizer as positions along Kahn's order, or None if none exists.

    ``reach`` and ``above`` are _along's masks in Kahn's positions.  The
    chains are P ∪ T and P ∪ T⁻¹ for a transitive orientation T of the
    incomparability graph; with ``later`` the masks of P ∪ T, they list
    the positions by falling |later| and score + n - 1 - p - |later|,
    where score = |reach| + p - |above| is the conjugate score of Kahn's
    order.  That is tried first, and is P ∪ T exactly when the scores
    take n values; its ``later`` (the positions above p) makes the first
    key n - 1 - p, so the chains are Kahn's order and the positions by
    falling score.
    Every cobweb takes that exit, which saves _orient_incomparability:
    the levels of a cobweb are cliques of the incomparability graph, in
    which every pair would be an implication class of its own.  The pair
    is verified against ``reach``, which does not depend on T, through
    the positions after p in the first chain, above p in Kahn's order or
    else ``later[p]`` (checked first); AssertionError if it fails.
    """
    n = len(reach)
    score = _conjugate_scores(reach, above)
    if len(set(score)) == n:
        first, second, later = list(range(n)), _ranked(score), None
    else:
        later = _orient_incomparability(reach, above)
        if later is None:
            return None
        key = [m.bit_count() for m in later]
        first = _ranked(key)
        second = _ranked([s + n - 1 - p - k for p, (s, k) in enumerate(zip(score, key))])
    # -1 keeps the whole accumulator: the first chain's own masks must be ``later``
    failed = later and any(_mismatches(later, first, [-1] * n))
    if failed or any(_mismatches(reach, second, later)):
        raise AssertionError("constructed realizer failed verification")
    return first, second


def _check_graph(g: Digraph) -> tuple[CheckResult, CheckResult]:
    """Regularity of g, and whether it has an admissible linear extension.

    Both read one analysis, _along: regularity its redundant-head
    masks, the extension search its reach and above masks.  When no
    admissible extension exists the witness is the first forbidden
    triple of Kahn's order.  Raises CyclicInputError for cyclic g.
    """
    first, pos_of, reach, red, above = _along(g)
    admissible = CheckResult(True)
    if _realizer_positions(reach, above) is None:
        hit = _admissibility_witness(reach)
        admissible = CheckResult(False, tuple(g.vertices[first[p]] for p in hit))
    return _regularity(g, pos_of, red), admissible


def _dimension_up_to_2(g: Digraph) -> int | None:
    """Order dimension of g's reachability if at most 2 (1 or 2), else None.

    The order is total, i.e. of dimension 1, exactly when the realizer's
    two chains coincide.  g need not be regular; raises
    CyclicInputError for cyclic g.
    """
    _, _, reach, _, above = _along(g)
    chains = _realizer_positions(reach, above)
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
    first, pos_of, reach, red, above = _along(g)
    regular = _regularity(g, pos_of, red)
    if not regular:
        return NotRegular(regular.witness)
    chains = _realizer_positions(reach, above)
    if chains is None:
        return NoAdmissibleChain()
    x, y = (Chain._permuted(g.vertices, map(first.__getitem__, c)) for c in chains)
    return Orderable(Realizer(x, y, g))
