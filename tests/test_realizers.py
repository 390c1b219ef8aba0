"""Two-chain realizers, conjugates, and the orderability decision."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobwebs import (
    Chain,
    ConjugateCycleError,
    ConstantSequence,
    CyclicInputError,
    Digraph,
    NoAdmissibleChain,
    NotLinearExtensionError,
    NotRegular,
    Orderable,
    Realizer,
    Vertex,
    VertexSetMismatchError,
    ascending_chain,
    build_cobweb,
    conjugate_chain,
    decide_orderable,
    descending_chain,
    intersect_chains,
    reachability,
    strict_order_relation,
    verify_realizer,
)

from helpers import (
    fib_cobweb,
    graph_on,
    intersection_pairs,
    row,
    standard_3d_poset,
    v,
)

# For the Fibonacci cobweb up to level 5 the two canonical chains are
# known exactly; frozen here as ground truth.
GOLDEN_ASCENDING = [
    (1, 0), (1, 1), (1, 2), (1, 3), (2, 3),
    (1, 4), (2, 4), (3, 4),
    (1, 5), (2, 5), (3, 5), (4, 5), (5, 5),
]
GOLDEN_DESCENDING = [
    (1, 0), (1, 1), (1, 2), (2, 3), (1, 3),
    (3, 4), (2, 4), (1, 4),
    (5, 5), (4, 5), (3, 5), (2, 5), (1, 5),
]


def reflexive_closure_of_reach(g: Digraph) -> frozenset:
    return reachability(g).pairs | {(u, u) for u in g.vertices}


class TestCanonicalChains:
    def test_golden_chains_level_5(self):
        p = fib_cobweb(5)
        assert [(u.position, u.level) for u in ascending_chain(p)] == GOLDEN_ASCENDING
        assert [(u.position, u.level) for u in descending_chain(p)] == GOLDEN_DESCENDING

    def test_chains_coincide_on_a_path(self):
        p = build_cobweb(ConstantSequence(1), 4)
        assert ascending_chain(p) == descending_chain(p)

    def test_ascending_is_linear_extension_and_admissible(self):
        from cobwebs import is_admissible, is_linear_extension

        for level in range(7):
            p = fib_cobweb(level)
            chain = ascending_chain(p)
            assert is_linear_extension(chain, p.hasse)
            assert is_admissible(chain, p.hasse)


class TestIntersectChains:
    def test_identical_chains_give_their_total_order(self):
        c = Chain(row(3))
        pairs = intersect_chains(c, c).pairs
        assert pairs == frozenset(
            (c[i], c[j]) for i in range(3) for j in range(i, 3)
        )

    def test_opposite_chains_give_the_diagonal(self):
        c = Chain(row(4))
        d = Chain(reversed(row(4)))
        assert intersect_chains(c, d).pairs == frozenset((u, u) for u in row(4))

    def test_vertex_set_mismatch(self):
        with pytest.raises(VertexSetMismatchError):
            intersect_chains(Chain(row(2)), Chain(row(3)))

    def test_cobweb_identity_level_5(self):
        p = fib_cobweb(5)
        got = intersect_chains(ascending_chain(p), descending_chain(p)).pairs
        expected = strict_order_relation(p).pairs | {
            (u, u) for u in p.hasse.vertices
        }
        assert got == expected

    def test_cobweb_pair_count_level_8(self):
        # 55 vertices; comparable pairs = (55**2 - sum of squared level
        # sizes) / 2 = 1155, plus the diagonal
        p = fib_cobweb(8)
        got = intersect_chains(ascending_chain(p), descending_chain(p))
        assert len(got) == 1210

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(row(5)), st.permutations(row(5)))
    def test_matches_quadratic_reference(self, a, b):
        assert intersect_chains(Chain(a), Chain(b)).pairs == intersection_pairs(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(row(5)), st.permutations(row(5)))
    def test_result_is_a_partial_order(self, a, b):
        pairs = intersect_chains(Chain(a), Chain(b))
        for u in a:
            assert (u, u) in pairs
        for (x, y), (s, t) in itertools.product(pairs, repeat=2):
            if x != y:
                assert (y, x) not in pairs
            if y == s:
                assert (x, t) in pairs


class TestVerifyRealizer:
    def test_accepts_cobweb_realizers_up_to_level_7(self):
        for level in range(8):
            p = fib_cobweb(level)
            r = Realizer(ascending_chain(p), descending_chain(p), p.hasse)
            assert verify_realizer(r)

    def test_rejects_doubled_ascending_chain(self):
        # same chain twice claims a total order, which a cobweb is not
        p = fib_cobweb(3)
        chain = ascending_chain(p)
        result = verify_realizer(Realizer(chain, chain, p.hasse))
        assert not result
        extra = result.witness
        assert extra == (Vertex(1, 3), Vertex(2, 3))

    def test_rejects_chain_that_breaks_an_arc(self):
        g = graph_on(2, [(0, 1)])
        backwards = Chain([v(2), v(1)])
        assert not verify_realizer(Realizer(backwards, backwards, g))

    def test_vertex_set_mismatch(self):
        g = graph_on(2, [(0, 1)])
        c = Chain(row(3))
        with pytest.raises(VertexSetMismatchError):
            verify_realizer(Realizer(c, c, g))

    def test_cyclic_target_raises(self):
        # chains that cover the target pass the vertex-set check first
        cyclic = Digraph(row(2), [(v(1), v(2)), (v(2), v(1))])
        c = Chain(row(2))
        with pytest.raises(CyclicInputError):
            verify_realizer(Realizer(c, c, cyclic))

    def test_agrees_with_direct_intersection_on_all_pairs(self):
        # N-shaped order: 1 < 3, 2 < 3, 2 < 4
        g = graph_on(4, [(0, 2), (1, 2), (1, 3)])
        expected = reflexive_closure_of_reach(g)
        extensions = [
            Chain(perm)
            for perm in itertools.permutations(row(4))
            if all(perm.index(t) < perm.index(h) for t, h in g.arcs)
        ]
        hits = 0
        for a, b in itertools.product(extensions, repeat=2):
            ok = verify_realizer(Realizer(a, b, g))
            assert bool(ok) == (intersection_pairs(a.order, b.order) == expected)
            hits += bool(ok)
        assert hits > 0


class TestConjugateChain:
    def test_reverses_an_antichain(self):
        g = Digraph(row(4))
        assert conjugate_chain(Chain(row(4)), g) == Chain(reversed(row(4)))

    def test_fixes_a_total_order(self):
        g = graph_on(3, [(0, 1), (1, 2)])
        c = Chain(row(3))
        assert conjugate_chain(c, g) == c

    def test_conjugate_of_ascending_is_descending(self):
        for level in range(8):
            p = fib_cobweb(level)
            assert conjugate_chain(ascending_chain(p), p.hasse) == descending_chain(p)

    def test_conjugate_of_descending_is_ascending(self):
        p = fib_cobweb(6)
        assert conjugate_chain(descending_chain(p), p.hasse) == ascending_chain(p)

    def test_empty(self):
        assert conjugate_chain(Chain([]), Digraph([])) == Chain([])

    def test_requires_linear_extension(self):
        g = graph_on(2, [(0, 1)])
        with pytest.raises(NotLinearExtensionError):
            conjugate_chain(Chain([v(2), v(1)]), g)

    def test_cycle_witness(self):
        # arc 1 -> 3 with 2 parallel to both: reversing the incomparable
        # pairs of chain (1, 2, 3) demands 2 < 1 and 3 < 2 but keeps 1 < 3
        g = graph_on(3, [(0, 2)])
        with pytest.raises(ConjugateCycleError) as err:
            conjugate_chain(Chain([v(1), v(2), v(3)]), g)
        cycle = err.value.cycle
        assert cycle == (v(1), v(3), v(2))

    def test_intersection_with_conjugate_recovers_the_order(self):
        p = fib_cobweb(5)
        chain = ascending_chain(p)
        mate = conjugate_chain(chain, p.hasse)
        assert intersect_chains(chain, mate).pairs == reflexive_closure_of_reach(p.hasse)


class TestDecideOrderable:
    def test_cobwebs_are_orderable(self):
        for level in range(6):
            p = fib_cobweb(level)
            verdict = decide_orderable(p.hasse)
            assert isinstance(verdict, Orderable)
            assert verify_realizer(verdict.realizer)

    def test_realizer_matches_canonical_chains_semantically(self):
        p = fib_cobweb(4)
        verdict = decide_orderable(p.hasse)
        got = intersect_chains(verdict.realizer.first, verdict.realizer.second)
        canonical = intersect_chains(ascending_chain(p), descending_chain(p))
        assert got.pairs == canonical.pairs

    def test_not_regular_witness(self):
        g = graph_on(3, [(0, 1), (1, 2), (0, 2)])
        verdict = decide_orderable(g)
        assert verdict == NotRegular(witness=(v(1), v(3)))

    def test_standard_3d_poset_has_no_admissible_chain(self):
        verdict = decide_orderable(standard_3d_poset().strict_digraph())
        assert verdict == NoAdmissibleChain(exhaustive=True)

    def test_tiny_budget_still_finds_cobweb_realizers(self):
        p = fib_cobweb(5)
        verdict = decide_orderable(p.hasse)
        assert isinstance(verdict, Orderable)

    def test_rotation_sweep_can_succeed_where_the_lex_prefix_fails(self):
        # arc 1 -> 3 with 2 and 4 parallel to it: the first two
        # lexicographic topological orders wedge an incomparable vertex
        # inside the arc, so the realizer comes from the orientation
        g = graph_on(4, [(0, 2)])
        verdict = decide_orderable(g)
        assert isinstance(verdict, Orderable)
        assert verify_realizer(verdict.realizer)

    def test_cyclic_input_raises(self):
        cyclic = Digraph(row(2), [(v(1), v(2)), (v(2), v(1))])
        with pytest.raises(CyclicInputError):
            decide_orderable(cyclic)

    def test_empty_and_singleton(self):
        for n in (0, 1):
            verdict = decide_orderable(Digraph(row(n)))
            assert isinstance(verdict, Orderable)
            assert len(verdict.realizer.first) == n
