"""Digraph machinery: reachability, reduction, regularity, chains."""

import collections
import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobwebs import (
    Chain,
    CyclicInputError,
    Digraph,
    Relation,
    Vertex,
    VertexSetMismatchError,
    is_acyclic,
    is_admissible,
    is_linear_extension,
    is_regular,
    iter_topological_orders,
    reachability,
    topological_order,
    transitive_reduction,
)

from helpers import bfs_pairs, fib_cobweb, graph_on, matrix_closure_pairs, row, v


@st.composite
def small_dags(draw, max_vertices=6):
    n = draw(st.integers(0, max_vertices))
    vs = row(n)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                arcs.append((vs[i], vs[j]))
    return Digraph(vs, arcs)


class TestVertex:
    def test_rejects_non_positive_position(self):
        with pytest.raises(ValueError):
            Vertex(0, 1)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            Vertex(1, -1)

    @pytest.mark.parametrize(
        "position, level",
        [(True, 0), (2.0, 1), (1, False), (1, 0.0)],
        ids=["bool_position", "float_position", "bool_level", "float_level"],
    )
    def test_rejects_non_int_coordinates(self, position, level):
        # the writers would emit them as True or 2.0, which no reader accepts
        with pytest.raises(TypeError, match="must be int"):
            Vertex(position, level)

    def test_equality_and_str(self):
        assert Vertex(2, 3) == Vertex(2, 3)
        assert Vertex(2, 3) != Vertex(3, 2)
        assert str(Vertex(2, 3)) == "2,3"


class TestDigraph:
    def test_rejects_duplicate_vertex(self):
        with pytest.raises(ValueError, match="duplicate"):
            Digraph([v(1), v(1)])

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Digraph([v(1)], [(v(1), v(1))])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="not a vertex"):
            Digraph([v(1)], [(v(1), v(2))])

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(v(1), v(9))], "arc endpoint 9,0 is not a vertex"),
            ([(v(8), v(9))], "arc endpoint 8,0 is not a vertex"),
            ([(v(1), v(1)), (v(1), v(9))], "loop at 1,0"),
        ],
        ids=["head", "tail-first", "loop-first"],
    )
    def test_arc_errors_name_the_first_fault(self, arcs, message):
        # arcs are resolved one at a time, the tail before the head
        with pytest.raises(ValueError) as info:
            Digraph([v(1)], arcs)
        assert str(info.value) == message

    def test_deduplicates_arcs(self):
        g = Digraph([v(1), v(2)], [(v(1), v(2)), (v(1), v(2))])
        assert g.arcs == ((v(1), v(2)),)

    def test_successors(self):
        g = graph_on(3, [(0, 2), (0, 1)])
        assert g.successors(v(1)) == (v(3), v(2))
        assert g.successors(v(3)) == ()

    def test_equality_ignores_arc_order(self):
        a = graph_on(3, [(0, 1), (1, 2)])
        b = graph_on(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_needs_the_same_vertex_order(self):
        arcs = [(v(1), v(2))]
        a = Digraph([v(1), v(2)], arcs)
        assert a == Digraph([v(1), v(2)], arcs * 2)
        assert hash(a) == hash(Digraph([v(1), v(2)], arcs * 2))
        assert a != Digraph([v(2), v(1)], arcs)

    def test_repr_counts_deduplicated_arcs(self):
        g = Digraph([v(1), v(2), v(3)], [(v(1), v(2))] * 3)
        assert repr(g) == "Digraph(3 vertices, 1 arcs)"

    def test_contains(self):
        g = graph_on(2, [(0, 1)])
        assert v(1) in g
        assert v(3) not in g

    def test_index_of_an_unknown_vertex_names_it(self):
        g = graph_on(2, [(0, 1)])
        assert g.index(v(2)) == 1
        with pytest.raises(KeyError, match="3,0 is not a vertex of this digraph"):
            g.index(v(3))

    def test_not_equal_to_other_types(self):
        g = graph_on(2, [(0, 1)])
        assert (g == 1) is False
        assert g != 1


class TestAcyclicity:
    def test_empty_graph(self):
        assert is_acyclic(Digraph([]))

    def test_two_cycle(self):
        g = graph_on(2, [(0, 1)])
        cyclic = Digraph(g.vertices, [(v(1), v(2)), (v(2), v(1))])
        assert not is_acyclic(cyclic)
        with pytest.raises(CyclicInputError):
            topological_order(cyclic)

    def test_cobweb_is_acyclic(self):
        assert is_acyclic(fib_cobweb(5).hasse)

    def test_topological_order_is_lexicographic(self):
        g = graph_on(4, [(2, 0)])
        assert topological_order(g) == (v(2), v(3), v(1), v(4))


class TestReachability:
    def test_transitive_along_path(self):
        g = graph_on(3, [(0, 1), (1, 2)])
        r = reachability(g)
        assert (v(1), v(3)) in r
        assert (v(3), v(1)) not in r
        assert (v(1), v(1)) not in r

    def test_cobweb_cross_level_pair(self):
        p = fib_cobweb(3)
        assert (Vertex(1, 0), Vertex(2, 3)) in reachability(p.hasse)

    def test_matches_bfs_on_cobweb(self):
        g = fib_cobweb(4).hasse
        assert reachability(g).pairs == bfs_pairs(g)

    def test_raises_on_cycle(self):
        cyclic = Digraph(row(2), [(v(1), v(2)), (v(2), v(1))])
        with pytest.raises(CyclicInputError):
            reachability(cyclic)

    @settings(max_examples=60, deadline=None)
    @given(small_dags())
    def test_matches_matrix_closure(self, g):
        assert reachability(g).pairs == matrix_closure_pairs(g)

    @settings(max_examples=40, deadline=None)
    @given(small_dags())
    def test_is_transitive_and_irreflexive(self, g):
        r = reachability(g)
        assert all((a, a) not in r for a in g.vertices)
        for (a, b), (c, d) in itertools.product(r.pairs, repeat=2):
            if b == c:
                assert (a, d) in r

    def test_len_and_iter(self):
        g = graph_on(3, [(0, 1), (1, 2)])
        r = reachability(g)
        assert len(r) == 3
        assert sorted(r) == [(v(1), v(2)), (v(1), v(3)), (v(2), v(3))]
        assert len(reachability(Digraph(row(2)))) == 0

    def test_relation_equality_ignores_source(self):
        a = graph_on(3, [(0, 1), (1, 2)])
        b = graph_on(3, [(0, 1), (1, 2), (0, 2)])
        assert reachability(a) == reachability(b)
        assert hash(reachability(a)) == hash(reachability(b))


class TestRelation:
    def test_equality_needs_the_same_vertex_order(self):
        g = graph_on(3, [(0, 1), (1, 2)])
        flipped = Digraph(reversed(g.vertices), g.arcs)
        assert reachability(flipped).pairs == reachability(g).pairs
        assert reachability(flipped) != reachability(g)

    def test_pair_with_a_non_vertex_is_not_in(self):
        r = reachability(graph_on(3, [(0, 1), (1, 2)]))
        stranger = Vertex(9, 9)
        assert (v(1), stranger) not in r
        assert (stranger, v(1)) not in r
        assert (stranger, stranger) not in r

    @pytest.mark.parametrize(
        "value",
        [None, v(1), (v(1),), (v(1), v(2), v(3)), (), "ab", 5, frozenset()],
        ids=["None", "vertex", "1-tuple", "3-tuple", "empty", "str", "int", "frozenset"],
    )
    def test_a_value_that_is_not_a_pair_is_not_in(self, value):
        r = reachability(graph_on(3, [(0, 1), (1, 2)]))
        assert value not in r
        assert value not in r.pairs

    def test_a_tuple_subclass_pair_is_in(self):
        pair = collections.namedtuple("Pair", "tail head")
        r = reachability(graph_on(3, [(0, 1), (1, 2)]))
        assert pair(v(1), v(3)) in r and pair(v(1), v(3)) in r.pairs
        assert pair(v(3), v(1)) not in r and pair(v(3), v(1)) not in r.pairs

    @pytest.mark.parametrize(
        "value",
        [[v(1), v(2)], (v(1), []), ([], v(1)), ([],), (v(1), v(2), []), {}],
        ids=["list", "head", "tail", "1-tuple", "3-tuple", "dict"],
    )
    def test_an_unhashable_value_raises_as_in_the_pairs(self, value):
        r = reachability(graph_on(3, [(0, 1), (1, 2)]))
        for container in (r, r.pairs):
            with pytest.raises(TypeError, match="unhashable"):
                value in container

    @settings(max_examples=40, deadline=None)
    @given(small_dags())
    def test_len_and_set_match_pairs(self, g):
        r = reachability(g)
        assert len(r) == len(r.pairs)
        assert set(r) == r.pairs

    @settings(max_examples=20, deadline=None)
    @given(small_dags())
    def test_survives_pickle_and_copies(self, g):
        r = reachability(g)
        for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert twin == r
            assert hash(twin) == hash(r)
            assert twin.pairs == r.pairs
            assert all(pair in twin for pair in r.pairs)

    @settings(max_examples=40, deadline=None)
    @given(small_dags())
    def test_iterates_in_vertex_order(self, g):
        r = reachability(g)
        idx = g.index
        assert list(r) == sorted(r.pairs, key=lambda p: (idx(p[0]), idx(p[1])))

    def test_public_constructor_matches_reachability(self):
        g = fib_cobweb(3).hasse
        r = reachability(g)
        assert Relation(g.vertices, r.pairs) == r
        with pytest.raises(ValueError, match="is not a vertex"):
            Relation(g.vertices[:1], r.pairs)
        with pytest.raises(ValueError, match="duplicate vertex"):
            Relation(g.vertices[:1] * 2, ())


class TestTransitiveReduction:
    def test_drops_shortcut(self):
        g = graph_on(3, [(0, 1), (1, 2), (0, 2)])
        assert transitive_reduction(g) == graph_on(3, [(0, 1), (1, 2)])

    def test_cobweb_is_its_own_reduction(self):
        g = fib_cobweb(5).hasse
        assert transitive_reduction(g) == g

    def test_empty(self):
        g = Digraph([])
        assert transitive_reduction(g) == g

    @settings(max_examples=60, deadline=None)
    @given(small_dags())
    def test_preserves_reachability_and_is_idempotent(self, g):
        reduced = transitive_reduction(g)
        assert reachability(reduced).pairs == reachability(g).pairs
        assert transitive_reduction(reduced) == reduced


class TestIsRegular:
    def test_shortcut_witness_is_first_inserted(self):
        g = graph_on(3, [(0, 2), (0, 1), (1, 2)])
        result = is_regular(g)
        assert not result
        assert result.witness == (v(1), v(3))

    def test_single_arc(self):
        assert is_regular(graph_on(2, [(0, 1)]))

    def test_cobweb_level_6(self):
        assert is_regular(fib_cobweb(6).hasse)

    @settings(max_examples=60, deadline=None)
    @given(small_dags())
    def test_agrees_with_reduction_equality(self, g):
        assert bool(is_regular(g)) == (transitive_reduction(g) == g)


class TestChain:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="repeats"):
            Chain([v(1), v(1)])

    def test_rank_and_precedes(self):
        c = Chain([v(2), v(1), v(3)])
        assert c.rank(v(1)) == 1
        assert c.precedes(v(2), v(1))
        assert c.precedes(v(1), v(1))
        assert not c.precedes(v(3), v(2))
        with pytest.raises(KeyError):
            c.rank(v(9))

    def test_not_equal_to_other_types(self):
        c = Chain([v(1)])
        assert (c == 1) is False
        assert c != 1

    def test_equal_chains_hash_equal(self):
        a, b = Chain([v(2), v(1)]), Chain(iter([v(2), v(1)]))
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, Chain([v(1), v(2)])}) == 2

    def test_repr_truncates_after_eight_vertices(self):
        assert repr(Chain(row(8))) == (
            "Chain(1,0 -> 2,0 -> 3,0 -> 4,0 -> 5,0 -> 6,0 -> 7,0 -> 8,0)"
        )
        assert repr(Chain(row(9))) == (
            "Chain(1,0 -> 2,0 -> 3,0 -> 4,0 -> 5,0 -> 6,0 -> 7,0 -> 8,0"
            " -> ... (9 vertices))"
        )


class TestIsLinearExtension:
    def test_respects_arcs(self):
        g = graph_on(3, [(0, 1), (1, 2)])
        assert is_linear_extension(Chain([v(1), v(2), v(3)]), g)
        assert not is_linear_extension(Chain([v(2), v(1), v(3)]), g)

    def test_vertex_set_mismatch(self):
        g = graph_on(2, [(0, 1)])
        with pytest.raises(VertexSetMismatchError):
            is_linear_extension(Chain([v(1)]), g)

    def test_cyclic_graph_has_no_extensions(self):
        cyclic = Digraph(row(2), [(v(1), v(2)), (v(2), v(1))])
        assert not is_linear_extension(Chain([v(1), v(2)]), cyclic)


class TestIsAdmissible:
    def test_no_arcs_means_admissible(self):
        g = Digraph(row(3))
        assert is_admissible(Chain(row(3)), g)

    def test_forbidden_triple_witness(self):
        # 1 -> 3 only; chain 1, 2, 3 puts the incomparable 2 in between.
        g = graph_on(3, [(0, 2)])
        result = is_admissible(Chain([v(1), v(2), v(3)]), g)
        assert not result
        assert result.witness == (v(1), v(2), v(3))

    def test_reordering_fixes_the_triple(self):
        g = graph_on(3, [(0, 2)])
        assert is_admissible(Chain([v(2), v(1), v(3)]), g)
        assert is_admissible(Chain([v(1), v(3), v(2)]), g)

    def test_cobweb_ascending_order(self):
        p = fib_cobweb(5)
        chain = Chain(u for level in p.levels for u in level)
        assert is_admissible(chain, p.hasse)

    def test_vertex_set_mismatch(self):
        with pytest.raises(VertexSetMismatchError):
            is_admissible(Chain([v(1)]), Digraph(row(2)))

    def test_cyclic_raises(self):
        cyclic = Digraph(row(2), [(v(1), v(2)), (v(2), v(1))])
        with pytest.raises(CyclicInputError):
            is_admissible(Chain([v(1), v(2)]), cyclic)

    @settings(max_examples=40, deadline=None)
    @given(small_dags(max_vertices=5), st.randoms(use_true_random=False))
    def test_relabelling_invariance(self, g, rng):
        # admissibility must depend only on graph structure, not labels
        n = len(g.vertices)
        fresh = [Vertex(i + 1, 7) for i in range(n)]
        rng.shuffle(fresh)
        relabel = dict(zip(g.vertices, fresh))
        g2 = Digraph(
            [relabel[u] for u in g.vertices],
            [(relabel[t], relabel[h]) for t, h in g.arcs],
        )
        chain = Chain(g.vertices)
        chain2 = Chain(relabel[u] for u in chain)
        assert bool(is_admissible(chain, g)) == bool(is_admissible(chain2, g2))


class TestIterTopologicalOrders:
    def test_path_has_one_order(self):
        g = graph_on(3, [(0, 1), (1, 2)])
        assert list(iter_topological_orders(g)) == [Chain([v(1), v(2), v(3)])]

    def test_antichain_gives_all_permutations_sorted(self):
        g = Digraph(row(3))
        got = [c.order for c in iter_topological_orders(g)]
        assert got == sorted(itertools.permutations(row(3)))

    def test_limit(self):
        g = Digraph(row(4))
        assert sum(1 for _ in iter_topological_orders(g, limit=5)) == 5

    def test_cyclic_raises(self):
        cyclic = Digraph(row(2), [(v(1), v(2)), (v(2), v(1))])
        with pytest.raises(CyclicInputError):
            next(iter_topological_orders(cyclic))

    def test_guards_raise_on_the_call(self):
        cyclic = Digraph(row(2), [(v(1), v(2)), (v(2), v(1))])
        with pytest.raises(CyclicInputError):
            iter_topological_orders(cyclic)
        with pytest.raises(ValueError, match="limit"):
            iter_topological_orders(Digraph(row(3)), limit=0)

    @settings(max_examples=40, deadline=None)
    @given(small_dags(max_vertices=5))
    def test_matches_permutation_filter(self, g):
        rank = {u: i for i, u in enumerate(g.vertices)}
        expected = [
            perm
            for perm in itertools.permutations(g.vertices)
            if all(perm.index(t) < perm.index(h) for t, h in g.arcs)
        ]
        expected.sort(key=lambda perm: [rank[u] for u in perm])
        assert [c.order for c in iter_topological_orders(g)] == expected
