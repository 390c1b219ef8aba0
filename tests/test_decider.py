"""The orderability decider: oracle agreement, invariance, realizers, timings.

decide_orderable orients the incomparability graph (Golumbic's
implication classes) instead of searching topological orders.  These
tests hold it to the brute-force oracle, to the invariances of order
dimension (vertex relabelling, file formats, duality, antichains, new
extremal elements), to Kahn's order where that order is admissible, and
to the timings that a polynomial decider makes possible.
"""

import io
import random
import sys
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobwebs import (
    Chain,
    Digraph,
    FinitePoset,
    NoAdmissibleChain,
    Orderable,
    Vertex,
    brute_force_dim_le_2,
    conjugate_chain,
    decide_orderable,
    is_admissible,
    is_regular,
    order_dimension,
    topological_order,
    transitive_reduction,
    verify_realizer,
)
from cobwebs import graphs, realizers
from cobwebs.cli import main
from cobwebs.realizers import _check_graph
from cobwebs.serialization import (
    graph_from_edgelist,
    graph_from_json,
    graph_to_edgelist,
    graph_to_json,
)

from helpers import (
    all_triangular_dags,
    fib_cobweb,
    random_regular_dag,
    row,
    standard_3d_poset,
)

SEED = 20261018


def orderable(g: Digraph) -> bool:
    """The verdict on a regular DAG; a realizer must verify."""
    verdict = decide_orderable(g)
    assert isinstance(verdict, (Orderable, NoAdmissibleChain)), verdict
    if isinstance(verdict, Orderable):
        assert verify_realizer(verdict.realizer)
        return True
    assert verdict.exhaustive
    return False


def s3_plus(isolated: int) -> Digraph:
    """The standard dimension-3 poset plus isolated vertices."""
    g = standard_3d_poset().strict_digraph()
    return Digraph(g.vertices + tuple(row(isolated, level=2)), g.arcs)


def relabel(g: Digraph, perm: list[int]) -> Digraph:
    """g with vertex i renamed to position perm[i] + 1 and listed in that order."""
    name = {u: Vertex(perm[i] + 1, 0) for i, u in enumerate(g.vertices)}
    return Digraph(sorted(name.values()), [(name[t], name[h]) for t, h in g.arcs])


def reversed_arcs(g: Digraph) -> Digraph:
    return Digraph(g.vertices, [(h, t) for t, h in g.arcs])


def with_antichain(g: Digraph, k: int) -> Digraph:
    return Digraph(g.vertices + tuple(row(k, level=9)), g.arcs)


def with_top(g: Digraph) -> Digraph:
    top = Vertex(1, 10)
    sinks = [u for u in g.vertices if not g.successors(u)]
    return Digraph(g.vertices + (top,), list(g.arcs) + [(u, top) for u in sinks])


def with_bottom(g: Digraph) -> Digraph:
    bottom = Vertex(1, 11)
    heads = {h for _, h in g.arcs}
    sources = [u for u in g.vertices if u not in heads]
    return Digraph((bottom,) + g.vertices, [(bottom, u) for u in sources] + list(g.arcs))


@st.composite
def regular_dags(draw) -> Digraph:
    """Random Hasse diagrams on up to 8 vertices (14 with S3), shuffled.

    When S3 is drawn its six elements come first and every extra arc
    goes from a lower to a higher index, so no path joins two S3
    elements through the others: S3 stays an induced subposet and the
    order has dimension 3.
    """
    s3 = standard_3d_poset()
    base = list(s3.elements) if draw(st.booleans()) else []
    k = len(base)
    n = k + draw(st.integers(0, 8))
    vs = base + row(n - k, level=5)
    arcs = list(s3.strict) if k else []
    arcs += [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(max(i + 1, k), n)
        if draw(st.booleans())
    ]
    g = transitive_reduction(Digraph(vs, arcs))
    return relabel(g, draw(st.permutations(range(n))))


class TestOracleAgreement:
    def test_every_regular_dag_up_to_6_vertices(self):
        graphs = yes = 0
        for n in range(7):
            for g in all_triangular_dags(n):
                if not is_regular(g):
                    continue
                graphs += 1
                truth = bool(brute_force_dim_le_2(FinitePoset.from_digraph(g)))
                assert orderable(g) == truth, g.arcs
                yes += truth
        assert (graphs, yes) == (5232, 5202)

    def test_seeded_random_dags_with_7_and_8_vertices(self):
        rng = random.Random(SEED)
        negative = 0
        for _ in range(300):
            g = random_regular_dag(rng, rng.choice((7, 8)))
            truth = bool(brute_force_dim_le_2(FinitePoset.from_digraph(g)))
            assert orderable(g) == truth, g.arcs
            negative += not truth
        assert negative > 0


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(regular_dags(), st.data())
    def test_vertex_permutation(self, g, data):
        perm = data.draw(st.permutations(range(len(g))))
        assert orderable(relabel(g, perm)) == orderable(g)

    @settings(max_examples=60, deadline=None)
    @given(regular_dags())
    def test_json_and_edgelist_round_trips(self, g):
        expected = orderable(g)
        assert orderable(graph_from_json(graph_to_json(g))) == expected
        assert orderable(graph_from_edgelist(graph_to_edgelist(g))) == expected

    @settings(max_examples=60, deadline=None)
    @given(regular_dags())
    def test_arc_reversal(self, g):
        # the dual order has the same dimension
        assert orderable(reversed_arcs(g)) == orderable(g)

    @settings(max_examples=60, deadline=None)
    @given(regular_dags(), st.integers(1, 4))
    def test_disjoint_union_with_an_antichain(self, g, k):
        # the union has dimension max(d, 2)
        assert orderable(with_antichain(g, k)) == orderable(g)

    @settings(max_examples=60, deadline=None)
    @given(regular_dags())
    def test_added_top_or_bottom(self, g):
        expected = orderable(g)
        assert orderable(with_top(g)) == expected
        assert orderable(with_bottom(g)) == expected

    def test_s3_stays_negative_under_every_transformation(self):
        g = s3_plus(2)
        for h in (g, reversed_arcs(g), with_antichain(g, 3), with_top(g), with_bottom(g)):
            assert not orderable(h)


class TestRealizer:
    @staticmethod
    def assert_kahn_realizer_when_admissible(g: Digraph) -> bool:
        kahn = Chain(topological_order(g))
        if not is_admissible(kahn, g):
            return False
        verdict = decide_orderable(g)
        assert isinstance(verdict, Orderable)
        assert verdict.realizer.first == kahn
        assert verdict.realizer.second == conjugate_chain(kahn, g)
        return True

    def test_kahn_order_and_its_conjugate_on_small_dags(self):
        admissible = 0
        for n in range(6):
            for g in all_triangular_dags(n):
                if is_regular(g):
                    admissible += self.assert_kahn_realizer_when_admissible(g)
        assert admissible > 0

    @settings(max_examples=60, deadline=None)
    @given(regular_dags())
    def test_kahn_order_and_its_conjugate_on_random_dags(self, g):
        self.assert_kahn_realizer_when_admissible(g)

    def test_cobweb_realizer_is_kahn_order(self):
        for level in range(8):
            assert self.assert_kahn_realizer_when_admissible(fib_cobweb(level).hasse)

    def test_second_chain_is_the_conjugate_when_kahn_order_is_inadmissible(self):
        # random 2-dimensional orders, listed in shuffled order so that
        # Kahn's order is mostly inadmissible and the orientation runs
        rng = random.Random(SEED)
        inadmissible = 0
        for _ in range(150):
            n = rng.choice((6, 9, 14, 25))
            a, b = rng.sample(range(n), n), rng.sample(range(n), n)
            vs = row(n)
            below = [
                (vs[u], vs[v])
                for u in range(n)
                for v in range(n)
                if a[u] < a[v] and b[u] < b[v]
            ]
            g = transitive_reduction(Digraph(rng.sample(vs, n), below))
            if is_admissible(Chain(topological_order(g)), g):
                continue
            inadmissible += 1
            verdict = decide_orderable(g)
            assert isinstance(verdict, Orderable)
            first, second = verdict.realizer.first, verdict.realizer.second
            assert second == conjugate_chain(first, g)
        assert inadmissible > 100

    def test_a_wrong_orientation_fails_verification(self, monkeypatch):
        # Kahn's order 1, 2, 3 is inadmissible here, so the orientation runs;
        # with no position after any other both chains come out as 1, 2, 3
        monkeypatch.setattr(
            realizers, "_orient_incomparability", lambda reach, above: [0] * 3
        )
        vs = row(3)
        with pytest.raises(AssertionError, match="failed verification"):
            decide_orderable(Digraph(vs, [(vs[0], vs[2])]))

    def test_masks_unlike_the_first_chain_fail_verification(self, monkeypatch):
        # masks with 3 after 1 and 1 after 2 are no chain's, yet they rank
        # both chains as 1, 2, 3, which the second chain's walk alone passes
        monkeypatch.setattr(
            realizers, "_orient_incomparability", lambda reach, above: [0b100, 0b001, 0]
        )
        vs = row(3)
        with pytest.raises(AssertionError, match="failed verification"):
            decide_orderable(Digraph(vs, [(vs[0], vs[2])]))

    @pytest.mark.parametrize("twins", [True, False], ids=["built_cobweb", "per_arc"])
    def test_wrong_conjugate_scores_fail_verification(self, monkeypatch, twins):
        # n distinct scores take the Kahn exit, but rising ones rank the
        # positions backwards: the second chain comes out as Kahn's order
        # reversed, and only comparable pairs keep their order in a realizer
        monkeypatch.setattr(
            realizers, "_conjugate_scores", lambda reach, above: list(range(len(reach)))
        )
        classes = []
        along_twins = graphs._along_twins
        monkeypatch.setattr(
            graphs, "_along_twins", lambda *args: classes.append(args) or along_twins(*args)
        )
        vs = row(3)
        g = fib_cobweb(8).hasse if twins else Digraph(vs, [(vs[0], vs[2])])
        with pytest.raises(AssertionError, match="failed verification"):
            decide_orderable(g)
        assert bool(classes) == twins


class TestCheckAdmissibleLine:
    def test_passes_exactly_when_an_admissible_chain_exists(self):
        # every order on at most 5 elements has dimension <= 2, including
        # those whose digraph is not regular
        for n in range(6):
            for g in all_triangular_dags(n):
                _, admissible = _check_graph(g)
                assert admissible, g.arcs
        for g in (s3_plus(0), s3_plus(3)):
            _, admissible = _check_graph(g)
            assert not admissible
            assert not is_admissible(Chain(topological_order(g)), g)
            assert len(admissible.witness) == 3


class TestTimings:
    def test_s3_plus_4_in_under_10_ms(self):
        g = s3_plus(4)
        start = perf_counter()
        verdict = decide_orderable(g)
        elapsed = perf_counter() - start
        assert verdict == NoAdmissibleChain(exhaustive=True)
        assert elapsed < 0.01, f"{elapsed * 1000:.1f} ms"

    def test_random_dags_up_to_24_vertices_are_conclusive(self):
        rng = random.Random(SEED)
        kinds = {Orderable: 0, NoAdmissibleChain: 0}
        for n in (14, 18, 24):
            for _ in range(20):
                vs = row(n)
                arcs = [
                    (vs[i], vs[j])
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.3
                ]
                g = transitive_reduction(Digraph(vs, arcs))
                start = perf_counter()
                verdict = decide_orderable(g)
                assert perf_counter() - start < 0.1
                kinds[type(verdict)] += 1
                if isinstance(verdict, Orderable):
                    assert verify_realizer(verdict.realizer)
        assert sum(kinds.values()) == 60
        assert kinds[Orderable] > 0 and kinds[NoAdmissibleChain] > 0

    def test_cobweb_of_987_vertices_in_under_a_second(self):
        g = fib_cobweb(14).hasse
        assert len(g) == 987
        start = perf_counter()
        verdict = decide_orderable(g)
        elapsed = perf_counter() - start
        assert isinstance(verdict, Orderable)
        assert elapsed < 1.0, f"{elapsed:.2f} s"


def dim_output(g: Digraph, max_k: int, monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "stdin", io.StringIO(graph_to_json(g)))
    assert main(["dim", "--max-k", str(max_k)]) == 0
    return capsys.readouterr().out


class TestDimThroughTheDecider:
    def test_agrees_with_brute_force_on_every_dag_up_to_5_vertices(
        self, monkeypatch, capsys
    ):
        for n in range(6):
            for g in all_triangular_dags(n):
                poset = FinitePoset.from_digraph(g)
                for max_k in (1, 2):
                    dim = order_dimension(poset, max_k)
                    expected = f"dimension: {dim}\n" if dim else f"dimension: >{max_k}\n"
                    assert dim_output(g, max_k, monkeypatch, capsys) == expected

    def test_answers_beyond_the_brute_force_guard(self, monkeypatch, capsys):
        cobweb = fib_cobweb(9).hasse  # 89 vertices
        assert dim_output(cobweb, 2, monkeypatch, capsys) == "dimension: 2\n"
        assert dim_output(cobweb, 1, monkeypatch, capsys) == "dimension: >1\n"
        # a 30-element chain given with all of its comparabilities
        vs = row(30)
        total = Digraph(vs, [(vs[i], vs[j]) for i in range(30) for j in range(i + 1, 30)])
        assert dim_output(total, 1, monkeypatch, capsys) == "dimension: 1\n"
        assert dim_output(s3_plus(6), 2, monkeypatch, capsys) == "dimension: >2\n"
