"""The brute-force side: extension enumeration and dimension search."""

import ast
import dataclasses
import random
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobwebs import (
    Chain,
    ConstantSequence,
    FinitePoset,
    TooLargeError,
    brute_force_dim_le_2,
    build_cobweb,
    enumerate_linear_extensions,
    intersect_chains,
    is_regular,
    order_dimension,
    reachability,
    verify_realizer,
)

from cobwebs import oracle
from cobwebs.oracle import _extension_pair_masks

from helpers import (
    all_triangular_dags,
    fib_cobweb,
    graph_on,
    permutation_extensions,
    random_regular_dag,
    row,
    s3_plus,
    standard_3d_poset,
    standard_example,
    v,
)

SEED = 20261018


def poset_of(g) -> FinitePoset:
    return FinitePoset.from_digraph(g)


def cobweb_poset(p) -> FinitePoset:
    from cobwebs import strict_order_relation

    return FinitePoset(p.hasse.vertices, strict_order_relation(p).pairs)


@st.composite
def small_posets(draw, max_vertices=5):
    n = draw(st.integers(0, max_vertices))
    vs = row(n)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                arcs.append((vs[i], vs[j]))
    from cobwebs import Digraph

    return poset_of(Digraph(vs, arcs))


def regular_posets(max_vertices: int):
    for n in range(max_vertices + 1):
        for g in all_triangular_dags(n):
            if is_regular(g):
                yield poset_of(g)


def seeded_posets(count: int, sizes: tuple[int, ...]):
    rng = random.Random(SEED)
    return [poset_of(random_regular_dag(rng, rng.choice(sizes))) for _ in range(count)]


def reference_masks(p: FinitePoset):
    """Extensions in enumeration order with their pair masks, and the target.

    Bit i*n + j of a mask is set when element i comes before element j.
    """
    n = len(p)
    idx = {e: i for i, e in enumerate(p.elements)}
    chains, masks = [], []
    for chain in enumerate_linear_extensions(p):
        mask = later = 0
        for e in reversed(chain.order):
            mask |= later << (idx[e] * n)
            later |= 1 << idx[e]
        chains.append(chain)
        masks.append(mask)
    target = 0
    for a, b in p.strict:
        target |= 1 << (idx[a] * n + idx[b])
    return chains, masks, target


def reference_pair(p: FinitePoset):
    """The first pair (i, j >= i) of extensions intersecting in the order."""
    chains, masks, target = reference_masks(p)
    for i, mi in enumerate(masks):
        for j in range(i, len(masks)):
            if mi & masks[j] == target:
                return chains[i], chains[j]
    return None


def reference_dimension(p: FinitePoset, max_k: int):
    """Fewest extensions, up to max_k, intersecting in the order."""
    _, masks, target = reference_masks(p)
    meets = set(masks)  # intersections of k extensions
    for k in range(1, max_k + 1):
        if target in meets:
            return k
        meets = {a & b for a in meets for b in masks}
    return None


class TestFinitePoset:
    def test_rejects_reflexive_pair(self):
        with pytest.raises(ValueError, match="irreflexive"):
            FinitePoset(tuple(row(2)), frozenset([(v(1), v(1))]))

    def test_rejects_symmetric_pair(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            FinitePoset(
                tuple(row(2)), frozenset([(v(1), v(2)), (v(2), v(1))])
            )

    def test_rejects_missing_transitive_pair(self):
        with pytest.raises(ValueError, match="transitive"):
            FinitePoset(
                tuple(row(3)), frozenset([(v(1), v(2)), (v(2), v(3))])
            )

    def test_transitivity_names_the_first_violation_in_element_order(self):
        # both 1 < 3 and 1 < 4 are missing; 3 comes first among the elements
        pairs = [(v(1), v(2)), (v(2), v(3)), (v(2), v(4))]
        with pytest.raises(ValueError) as info:
            FinitePoset(tuple(row(4)), frozenset(pairs))
        assert str(info.value) == (
            "strict order is not transitive: 1,0 < 2,0 < 3,0 but not 1,0 < 3,0"
        )

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(1, 1), (2, 2)], "strict order is not irreflexive at 1,0"),
            (
                [(1, 2), (2, 1), (3, 4), (4, 3)],
                "strict order is not antisymmetric on 1,0, 2,0",
            ),
        ],
        ids=["irreflexive", "antisymmetric"],
    )
    @pytest.mark.parametrize("reverse", [False, True], ids=["built", "reversed"])
    def test_axiom_failure_names_the_first_violation_in_element_order(
        self, pairs, message, reverse
    ):
        # the message must not depend on the order the pair set was built in
        built = pairs[::-1] if reverse else pairs
        with pytest.raises(ValueError) as info:
            FinitePoset(tuple(row(4)), frozenset((v(a), v(b)) for a, b in built))
        assert str(info.value) == message

    def test_rejects_duplicate_elements(self):
        with pytest.raises(ValueError, match="^duplicate elements$"):
            FinitePoset((v(1), v(2), v(1)), frozenset())

    def test_rejects_foreign_elements(self):
        with pytest.raises(ValueError, match="non-element"):
            FinitePoset(tuple(row(2)), frozenset([(v(1), v(9))]))

    def test_from_digraph_takes_reachability(self):
        g = graph_on(3, [(0, 1), (1, 2)])
        assert poset_of(g).strict == reachability(g).pairs

    def test_strict_digraph_round_trip(self):
        p = poset_of(graph_on(4, [(0, 1), (1, 2), (0, 3)]))
        assert reachability(p.strict_digraph()).pairs == p.strict

    def test_strict_digraph_arcs_in_element_order(self):
        elements = (v(4), v(2), v(1), v(3))
        pairs = {(v(1), v(2)), (v(1), v(3)), (v(2), v(3)), (v(4), v(3))}
        got = FinitePoset(elements, frozenset(pairs)).strict_digraph().arcs
        assert got == ((v(4), v(3)), (v(2), v(3)), (v(1), v(2)), (v(1), v(3)))


def test_oracle_imports_only_realizer_from_the_decider():
    """The oracle stays independent of the decider it checks."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    from_decider = [n.lstrip(".") for n in names if "realizers" in n.split(".")]
    assert from_decider == ["realizers.Realizer"]


class TestEnumerateLinearExtensions:
    def test_chain_has_one(self):
        p = poset_of(graph_on(3, [(0, 1), (1, 2)]))
        assert list(enumerate_linear_extensions(p)) == [Chain(row(3))]

    def test_antichain_has_factorial_many(self):
        p = poset_of(graph_on(4, []))
        assert sum(1 for _ in enumerate_linear_extensions(p)) == 24

    def test_cobweb_level_3_has_two(self):
        exts = list(enumerate_linear_extensions(cobweb_poset(fib_cobweb(3))))
        assert len(exts) == 2

    def test_limit(self):
        p = poset_of(graph_on(4, []))
        assert sum(1 for _ in enumerate_linear_extensions(p, limit=7)) == 7
        with pytest.raises(ValueError):
            next(enumerate_linear_extensions(p, limit=0))

    def test_size_guard(self):
        p = poset_of(graph_on(13, [(i, i + 1) for i in range(12)]))
        with pytest.raises(TooLargeError):
            next(enumerate_linear_extensions(p))

    def test_guards_raise_on_the_call(self):
        with pytest.raises(TooLargeError):
            enumerate_linear_extensions(poset_of(graph_on(13, [])))
        with pytest.raises(ValueError, match="limit"):
            enumerate_linear_extensions(poset_of(graph_on(4, [])), limit=0)

    def test_guard_boundary_is_inclusive(self):
        p = poset_of(graph_on(12, [(i, i + 1) for i in range(11)]))
        assert len(list(enumerate_linear_extensions(p))) == 1

    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_matches_permutation_filter(self, p):
        got = [c.order for c in enumerate_linear_extensions(p)]
        assert got == permutation_extensions(p)

    @settings(max_examples=30, deadline=None)
    @given(small_posets())
    def test_every_extension_contains_the_order(self, p):
        for c in enumerate_linear_extensions(p):
            assert all(c.rank(a) < c.rank(b) for a, b in p.strict)


class TestBruteForceDimLe2:
    def test_chain_realized_by_itself_twice(self):
        p = poset_of(graph_on(3, [(0, 1), (1, 2)]))
        result = brute_force_dim_le_2(p)
        assert result
        assert result.witness.first == result.witness.second == Chain(row(3))

    def test_witness_realizer_verifies(self):
        for p in (
            cobweb_poset(fib_cobweb(4)),
            cobweb_poset(build_cobweb(ConstantSequence(2), 2)),
            poset_of(graph_on(4, [(0, 2), (1, 2), (1, 3)])),
        ):
            result = brute_force_dim_le_2(p)
            assert result
            assert verify_realizer(result.witness)

    def test_witness_intersection_is_the_order(self):
        p = cobweb_poset(fib_cobweb(4))
        r = brute_force_dim_le_2(p).witness
        diagonal = {(e, e) for e in p.elements}
        assert intersect_chains(r.first, r.second) == p.strict | diagonal

    def test_standard_3d_poset_fails(self):
        assert not brute_force_dim_le_2(standard_3d_poset())

    def test_empty_and_singleton(self):
        assert brute_force_dim_le_2(poset_of(graph_on(0, [])))
        assert brute_force_dim_le_2(poset_of(graph_on(1, [])))

    def test_size_guard(self):
        p = poset_of(graph_on(10, [(i, i + 1) for i in range(9)]))
        with pytest.raises(TooLargeError):
            brute_force_dim_le_2(p)

    def test_nine_element_two_word_path(self):
        # 9 elements pushes pair masks past one 64-bit word
        p = cobweb_poset(build_cobweb(ConstantSequence(3), 2))
        result = brute_force_dim_le_2(p)
        assert result
        assert verify_realizer(result.witness)


class TestOrderDimension:
    def test_empty_and_singleton_are_chains(self):
        assert order_dimension(poset_of(graph_on(0, []))) == 1
        assert order_dimension(poset_of(graph_on(1, []))) == 1

    def test_chain_is_dimension_1(self):
        assert order_dimension(poset_of(graph_on(4, [(i, i + 1) for i in range(3)]))) == 1

    def test_antichain_is_dimension_2(self):
        assert order_dimension(poset_of(graph_on(2, []))) == 2

    def test_cobweb_is_dimension_2(self):
        assert order_dimension(cobweb_poset(fib_cobweb(3))) == 2

    def test_standard_3d_poset_is_dimension_3(self):
        assert order_dimension(standard_3d_poset()) == 3

    def test_max_k_cuts_off(self):
        assert order_dimension(poset_of(graph_on(2, [])), max_k=1) is None
        assert order_dimension(standard_3d_poset(), max_k=2) is None

    def test_max_k_validation(self):
        p = poset_of(graph_on(2, []))
        with pytest.raises(ValueError):
            order_dimension(p, max_k=0)
        with pytest.raises(ValueError):
            order_dimension(p, max_k=4)

    def test_size_guard(self):
        p = poset_of(graph_on(9, []))
        with pytest.raises(TooLargeError):
            order_dimension(p)

    # The literal k-fold reference takes tens of seconds at 8 elements,
    # so these two use the known answers: S3 plus two isolated elements
    # has dimension 3, and S4 is the smallest poset of dimension 4.
    @pytest.mark.parametrize(
        "p, want", [(s3_plus(2), 3), (standard_example(4), None)], ids=["S3+2", "S4"]
    )
    def test_eight_elements_in_time(self, p, want):
        start = perf_counter()
        got = order_dimension(p, max_k=3)
        elapsed = perf_counter() - start
        assert got == want
        assert elapsed < 1

    @settings(max_examples=25, deadline=None)
    @given(small_posets())
    def test_consistent_with_pair_search(self, p):
        dim = order_dimension(p)
        assert dim is not None  # 5 elements never exceed dimension 3
        assert (dim <= 2) == bool(brute_force_dim_le_2(p))
        if dim == 1:
            assert len(p.strict) == len(p) * (len(p) - 1) // 2


class TestPairSearchAgainstTheDefinition:
    """The partner lookup against a literal scan over all pairs of extensions."""

    @staticmethod
    def assert_same_as_reference(p):
        got = brute_force_dim_le_2(p)
        want = reference_pair(p)
        assert bool(got) == (want is not None), sorted(p.strict)
        if want is not None:
            assert (got.witness.first, got.witness.second) == want, sorted(p.strict)

    def test_every_regular_dag_up_to_6_vertices(self):
        for p in regular_posets(6):
            self.assert_same_as_reference(p)

    def test_seeded_dags_with_7_and_8_vertices(self):
        for p in seeded_posets(30, (7, 8)):
            self.assert_same_as_reference(p)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_s3_plus_isolated(self, k):
        p = s3_plus(k)
        self.assert_same_as_reference(p)
        assert not brute_force_dim_le_2(p)

    def test_masks_are_the_enumerated_extensions_in_order(self):
        posets = [
            *regular_posets(5),
            *seeded_posets(20, (7, 8)),
            s3_plus(1),
            s3_plus(2),
            standard_example(4),
            *(poset_of(graph_on(n, [])) for n in range(8)),
        ]
        for p in posets:
            masks, target, incomp = _extension_pair_masks(p)
            _, want, want_target = reference_masks(p)
            assert (masks, target) == (want, want_target)
            idx = {e: i for i, e in enumerate(p.elements)}
            n = len(p)
            assert incomp == sum(
                1 << (idx[a] * n + idx[b])
                for a in p.elements
                for b in p.elements
                if a != b and (a, b) not in p.strict and (b, a) not in p.strict
            )

    def test_order_dimension_matches_the_definition(self):
        posets = [*regular_posets(5), *seeded_posets(15, (6, 7)), s3_plus(0), s3_plus(1)]
        for p in posets:
            for k in (1, 2, 3):
                want = reference_dimension(p, k)
                assert order_dimension(p, k) == want, (k, sorted(p.strict))

    def test_nine_element_antichain_in_time(self):
        p = poset_of(graph_on(9, []))
        start = perf_counter()
        result = brute_force_dim_le_2(p)
        elapsed = perf_counter() - start
        assert result
        assert result.witness.first == Chain(row(9))
        assert result.witness.second == Chain(reversed(row(9)))
        assert elapsed < 1.5


class TestExtensionsOncePerPoset:
    """The pair masks are enumerated once per poset and never seen from outside."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = []
        enumerate_masks = oracle._extension_pair_masks

        def counted(p):
            calls.append(p)
            return enumerate_masks(p)

        monkeypatch.setattr(oracle, "_extension_pair_masks", counted)
        return calls

    @staticmethod
    def seeded_dimension_2():
        return next(p for p in seeded_posets(20, (7,)) if order_dimension(p) == 2)

    @pytest.mark.parametrize("which, dim", [("seeded 7", 2), ("S3+1", 3)])
    def test_both_oracle_calls_share_one_enumeration(self, enumerations, which, dim):
        p = self.seeded_dimension_2() if which == "seeded 7" else s3_plus(1)
        p = FinitePoset(p.elements, p.strict)  # fresh, nothing enumerated yet
        enumerations.clear()  # choosing p enumerated other posets
        assert bool(brute_force_dim_le_2(p)) == (dim == 2)
        assert order_dimension(p, 2) == (2 if dim == 2 else None)
        assert order_dimension(p, 3) == dim
        assert enumerations == [p]

    def test_a_chain_is_never_enumerated(self, enumerations):
        assert order_dimension(poset_of(graph_on(4, [(0, 1), (1, 2), (2, 3)])), 1) == 1
        assert enumerations == []

    def test_size_guard_before_enumeration(self, enumerations):
        with pytest.raises(TooLargeError):
            order_dimension(poset_of(graph_on(9, [])))
        assert enumerations == []

    def test_memo_is_invisible(self):
        fields = dataclasses.fields(FinitePoset)
        assert [(f.name, f.init, f.compare, f.repr) for f in fields] == [
            ("elements", True, True, True),
            ("strict", True, True, True),
            ("_pred", False, False, False),
            ("_succ", False, False, False),
        ]
        p = self.seeded_dimension_2()
        brute_force_dim_le_2(p)
        order_dimension(p)
        fresh = FinitePoset(p.elements, p.strict)
        assert p == fresh
        assert hash(p) == hash(fresh)
        assert repr(p) == repr(fresh)

    @pytest.mark.parametrize("dimension_first", [False, True])
    def test_witness_does_not_depend_on_call_order(self, dimension_first):
        def witness(p):
            result = brute_force_dim_le_2(p)
            return (result.witness.first, result.witness.second) if result else None

        for p in [*seeded_posets(10, (6, 7)), s3_plus(1), cobweb_poset(fib_cobweb(4))]:
            want = witness(FinitePoset(p.elements, p.strict))
            p = FinitePoset(p.elements, p.strict)
            if dimension_first:
                dim = order_dimension(p)
            got = witness(p)
            if not dimension_first:
                dim = order_dimension(p)
            assert got == want
            assert (dim <= 2) == (want is not None)
