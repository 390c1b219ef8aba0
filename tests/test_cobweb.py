"""Level sequences and cobweb poset construction."""

from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobwebs import (
    CobwebPoset,
    ConstantSequence,
    ExplicitSequence,
    FibonacciSequence,
    LevelOutOfRangeError,
    NonPositiveSizeError,
    SequenceError,
    SequenceSpecError,
    Vertex,
    build_cobweb,
    is_acyclic,
    is_regular,
    iter_topological_orders,
    parse_sequence_spec,
    reachability,
    strict_order_relation,
)

from helpers import fib_cobweb, v

explicit_sizes = st.lists(st.integers(1, 5), min_size=1, max_size=7)


class TestSequences:
    def test_fibonacci_prefix(self):
        seq = FibonacciSequence()
        assert [seq.size(s) for s in range(9)] == [1, 1, 1, 2, 3, 5, 8, 13, 21]

    def test_fibonacci_rejects_negative_level(self):
        with pytest.raises(LevelOutOfRangeError):
            FibonacciSequence().size(-1)

    def test_constant(self):
        assert ConstantSequence(4).size(17) == 4

    def test_constant_rejects_non_positive(self):
        with pytest.raises(NonPositiveSizeError):
            ConstantSequence(0)

    def test_explicit(self):
        seq = ExplicitSequence((2, 1, 3))
        assert [seq.size(s) for s in range(3)] == [2, 1, 3]

    def test_explicit_needs_an_entry(self):
        with pytest.raises(
            SequenceError, match="^explicit sequence needs at least one entry$"
        ):
            ExplicitSequence(())

    def test_explicit_level_out_of_range(self):
        with pytest.raises(LevelOutOfRangeError):
            ExplicitSequence((2, 1)).size(2)

    def test_explicit_non_positive_entry_fails_on_query(self):
        seq = ExplicitSequence((1, 0))
        assert seq.size(0) == 1
        with pytest.raises(NonPositiveSizeError):
            seq.size(1)


class TestParseSequenceSpec:
    def test_known_forms(self):
        assert parse_sequence_spec("fib") == FibonacciSequence()
        assert parse_sequence_spec("const:3") == ConstantSequence(3)
        assert parse_sequence_spec("list:1,2,3") == ExplicitSequence((1, 2, 3))

    @pytest.mark.parametrize(
        "bad", ["", "fibonacci", "const:", "const:x", "list:", "list:1,a", "3"]
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec(bad)

    def test_const_zero_is_a_value_error_not_a_parse_error(self):
        with pytest.raises(NonPositiveSizeError):
            parse_sequence_spec("const:0")


class TestBuild:
    def test_fibonacci_level_5_counts(self):
        p = fib_cobweb(5)
        sizes = [1, 1, 1, 2, 3, 5]
        assert [len(level) for level in p.levels] == sizes
        assert len(p) == sum(sizes)
        assert len(p.hasse.arcs) == sum(
            a * b for a, b in zip(sizes, sizes[1:])
        )

    def test_level_vertices_are_positioned(self):
        p = fib_cobweb(3)
        assert p.levels[3] == (Vertex(1, 3), Vertex(2, 3))

    def test_constant_one_is_a_path(self):
        p = build_cobweb(ConstantSequence(1), 3)
        assert p.hasse.arcs == (
            (v(1, 0), v(1, 1)),
            (v(1, 1), v(1, 2)),
            (v(1, 2), v(1, 3)),
        )

    def test_max_level_zero(self):
        p = build_cobweb(ExplicitSequence((3,)), 0)
        assert len(p) == 3
        assert p.hasse.arcs == ()

    def test_negative_max_level_rejected(self):
        with pytest.raises(ValueError):
            build_cobweb(FibonacciSequence(), -1)

    def test_explicit_too_short_for_max_level(self):
        with pytest.raises(LevelOutOfRangeError):
            build_cobweb(ExplicitSequence((1, 2)), 2)

    @settings(max_examples=50, deadline=None)
    @given(explicit_sizes)
    def test_counts_match_sequence(self, sizes):
        p = build_cobweb(ExplicitSequence(tuple(sizes)), len(sizes) - 1)
        assert [len(level) for level in p.levels] == sizes
        assert len(p.hasse.arcs) == sum(a * b for a, b in zip(sizes, sizes[1:]))

    @settings(max_examples=50, deadline=None)
    @given(explicit_sizes)
    def test_hasse_is_acyclic_and_regular(self, sizes):
        hasse = build_cobweb(ExplicitSequence(tuple(sizes)), len(sizes) - 1).hasse
        assert is_acyclic(hasse)
        assert is_regular(hasse)


class TestOrder:
    def test_leq_examples(self):
        p = fib_cobweb(4)
        assert p.leq(v(1, 2), v(2, 3))
        assert p.leq(v(2, 4), v(2, 4))
        assert not p.leq(v(1, 3), v(2, 3))
        assert not p.leq(v(2, 3), v(1, 2))

    def test_same_level_incomparable(self):
        p = fib_cobweb(4)
        strict = strict_order_relation(p)
        for x in p.levels[4]:
            for y in p.levels[4]:
                assert (x, y) not in strict

    def test_strict_relation_of_a_path(self):
        p = build_cobweb(ConstantSequence(1), 2)
        assert strict_order_relation(p).pairs == {
            (v(1, 0), v(1, 1)),
            (v(1, 0), v(1, 2)),
            (v(1, 1), v(1, 2)),
        }

    def test_strict_pair_count_level_3(self):
        p = fib_cobweb(3)
        vs = p.hasse.vertices
        expected = {(x, y) for x in vs for y in vs if p.leq(x, y) and x != y}
        assert strict_order_relation(p).pairs == expected
        assert len(expected) == 9

    def test_reachability_of_hasse_equals_strict_order(self):
        p = fib_cobweb(6)
        assert reachability(p.hasse).pairs == strict_order_relation(p).pairs

    @settings(max_examples=30, deadline=None)
    @given(explicit_sizes)
    def test_partial_order_axioms(self, sizes):
        p = build_cobweb(ExplicitSequence(tuple(sizes)), len(sizes) - 1)
        vs = p.hasse.vertices
        for x in vs:
            assert p.leq(x, x)
        for x in vs:
            for y in vs:
                if p.leq(x, y) and p.leq(y, x):
                    assert x == y
                for z in vs:
                    if p.leq(x, y) and p.leq(y, z):
                        assert p.leq(x, z)

    def test_repr_mentions_shape(self):
        assert "0..3" in repr(CobwebPoset(FibonacciSequence(), 3))


class TestTopologicalOrderCount:
    # each level is an interchangeable block, so the Hasse diagram has
    # exactly (product of factorials of the level sizes) linear extensions

    @pytest.mark.parametrize(
        "sizes,expected",
        [((1,), 1), ((2, 3), 12), ((3, 1, 2), 12), ((2, 2, 2), 8)],
    )
    def test_small_explicit_sequences(self, sizes, expected):
        p = build_cobweb(ExplicitSequence(sizes), len(sizes) - 1)
        assert expected == prod(factorial(a) for a in sizes)
        assert sum(1 for _ in iter_topological_orders(p.hasse)) == expected

    def test_fibonacci_level_4(self):
        # sizes 1, 1, 1, 2, 3 give 1 * 1 * 1 * 2 * 6 orders
        p = fib_cobweb(4)
        assert sum(1 for _ in iter_topological_orders(p.hasse)) == 12
