"""Digraph construction against the old per-arc builder and readers.

The references in helpers.py are the builder and edge-list reader as
they were before repeats were detected in C and tokens cached as read:
the same vertices, arcs, successor lists and error messages must come
out of random texts and arc lists with every kind of fault planted.
"""

import gc
import json
import re
import tracemalloc
from array import array
from functools import partial
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobwebs import (
    Digraph,
    FinitePoset,
    Vertex,
    build_cobweb,
    parse_sequence_spec,
    transitive_reduction,
)
from cobwebs.serialization import (
    _chunks,
    graph_from_edgelist,
    graph_from_json,
    graph_from_text,
    graph_to_edgelist,
    graph_to_json,
)

from helpers import (
    reference_digraph,
    reference_from_index_arcs,
    reference_graph_from_edgelist,
    reference_graph_from_json,
)


def arcs_in_order(g):
    """The index pairs in insertion order: each tail's next unread head, step by step."""
    read = [0] * len(g.vertices)
    out = []
    for t in g._tails:
        out.append((t, g._succ[t][read[t]]))
        read[t] += 1
    assert read == [len(heads) for heads in g._succ]
    return out


def fields(fn, *args):
    """The stored fields of fn(*args), with its arcs in order, or what it raised."""
    try:
        g = fn(*args)
    except ValueError as err:
        return type(err), str(err)
    assert type(g._tails) is array and g._tails.typecode == "I"
    arcs = list(g._pairs())
    assert arcs == arcs_in_order(g)
    return g.vertices, g._index, arcs, g._tails, g._succ


# ------------------------------------------------------------ strategies

KEYS = st.tuples(st.integers(1, 4), st.integers(0, 2))
BAD_TOKENS = ["0,1", "1,-1", "a,1", "1,2,3", "", "1", "1;2"]


@st.composite
def tokens(draw, key):
    p, l = key
    form = draw(
        st.sampled_from(
            ["{p},{l}", "{p}, {l}", "0{p},{l}", " {p},{l} ", "\t{p} ,{l}\t", "{p},0{l}"]
        )
    )
    return form.format(p=p, l=l)


@st.composite
def edgelist_texts(draw):
    """Edge-list text with repeats, loops, bad tokens, comments and mixed line ends."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=6))
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(
            st.sampled_from(
                ["arc"] * 6 + ["loop", "repeat", "bare", "blank", "space", "comment", "bad"]
            )
        )
        if kind == "arc":
            t, h = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
            line = f"{draw(tokens(t))}->{draw(tokens(h))}"
        elif kind == "loop":
            k = draw(st.sampled_from(keys))
            line = f"{draw(tokens(k))} -> {draw(tokens(k))}"
        elif kind == "repeat":
            arcs = [x for x in lines if "->" in x.split("#")[0]]
            line = draw(st.sampled_from(arcs)) if arcs else ""
        elif kind == "bare":
            line = draw(tokens(draw(st.sampled_from(keys))))
        elif kind == "blank":
            line = ""
        elif kind == "space":
            line = " \t "
        elif kind == "comment":
            line = draw(st.sampled_from(["# 1,0 -> 2,0", "  # note"]))
        else:
            bad = draw(st.sampled_from(BAD_TOKENS))
            other = draw(tokens(draw(st.sampled_from(keys))))
            line = draw(st.sampled_from([bad, f"{bad} -> {other}", f"{other} -> {bad}"]))
        if draw(st.booleans()) and kind != "comment":
            line += draw(st.sampled_from(["  # trailing", "#-> 9,9", "\t"]))
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def json_texts(draw):
    """Graph JSON with duplicate vertices, repeats, loops, unknown ends and bad shapes."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=6, unique=True))
    vertices = [list(k) for k in keys]
    if draw(st.integers(0, 4)) == 0:
        vertices.insert(draw(st.integers(0, len(vertices))), list(draw(st.sampled_from(keys))))
    if draw(st.integers(0, 6)) == 0:
        vertices.append(draw(st.sampled_from([[0, 1], [1.0, 0], [True, 0], "1,0"])))
    arcs = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["arc"] * 6 + ["loop", "repeat", "unknown", "bad"]))
        t, h = list(draw(st.sampled_from(keys))), list(draw(st.sampled_from(keys)))
        if kind == "loop":
            arc = [t, t]
        elif kind == "repeat" and arcs:
            arc = draw(st.sampled_from(arcs))
        elif kind == "unknown":
            arc = draw(st.sampled_from([[t, [9, 9]], [[9, 9], h]]))
        elif kind == "bad":
            arc = draw(st.sampled_from([[t], "ab", [t, [1.0, 0]], [[True, 0], h], [t, h, t]]))
        else:
            arc = [t, h]
        arcs.append(arc)
    return json.dumps({"vertices": vertices, "arcs": arcs})


@st.composite
def vertex_arc_lists(draw):
    """Vertices, possibly repeated, and arcs among them and one outsider."""
    vs = [Vertex(*k) for k in draw(st.lists(KEYS, min_size=1, max_size=6, unique=True))]
    if draw(st.integers(0, 5)) == 0:
        vs.append(draw(st.sampled_from(vs)))
    ends = st.sampled_from(vs + [Vertex(9, 9)] if draw(st.booleans()) else vs)
    arcs = draw(st.lists(st.tuples(ends, ends), max_size=14))
    return vs, arcs


# ------------------------------------------------------------------ tests


class TestReadersMatchTheOldBuilder:
    @settings(max_examples=400, deadline=None)
    @given(edgelist_texts())
    def test_edgelist(self, text):
        assert fields(graph_from_edgelist, text) == fields(reference_graph_from_edgelist, text)

    @settings(max_examples=400, deadline=None)
    @given(json_texts())
    def test_json(self, text):
        assert fields(graph_from_json, text) == fields(reference_graph_from_json, text)

    @settings(max_examples=300, deadline=None)
    @given(vertex_arc_lists())
    def test_public_constructor(self, case):
        vs, arcs = case
        assert fields(Digraph, vs, arcs) == fields(reference_digraph, vs, arcs)
        # a lazily read arc iterable, as the old builder read every one
        assert fields(Digraph, vs, iter(arcs)) == fields(reference_digraph, vs, arcs)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        )
    ))
    def test_index_arcs(self, case):
        # the public constructor on the vertex pairs of index arcs, loops included
        n, arcs = case
        vs = [Vertex(i, 0) for i in range(1, n + 1)]
        pairs = [(vs[t], vs[h]) for t, h in arcs]
        assert fields(Digraph, vs, pairs) == fields(reference_from_index_arcs, vs, arcs)


class TestChunkedLines:
    @settings(max_examples=300, deadline=None)
    @given(
        st.text(st.sampled_from("ab,1#-> \t\n\r\x0b\x0c\x1c\x85\u2028"), max_size=40),
        st.integers(1, 6),
    )
    def test_same_lines_as_splitlines(self, text, size):
        lines = chain.from_iterable(map(str.splitlines, _chunks(text, size)))
        assert list(lines) == text.splitlines()

    @pytest.mark.parametrize("tail", ["", "1,0 -> 1,0\r\n", "1,0 -> x\n", "# end\n3,10\r\n"])
    def test_text_longer_than_a_chunk(self, tail):
        text = graph_to_edgelist(build_cobweb(parse_sequence_spec("fib"), 11).hasse)
        text = text.replace("\n", "\r\n", 300) + tail
        assert len(text) > 1 << 16
        assert fields(graph_from_edgelist, text) == fields(reference_graph_from_edgelist, text)


class TestFaultOrder:
    """Checks that the builder no longer interleaves still run in input order."""

    A, B, OUT = Vertex(1, 0), Vertex(2, 0), Vertex(9, 0)

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(A, A), (A, OUT)], "loop at 1,0"),
            ([(A, OUT), (A, A)], "arc endpoint 9,0 is not a vertex"),
            ([(A, B), (A, B), (B, B), (OUT, A)], "loop at 2,0"),
            ([(A, B), (B, A), (A, B), (OUT, OUT), (A, A)], "arc endpoint 9,0 is not a vertex"),
        ],
    )
    def test_public_constructor(self, arcs, message):
        vs = [self.A, self.B]
        with pytest.raises(ValueError) as info:
            Digraph(vs, arcs)
        assert str(info.value) == message
        assert fields(reference_digraph, vs, arcs) == (ValueError, message)

    def test_unpacking_fault_after_a_loop(self):
        # the old builder raised on the loop before reading the next arc
        arcs = [(self.A, self.A), (self.A, self.B, self.A)]
        with pytest.raises(ValueError, match="^loop at 1,0$"):
            Digraph([self.A, self.B], arcs)

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([[[1, 0], [1, 0]], [[1, 0], [9, 0]]], "loop at 1,0"),
            ([[[1, 0], [9, 0]], [[1, 0], [1, 0]]], "arc endpoint 9,0 is not a vertex"),
            ([[[1, 0], [2, 0]], [[2, 0], [2, 0]], [[9, 0], [1, 0]]], "loop at 2,0"),
        ],
    )
    def test_json_reader(self, arcs, message):
        text = json.dumps({"vertices": [[1, 0], [2, 0]], "arcs": arcs})
        assert fields(graph_from_json, text)[1] == message
        assert fields(reference_graph_from_json, text)[1] == message


class TestArcList:
    VS = [Vertex(i, 0) for i in range(1, 5)]

    def test_list_without_repeats_is_kept(self):
        # the reader's tails array and successor lists are kept, not copied
        succ, tails = [[1, 2], [], [3], []], array("I", [0, 2, 0])
        g = Digraph._from_succ(self.VS, succ, tails)
        assert g._tails is tails
        assert g._succ is succ
        assert list(g._pairs()) == [(0, 1), (2, 3), (0, 2)]
        arcs = [(0, 1), (2, 3), (0, 2)]
        g = Digraph(self.VS, [(self.VS[t], self.VS[h]) for t, h in arcs])
        assert list(g._pairs()) == arcs
        assert g._tails == array("I", [0, 2, 0])
        assert g._succ == [[1, 2], [], [3], []]

    def test_repeats_are_dropped_from_a_copy(self):
        arcs = [(0, 1), (2, 3), (0, 1), (0, 2), (2, 3)]
        pairs = [(self.VS[t], self.VS[h]) for t, h in arcs]
        g = Digraph(self.VS, pairs)
        assert list(g._pairs()) == [(0, 1), (2, 3), (0, 2)]
        assert g._tails == array("I", [0, 2, 0])
        assert g._succ == [[1, 2], [], [3], []]
        assert arcs == [(0, 1), (2, 3), (0, 1), (0, 2), (2, 3)]
        assert pairs == [(self.VS[t], self.VS[h]) for t, h in arcs]

    def test_repeats_are_dropped_from_shared_lists(self):
        # tails 0 and 1 share one list that repeats head 3
        heads = [3, 2, 3]
        succ, tails = [heads, heads, [], []], array("I", [0, 1, 1, 0, 0, 1])
        g = Digraph._from_succ(self.VS, succ, tails)
        assert list(g._pairs()) == [(0, 3), (1, 3), (1, 2), (0, 2)]
        assert g._succ == [[3, 2], [3, 2], [], []]
        assert heads == [3, 2, 3] and tails == array("I", [0, 1, 1, 0, 0, 1])

    def test_pairs_of_shared_lists(self):
        heads = [2, 3]
        g = Digraph._from_succ(self.VS, [heads, heads, [], []], array("I", [1, 0, 0, 1]))
        assert list(g._pairs()) == [(1, 2), (0, 2), (0, 3), (1, 3)]
        assert list(g._pairs()) == arcs_in_order(g)


class TestCanonicalOrder:
    """Without a tails array, each tail's heads in turn, in vertex order."""

    VS = TestArcList.VS

    def test_pairs_and_count(self):
        heads = [2, 3]
        g = Digraph._from_succ(self.VS, [heads, heads, [3], []], None)
        assert list(g._pairs()) == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert g._tails is None and g._m == 5 and repr(g) == "Digraph(4 vertices, 5 arcs)"
        assert list(g._pairs()) == arcs_in_order(Digraph(self.VS, g.arcs))
        assert g == Digraph(self.VS, g.arcs) and hash(g) == hash(Digraph(self.VS, g.arcs))

    def test_the_package_never_repeats_a_head(self):
        # so no canonical list is checked for repeats
        for spec in SPECS:
            for max_level in range(11):
                built = build_cobweb(parse_sequence_spec(spec), max_level).hasse
                made = (
                    built,
                    transitive_reduction(built),
                    FinitePoset.from_digraph(built).strict_digraph(),
                )
                for g in made:
                    assert g._tails is None
                    assert all(len(set(heads)) == len(heads) for heads in g._succ)

    def test_lists_are_kept_as_given(self):
        heads = [3, 1]
        succ = [heads, [], heads, []]
        g = Digraph._from_succ(self.VS, succ, None)
        assert g._succ is succ and g._succ[0] is g._succ[2] is heads
        assert list(g._pairs()) == [(0, 3), (0, 1), (2, 3), (2, 1)]
        assert g._tails is None and g._m == 4 and heads == [3, 1]

    def test_reduction_keeps_the_kind_of_order(self):
        built = build_cobweb(parse_sequence_spec("fib"), 6).hasse
        read = graph_from_edgelist(graph_to_edgelist(built))
        for g in (built, read):
            assert (transitive_reduction(g)._tails is None) == (g._tails is None)
            assert list(transitive_reduction(g)._pairs()) == list(g._pairs())
        extra = Digraph._from_succ(self.VS, [[1, 2], [2], [], []], None)  # 0 -> 2 is implied
        reduced = transitive_reduction(extra)
        assert reduced._tails is None and list(reduced._pairs()) == [(0, 1), (1, 2)]
        assert FinitePoset.from_digraph(extra).strict_digraph()._tails is None


class TestByteOrderMark:
    def test_json_and_edgelist(self):
        json_text = '{"vertices": [[1, 0], [1, 1]], "arcs": [[[1, 0], [1, 1]]]}'
        for text in (json_text, "1,0 -> 1,1\n"):
            expected = fields(graph_from_text, text)
            assert fields(graph_from_text, "\ufeff" + text) == expected
            assert fields(graph_from_text, "\ufeff \n" + text) == expected

    def test_only_one_mark_is_dropped(self):
        # the message shows the second mark escaped, as repr writes it
        with pytest.raises(ValueError, match=re.escape("invalid vertex '\\ufeff1,0'")):
            graph_from_text("\ufeff\ufeff1,0 -> 1,1\n")


# ---------------------------------------------------------------- cobwebs

SPECS = ["fib", "const:1", "const:3", "list:2,1,3,1,4,2,1,5,2,3,1"]


def layered_arcs(sizes: list[int]) -> list[tuple[int, int]]:
    """Every vertex of one level to every vertex of the next, as index pairs."""
    arcs, start = [], 0
    for a, b in zip(sizes, sizes[1:]):
        arcs += [(start + i, start + a + j) for i in range(a) for j in range(b)]
        start += a
    return arcs


class TestCobwebBuilder:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("max_level", range(11))
    def test_matches_the_index_arc_constructor(self, spec, max_level):
        # the layered index arcs, as vertex pairs, through the public constructor
        sequence = parse_sequence_spec(spec)
        sizes = [sequence.size(s) for s in range(max_level + 1)]
        vertices = [Vertex(j, s) for s, a in enumerate(sizes) for j in range(1, a + 1)]
        g = build_cobweb(sequence, max_level).hasse
        pairs = [(vertices[t], vertices[h]) for t, h in layered_arcs(sizes)]
        expected = Digraph(vertices, pairs)
        assert g.vertices == expected.vertices
        assert g._index == expected._index
        assert g._succ == expected._succ
        assert g._tails is None  # the canonical order needs no tails array
        assert list(g._pairs()) == arcs_in_order(expected) == layered_arcs(sizes)
        for u in g.vertices:
            assert g.successors(u) == expected.successors(u)
        assert g == expected


class TestMemoryModel:
    """The bytes per arc that a fib 14 Digraph (142,130 arcs) retains.

    4 bytes of tails per arc, plus one successor-list slot per arc for
    parsed input; the builder keeps no tails, and the tails of one level
    share one list, so its bytes are per vertex.
    """

    ARCS = 142_130

    def retained_per_arc(self, fn, arg):
        fn(arg)  # first-use caches are not the digraph's
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = fn(arg)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(getattr(kept, "hasse", kept).arcs) == self.ARCS
        return (after - before) / self.ARCS

    def test_built_cobweb(self):
        assert self.retained_per_arc(partial(build_cobweb, parse_sequence_spec("fib")), 14) < 2

    @pytest.mark.parametrize(
        "emit, read",
        [(graph_to_edgelist, graph_from_edgelist), (graph_to_json, graph_from_json)],
        ids=["edgelist", "json"],
    )
    def test_reader(self, emit, read):
        text = emit(build_cobweb(parse_sequence_spec("fib"), 14).hasse)
        assert self.retained_per_arc(read, text) < 20
