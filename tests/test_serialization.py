"""Text format round-trips and golden outputs."""

import json
import random
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobwebs import (
    Chain,
    ConstantSequence,
    Digraph,
    NoAdmissibleChain,
    NotRegular,
    Orderable,
    Realizer,
    ascending_chain,
    build_cobweb,
    decide_orderable,
    descending_chain,
)
from cobwebs import serialization, transitive_reduction
from cobwebs.serialization import (
    GRAPH_FORMATS,
    FormatError,
    _plain_json_graph,
    graph_from_edgelist,
    graph_from_json,
    graph_from_text,
    graph_to_dot,
    graph_to_edgelist,
    graph_to_json,
    parse_vertex,
    realizer_to_json,
    render_graph,
    verdict_to_json,
)

from helpers import REFERENCE_WRITERS, MALFORMED_JSON, fib_cobweb, graph_on, row, v


class TestVertexText:
    def test_round_trip(self):
        assert parse_vertex("2,3") == v(2, 3)
        assert parse_vertex(" 2 , 3 ".replace(" ", "")) == v(2, 3)

    @pytest.mark.parametrize("bad", ["2", "2,3,4", "a,1", "0,1", "1,-1", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_vertex(bad)


class TestJson:
    def test_round_trip_preserves_everything(self):
        g = fib_cobweb(4).hasse
        again = graph_from_json(graph_to_json(g))
        assert again.vertices == g.vertices
        assert again.arcs == g.arcs

    def test_keeps_isolated_vertices(self):
        g = Digraph(row(3), [(v(1), v(2))])
        assert graph_from_json(graph_to_json(g)).vertices == g.vertices

    def test_golden_output(self):
        g = Digraph([v(1, 0), v(1, 1)], [(v(1, 0), v(1, 1))])
        assert graph_to_json(g) == (
            "{\n"
            '  "vertices": [\n    [1, 0],\n    [1, 1]\n  ],\n'
            '  "arcs": [\n    [[1, 0], [1, 1]]\n  ]\n'
            "}\n"
        )

    def test_emission_is_valid_json(self):
        text = graph_to_json(fib_cobweb(3).hasse)
        payload = json.loads(text)
        assert set(payload) == {"vertices", "arcs"}

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            "[]",
            "{}",
            '{"vertices": [[1, 0]]}',
            '{"vertices": [[1]], "arcs": []}',
            '{"vertices": [[1, 0], [1, 0]], "arcs": []}',
            '{"vertices": [[0, 0]], "arcs": []}',
            '{"vertices": [[1, 0]], "arcs": [[[1, 0], [1, 0]]]}',
            '{"vertices": [[1, 0]], "arcs": [[[1, 0], [2, 0]]]}',
            '{"vertices": [[1, 0], [2, 0]], "arcs": [[[1, 0]]]}',
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            graph_from_json(bad)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"vertices": [[1,0]], "arcs": [], "vertices": []}', "vertices"),
            ('{"arcs": [], "vertices": [], "arcs": []}', "arcs"),
            ('{"vertices": [], "arcs": [], "note": 1, "note": 1}', "note"),
        ],
    )
    def test_rejects_a_repeated_top_level_key(self, text, key):
        with pytest.raises(FormatError, match=f"^duplicate key '{key}'$"):
            graph_from_json(text)

    def test_a_repeated_key_below_the_top_keeps_its_message(self):
        # such an object is no vertex; the message names the vertex as read
        with pytest.raises(
            FormatError, match=r"^expected a vertex as \[position, level\], got \{'a': 2\}$"
        ):
            graph_from_json('{"vertices": [{"a": 1, "a": 2}], "arcs": []}')

    @pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
    def test_decoder_errors_are_format_errors(self, name):
        with pytest.raises(FormatError, match="^invalid JSON: "):
            graph_from_json(MALFORMED_JSON[name])


class TestEdgelist:
    def test_round_trip_relation(self):
        g = fib_cobweb(4).hasse
        again = graph_from_edgelist(graph_to_edgelist(g))
        assert set(again.vertices) == set(g.vertices)
        assert set(again.arcs) == set(g.arcs)

    def test_comments_and_blanks(self):
        text = """
        # a comment line
        1,0 -> 1,1   # trailing comment

        1,1 -> 1,2
        3,5
        """
        g = graph_from_edgelist(text)
        assert set(g.vertices) == {v(1, 0), v(1, 1), v(1, 2), v(3, 5)}
        assert set(g.arcs) == {(v(1, 0), v(1, 1)), (v(1, 1), v(1, 2))}

    def test_emits_isolated_vertices_as_bare_lines(self):
        g = Digraph([v(2, 1), v(1, 0)], [])
        assert graph_to_edgelist(g) == "1,0\n2,1\n"

    def test_arcs_come_out_level_sorted(self):
        g = fib_cobweb(3).hasse
        lines = graph_to_edgelist(g).splitlines()
        assert lines[0] == "1,0 -> 1,1"
        assert lines[-1] == "1,2 -> 2,3"

    def test_empty_graph(self):
        assert graph_to_edgelist(Digraph([])) == ""
        assert len(graph_from_edgelist("")) == 0

    @pytest.mark.parametrize(
        "bad",
        ["1,0 ->", "-> 1,0", "1,0 -> 1,0", "1,0 -> 1,1 -> 1,2", "0,0 -> 1,1", "x"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            graph_from_edgelist(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            graph_from_edgelist("1,0 -> 1,1\nbogus")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "1,0 -> 1,1\n0,1 -> 1,1",
                "line 2: invalid vertex '0,1': vertex position must be >= 1, got 0",
            ),
            (
                "1,0 -> 1,1\n\n1,1 -> 2,-1",
                "line 3: invalid vertex '2,-1': vertex level must be >= 0, got -1",
            ),
            (  # the loop on line 1 would be raised only after the last line
                "1,1 -> 1,1\n1,0\n 0,0",
                "line 3: invalid vertex '0,0': vertex position must be >= 1, got 0",
            ),
            (
                "0,1 -> 0,1",
                "line 1: invalid vertex '0,1': vertex position must be >= 1, got 0",
            ),
        ],
    )
    def test_range_error_on_its_line(self, text, message):
        with pytest.raises(FormatError) as err:
            graph_from_edgelist(text)
        assert str(err.value) == message


class TestDot:
    def test_golden_output(self):
        g = build_cobweb(ConstantSequence(2), 1).hasse
        assert graph_to_dot(g) == (
            "digraph {\n"
            "  rankdir=BT;\n"
            '  { rank=same; "1,0"; "2,0"; }\n'
            '  { rank=same; "1,1"; "2,1"; }\n'
            '  "1,0" -> "1,1";\n'
            '  "1,0" -> "2,1";\n'
            '  "2,0" -> "1,1";\n'
            '  "2,0" -> "2,1";\n'
            "}\n"
        )

    def test_every_vertex_gets_a_rank_row(self):
        g = fib_cobweb(5).hasse
        text = graph_to_dot(g)
        assert text.count("rank=same") == 6
        for u in g.vertices:
            assert f'"{u}"' in text


class TestSniffing:
    def test_json_versus_edgelist(self):
        g = graph_on(2, [(0, 1)])
        assert graph_from_text(graph_to_json(g)) == g
        parsed = graph_from_text(graph_to_edgelist(g))
        assert set(parsed.arcs) == set(g.arcs)

    def test_render_dispatch(self):
        g = graph_on(2, [(0, 1)])
        for fmt, lead in (("json", "{"), ("dot", "digraph"), ("edgelist", "1,0")):
            assert render_graph(g, fmt).startswith(lead)
        with pytest.raises(ValueError):
            render_graph(g, "yaml")


class TestRealizerAndVerdictJson:
    def test_realizer_golden(self):
        p = fib_cobweb(3)
        r = Realizer(ascending_chain(p), descending_chain(p), p.hasse)
        assert realizer_to_json(r) == (
            "{\n"
            '  "chain_x": [[1, 0], [1, 1], [1, 2], [1, 3], [2, 3]],\n'
            '  "chain_y": [[1, 0], [1, 1], [1, 2], [2, 3], [1, 3]]\n'
            "}\n"
        )

    def test_orderable_verdict_golden(self):
        p = fib_cobweb(3)
        r = Realizer(ascending_chain(p), descending_chain(p), p.hasse)
        assert verdict_to_json(Orderable(r)) == (
            "{\n"
            '  "kind": "orderable",\n'
            '  "realizer": {\n'
            '    "chain_x": [[1, 0], [1, 1], [1, 2], [1, 3], [2, 3]],\n'
            '    "chain_y": [[1, 0], [1, 1], [1, 2], [2, 3], [1, 3]]\n'
            "  }\n"
            "}\n"
        )

    def test_orderable_verdict(self):
        verdict = decide_orderable(fib_cobweb(2).hasse)
        payload = json.loads(verdict_to_json(verdict))
        assert payload["kind"] == "orderable"
        assert payload["realizer"]["chain_x"] == [[1, 0], [1, 1], [1, 2]]

    def test_not_regular_verdict(self):
        payload = json.loads(verdict_to_json(NotRegular((v(1, 0), v(1, 2)))))
        assert payload == {"kind": "not_regular", "witness": [[1, 0], [1, 2]]}

    def test_not_regular_verdict_golden(self):
        assert verdict_to_json(NotRegular((v(1, 0), v(1, 2)))) == (
            "{\n"
            '  "kind": "not_regular",\n'
            '  "witness": [[1, 0], [1, 2]]\n'
            "}\n"
        )

    def test_empty_realizer_golden(self):
        r = Realizer(Chain([]), Chain([]), Digraph([]))
        assert realizer_to_json(r) == '{\n  "chain_x": [],\n  "chain_y": []\n}\n'

    def test_no_admissible_chain_verdict(self):
        payload = json.loads(verdict_to_json(NoAdmissibleChain(exhaustive=False)))
        assert payload == {"kind": "no_admissible_chain", "exhaustive": False}

    def test_rejects_non_verdicts(self):
        with pytest.raises(TypeError):
            verdict_to_json("orderable")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_json_round_trip_random_graphs(data):
    n = data.draw(st.integers(0, 6))
    vs = row(n)
    arcs = [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(n)
        if i != j and data.draw(st.booleans())
    ]
    g = Digraph(vs, arcs)
    again = graph_from_json(graph_to_json(g))
    assert again.vertices == g.vertices and again.arcs == g.arcs


# ------------------------------------------------- the two JSON reading paths


def json_read(text, plain=True):
    """What graph_from_json makes of text: the stored fields, or the FormatError text.

    With ``plain`` False the plain path is patched to refuse, also for
    the decoder's compact text, so every document is decoded and falls
    through to the public ``Digraph`` constructor, the reference.
    """
    with mock.patch.object(
        serialization, "_plain_json_graph", _plain_json_graph if plain else lambda t: None
    ):
        try:
            g = graph_from_json(text)
        except FormatError as err:
            return str(err)
    return g.vertices, list(g._pairs()), list(g._tails), g._succ


JSON_CHARS = ' \t\n\r0123456789[],{}":.-+eE_xv\\'


@st.composite
def json_graph_texts(draw):
    """Small graphs in json.dumps layouts, some with a fault or a mutation."""
    keys = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=6))
    vertices = [list(k) for k in keys]  # a repeated key is a duplicate vertex
    ends = st.sampled_from(vertices + [[9, 9]]) if vertices else st.just([1, 0])
    arcs = draw(st.lists(st.lists(ends, min_size=2, max_size=2), max_size=8))
    doc = {"vertices": vertices, "arcs": arcs}
    if draw(st.booleans()):
        doc = {"arcs": arcs, "vertices": vertices}
    text = json.dumps(
        doc,
        indent=draw(st.sampled_from([None, 0, 2, "\t", "\r\n "])),
        separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])),
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace", "chunk"]))
        if kind == "chunk":  # a copy of some stretch of the text, inserted at i
            j, k = sorted(draw(st.tuples(*[st.integers(0, len(text))] * 2)))
            text = text[:i] + text[j:k] + text[i:]
        else:
            char = draw(st.sampled_from(JSON_CHARS)) if kind != "delete" else ""
            text = text[:i] + char + text[i + (kind != "insert"):]
    return text


class TestPlainJsonPath:
    """The plain path gives what the public constructor gives, or hands the text on."""

    @settings(max_examples=500, deadline=None)
    @given(json_graph_texts(), st.sampled_from([1, 9, 1 << 20]))
    def test_same_result_as_the_decoder(self, text, block):
        decoded = json_read(text, plain=False)
        assert json_read(text) == decoded
        with mock.patch.object(serialization, "_ARC_BLOCK", block):
            g = _plain_json_graph(text)  # arcs split in blocks of a few bytes too
        if g is not None:
            assert (g.vertices, list(g._pairs()), list(g._tails), g._succ) == decoded

    @pytest.mark.parametrize(
        "layout",
        [
            {},
            {"indent": 2},
            {"separators": (",", ":")},
            {"indent": "\t"},
            {"indent": " \r\n"},
        ],
    )
    @pytest.mark.parametrize("arcs_first", [False, True])
    def test_plain_layouts_are_read_without_decoding(self, layout, arcs_first):
        g = fib_cobweb(6).hasse
        doc = json.loads(graph_to_json(g))
        if arcs_first:
            doc = {"arcs": doc["arcs"], "vertices": doc["vertices"]}
        text = json.dumps(doc, **layout)
        assert _plain_json_graph(text) == g
        assert json_read(text) == json_read(text, plain=False)

    @pytest.mark.parametrize(
        "text, vertices, arcs",
        [
            ('{"vertices": [[1, 0], [2, 0]], "arcs": []}', 2, 0),
            ('{"arcs": [], "vertices": [[1, 0], [2, 0]]}', 2, 0),
            ('{"vertices": [[1, 0], [2, 1]], "arcs": [[[1, 0], [2, 1]]]}', 2, 1),
            ('{"vertices": [], "arcs": []}', 0, 0),
        ],
    )
    def test_regions_are_counted_apart(self, text, vertices, arcs):
        # a list of two vertices, [[,],[,]] once packed, reads like one arc
        g = _plain_json_graph(text)
        assert (len(g), len(g.arcs)) == (vertices, arcs)

    @pytest.mark.parametrize(
        "text",
        [
            # two vertices where the arcs go, and an arc where the vertices go
            '{"vertices": [], "arcs": [[1, 0], [2, 0]]}',
            '{"vertices": [[[1, 0], [2, 0]]], "arcs": []}',
            # whitespace inside a key vanishes once packed
            '{"ver tices": [[1, 0]], "arcs": []}',
            '{"vertices": [[1, 0]], "ar\tcs": []}',
            '{"vertices": [[1, 0]], "arcs": [], "ver tices": []}',
            # a digit run before the object, or outside every slot
            '7{"vertices": [[1, 0]], "arcs": []}',
            '7{"vertices": [[1, ]], "arcs": []}',
            '{"vertices": [[1, 0]] 7, "arcs": []}',
            '{"vertices": [[, 0]] 7, "arcs": []}',
            '{"vertices": [[1, 0]], "arcs": []}7',
            # two runs in one slot, and an empty slot
            '{"vertices": [[1 2, 0]], "arcs": []}',
            '{"vertices": [[1, 0], [, 1]], "arcs": []}',
            # keys, numbers and values the decoder words
            '{"vertices": [[1, 0]], "arcs": [], "name": 1}',
            '{"\\u0076ertices": [[1, 0]], "arcs": []}',
            '{"vertices": [[01, 0]], "arcs": []}',
            '{"vertices": [[1, 00]], "arcs": []}',
            '{"vertices": [[0, 1]], "arcs": []}',
            '{"vertices": [[1.0, 1]], "arcs": []}',
            '{"vertices": [[-1, 1]], "arcs": []}',
            '{"vertices": [[1e0, 1]], "arcs": []}',
            '{"vertices": [[1' + "0" * 5000 + ', 0]], "arcs": []}',
            '{"vertices": [[1, 0], [1, 0]], "arcs": []}',
            '{"vertices": [[1, 0], [2, 0]], "arcs": [[[1, 0], [3, 0]]]}',
            '{"vertices": [[1, 0], [2, 0]], "arcs": [[[2, 0], [2, 0]]]}',
            '{"vertices": [[1, 0]], "vertices": [[1, 0]], "arcs": []}',
            '{"vertices": [[1, 0]], "arcs": [[[1, 0], [1' + "0" * 5000 + ', 0]]]}',
            '{"vertices": [[1, 0]], "arcs": []}\u00a0',
        ],
    )
    def test_other_documents_go_to_the_decoder(self, text):
        assert _plain_json_graph(text) is None
        assert json_read(text) == json_read(text, plain=False)

    @pytest.mark.parametrize(
        "text, message",
        [
            # an empty slot, balanced by two runs merged in one slot, so the
            # run count matches: in the vertex list and in an arc
            (
                '{"vertices": [[1 2, ]], "arcs": []}',
                "Expecting ',' delimiter: line 1 column 18 (char 17)",
            ),
            (
                '{"vertices": [[1, 0], [2, 1]], "arcs": [[[1, 0], [2 1, ]]]}',
                "Expecting ',' delimiter: line 1 column 53 (char 52)",
            ),
            # an empty slot, balanced by a digit run outside the lists
            ('7{"vertices": [[1, ]], "arcs": []}', "Extra data: line 1 column 2 (char 1)"),
            (
                '{"vertices": [[, 0]] 7, "arcs": []}',
                "Expecting value: line 1 column 16 (char 15)",
            ),
        ],
    )
    def test_empty_slots_reach_the_decoder(self, text, message):
        assert _plain_json_graph(text) is None
        with pytest.raises(FormatError) as err:
            graph_from_json(text)
        assert str(err.value) == "invalid JSON: " + message

    def test_repeated_arcs_are_dropped(self):
        text = '{"vertices": [[1, 0], [1, 1]], "arcs": [[[1, 0], [1, 1]], [[1, 0], [1, 1]]]}'
        g = _plain_json_graph(text)
        assert g is not None and list(g._pairs()) == [(0, 1)]
        assert json_read(text) == json_read(text, plain=False)

    def test_blocks_cut_between_arcs(self):
        g = fib_cobweb(7).hasse
        text = graph_to_json(g)
        for block in (1, 2, 17, 100, len(text)):
            with mock.patch.object(serialization, "_ARC_BLOCK", block):
                h = _plain_json_graph(text)
            assert h == g and list(h._pairs()) == list(g._pairs())


# documents that only the decoder reads, each written with {vs} and {arcs}
DECODED = {
    "extra key": '{{"name": "fib 16, [[1, 0]] über 3", "vertices": {vs}, "arcs": {arcs}}}',
    "escaped key": '{{"\\u0076ertices": {vs}, "arcs": {arcs}}}',
    "negative zero": '{{"vertices": {vs}, "arcs": {arcs}}}',
}
VS = "[[1, 0], [2, 0], [1, 1]]"


def decoded_doc(form, vs, arcs):
    if form == "negative zero":
        vs, arcs = vs.replace(", 0]", ", -0]"), arcs.replace(", 0]", ", -0]")
    text = DECODED[form].format(vs=vs, arcs=arcs)
    assert _plain_json_graph(text) is None
    return text


class TestDecodedDocuments:
    """A decoded document reads as its compact form, which the plain path reads."""

    @pytest.mark.parametrize("form", DECODED)
    @pytest.mark.parametrize(
        "arcs", ["[]", "[[[1, 0], [1, 1]], [[2, 0], [1, 1]]]", "[[[2, 0], [1, 1]]] "]
    )
    def test_fields_of_the_compact_form(self, form, arcs):
        g = graph_from_json(decoded_doc(form, VS, arcs))
        compact = json.dumps(
            {"vertices": json.loads(VS), "arcs": json.loads(arcs)}, separators=(",", ":")
        )
        expected = _plain_json_graph(compact)
        assert (g.vertices, list(g._pairs()), g._tails, g._succ, g._m) == (
            expected.vertices,
            list(expected._pairs()),
            expected._tails,
            expected._succ,
            expected._m,
        )
        assert "_index" not in g.__getstate__()[1]

    @pytest.mark.parametrize("form", DECODED)
    @pytest.mark.parametrize(
        "vs, arcs, message",
        [
            # shapes first, in input order, then the constructor's faults
            (
                "[[1, 0], [1.0, 1]]",
                "[[[1, 0], [9, 0]]]",
                "expected a vertex as [position, level], got [1.0, 1]",
            ),
            (VS, "[[[1, 0], [9, 0]], [[1, 0]]]", "expected an arc as [tail, head], got [[1, 0]]"),
            (
                VS,
                "[[[1, 0], [1, 1]], [[1, 0], [1, 0]], [[2, 0], true]]",
                "expected a vertex as [position, level], got True",
            ),
            ("[[1, 0], [2, 0], [1, 0]]", "[[[1, 0], [9, 0]]]", "duplicate vertex 1,0"),
            (
                VS,
                "[[[1, 0], [1, 1]], [[9, 0], [1, 1]], [[2, 0], [2, 0]]]",
                "arc endpoint 9,0 is not a vertex",
            ),
            (VS, "[[[1, 0], [1, 1]], [[2, 0], [2, 0]], [[9, 0], [1, 1]]]", "loop at 2,0"),
        ],
    )
    def test_faults_keep_their_messages(self, form, vs, arcs, message):
        text = decoded_doc(form, vs, arcs)
        with pytest.raises(FormatError) as err:
            graph_from_json(text)
        assert str(err.value) == message
        assert json_read(text) == json_read(text, plain=False) == message


def shuffled_edgelist(g, seed):
    """g read back from its edge list with the lines shuffled: a tails array, not canonical."""
    lines = graph_to_edgelist(g).splitlines()
    random.Random(seed).shuffle(lines)
    return graph_from_edgelist("\n".join(lines))


SHARED = [2, 3]  # one successor list for two tails
STREAMED = {
    "built": lambda: fib_cobweb(6).hasse,
    "built path": lambda: build_cobweb(ConstantSequence(1), 9).hasse,
    "parsed json": lambda: graph_from_json(graph_to_json(fib_cobweb(6).hasse)),
    "parsed edgelist": lambda: graph_from_edgelist(graph_to_edgelist(fib_cobweb(6).hasse)),
    "shuffled": lambda: shuffled_edgelist(fib_cobweb(6).hasse, 3),
    "reduced": lambda: transitive_reduction(shuffled_edgelist(fib_cobweb(5).hasse, 4)),
    "empty": lambda: Digraph([]),
    "isolated": lambda: Digraph(
        [v(2, 1), v(1, 0), v(5, 3), v(1, 1), v(3, 0)], [(v(1, 0), v(2, 1)), (v(1, 1), v(2, 1))]
    ),
    "only isolated": lambda: Digraph([v(2, 1), v(1, 0)]),
    "shared lists": lambda: Digraph._from_succ(row(4), [SHARED, SHARED, [], []], None),
    "shared lists with tails": lambda: Digraph._from_succ(
        row(4), [SHARED, SHARED, [], []], array("I", [1, 0, 0, 1])
    ),
    "repeats dropped": lambda: graph_on(4, [(0, 2), (1, 3), (0, 2), (3, 0), (1, 3)]),
}


class TestStreamedWriters:
    """Each writer's blocks, joined, are its text, and the text is the old writer's."""

    @pytest.mark.parametrize("fmt", GRAPH_FORMATS)
    @pytest.mark.parametrize("name", STREAMED)
    def test_joined_blocks_are_the_text(self, name, fmt):
        g = STREAMED[name]()
        text = REFERENCE_WRITERS[fmt](g)
        writer = {"json": graph_to_json, "edgelist": graph_to_edgelist, "dot": graph_to_dot}
        assert "".join(serialization._BLOCKS[fmt](g)) == text
        assert writer[fmt](g) == render_graph(g, fmt) == text
        for arcs in (1, 2, 5):
            with mock.patch.object(serialization, "_ARCS_PER_BLOCK", arcs):
                assert "".join(serialization._BLOCKS[fmt](g)) == text

    @pytest.mark.parametrize("fmt, other", [("json", 2), ("edgelist", 0), ("dot", 2)])
    def test_one_block_per_tail(self, fmt, other):
        # besides a header and an end, a built cobweb's text holds one tail per block
        g = fib_cobweb(7).hasse
        assert g._tails is None
        blocks = list(serialization._BLOCKS[fmt](g))
        assert len(blocks) == sum(1 for heads in g._succ if heads) + other

    def test_arcs_in_another_order_come_in_blocks(self):
        g = shuffled_edgelist(fib_cobweb(6).hasse, 5)
        assert g._tails is not None
        with mock.patch.object(serialization, "_ARCS_PER_BLOCK", 7):
            blocks = list(serialization._BLOCKS["json"](g))
        assert len(blocks) == 2 + -(-len(g._tails) // 7)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_graphs(self, data):
        n = data.draw(st.integers(0, 6))
        vs = data.draw(st.permutations([v(p, l) for p in (1, 2) for l in (0, 1, 2)]))[:n]
        ends = st.integers(0, max(n - 1, 0))
        drawn = data.draw(st.lists(st.tuples(ends, ends), max_size=12 if n else 0))
        arcs = [(vs[t], vs[h]) for t, h in drawn if t != h]
        g = Digraph(vs, arcs)
        canonical = Digraph._from_succ(vs, [list(heads) for heads in g._succ], None)
        for fmt in GRAPH_FORMATS:
            assert render_graph(g, fmt) == REFERENCE_WRITERS[fmt](g)
            assert render_graph(canonical, fmt) == REFERENCE_WRITERS[fmt](canonical)
