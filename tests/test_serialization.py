"""Text format round-trips and golden outputs."""

import json

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
from cobwebs.serialization import (
    FormatError,
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

from helpers import MALFORMED_JSON, fib_cobweb, graph_on, row, v


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
