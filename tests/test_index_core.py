"""The index/bitmask core against the pair-set definitions it replaces.

verify_realizer, conjugate_chain and the parsers work on vertex indices
and bitmasks.  Each is checked here against a reference written the
slow way: realizers against the intersection of the two chains versus
the reflexive reachability pairs, conjugates against a greedy peel of
unbeaten vertices and their cycles against a brute-force search for the
first forbidden triple, redundant arcs against BFS reachability, the
check and dim views against the decider, parsers against
Vertex-per-endpoint parsing into the public Digraph constructor.  Deep
inputs check that nothing recurses once per vertex.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobwebs import (
    Chain,
    CheckResult,
    ConjugateCycleError,
    ConstantSequence,
    Digraph,
    NotLinearExtensionError,
    NotRegular,
    Orderable,
    Realizer,
    Vertex,
    VertexSetMismatchError,
    build_cobweb,
    conjugate_chain,
    decide_orderable,
    intersect_chains,
    is_admissible,
    is_linear_extension,
    is_regular,
    iter_topological_orders,
    reachability,
    transitive_reduction,
    verify_realizer,
)
from cobwebs import realizers
from cobwebs.realizers import _check_graph, _dimension_up_to_2
from cobwebs.serialization import (
    FormatError,
    graph_from_edgelist,
    graph_from_json,
    graph_to_dot,
    graph_to_edgelist,
    graph_to_json,
    parse_vertex,
)

from helpers import bfs_pairs, fib_cobweb, row, v


# ------------------------------------------------------------ references


def reference_verify(r: Realizer) -> CheckResult:
    """The realizer equation on explicit pair sets."""
    if r.first.vertex_set != frozenset(r.target.vertices):
        raise VertexSetMismatchError(
            "realizer chains do not cover the target's vertex set"
        )
    got = intersect_chains(r.first, r.second)
    expected = set(reachability(r.target).pairs)
    expected.update((u, u) for u in r.target.vertices)
    diff = got.symmetric_difference(expected)
    if not diff:
        return CheckResult(True)
    idx = r.target.index
    return CheckResult(False, min(diff, key=lambda p: (idx(p[0]), idx(p[1]))))


def conjugate_precedes(pairs, x: Chain, u: Vertex, w: Vertex) -> bool:
    """Whether u precedes w in the conjugate of x: comparable pairs keep x's order."""
    if (u, w) in pairs or (w, u) in pairs:
        return (u, w) in pairs
    return x.rank(w) < x.rank(u)


def reference_cycle(x: Chain, pairs) -> tuple:
    """The first forbidden triple (x1, x2, x3) along x, by brute force, as (x1, x3, x2)."""
    for a, b, c in itertools.combinations(x.order, 3):
        if (a, c) in pairs and not {(a, b), (b, a), (b, c), (c, b)} & pairs:
            return (a, c, b)
    raise AssertionError("no forbidden triple")


def reference_conjugate(x: Chain, g: Digraph) -> Chain:
    """Greedy peel: repeatedly take the position that beats all the rest.

    When no position does, the conjugate has a cycle: reference_cycle.
    """
    if not is_linear_extension(x, g):
        raise NotLinearExtensionError("chain is not a linear extension")
    n = len(x)
    pairs = bfs_pairs(g)
    reach = [
        sum(1 << q for q in range(n) if (x[p], x[q]) in pairs) for p in range(n)
    ]
    pred = [
        sum(1 << p for p in range(n) if (x[p], x[q]) in pairs) for q in range(n)
    ]
    beats = [reach[p] | (((1 << p) - 1) & ~pred[p]) for p in range(n)]
    remaining = (1 << n) - 1
    out = []
    while remaining:
        pick = next(
            (
                p
                for p in range(n)
                if remaining >> p & 1
                and beats[p] & remaining == remaining & ~(1 << p)
            ),
            None,
        )
        if pick is None:
            raise ConjugateCycleError(reference_cycle(x, pairs))
        out.append(x[pick])
        remaining &= ~(1 << pick)
    return Chain(out)


def reference_vertex(text: str) -> Vertex:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected a vertex as 'position,level', got {text!r}")
    try:
        return Vertex(int(parts[0]), int(parts[1]))
    except ValueError as err:
        raise FormatError(f"invalid vertex {text!r}: {err}") from None


def reference_json_vertex(item) -> Vertex:
    if (
        not isinstance(item, list)
        or len(item) != 2
        or not all(type(x) is int for x in item)
    ):
        raise FormatError(f"expected a vertex as [position, level], got {item!r}")
    try:
        return Vertex(item[0], item[1])
    except ValueError as err:
        raise FormatError(str(err)) from None


def reference_from_json(text: str) -> Digraph:
    payload = json.loads(text)
    vertices = [reference_json_vertex(item) for item in payload["vertices"]]
    arcs = []
    for item in payload["arcs"]:
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError(f"expected an arc as [tail, head], got {item!r}")
        arcs.append((reference_json_vertex(item[0]), reference_json_vertex(item[1])))
    try:
        return Digraph(vertices, arcs)
    except ValueError as err:
        raise FormatError(str(err)) from None


def reference_from_edgelist(text: str) -> Digraph:
    vertices: dict[Vertex, None] = {}
    arcs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "->" in line:
                lhs, _, rhs = line.partition("->")
                tail = reference_vertex(lhs.strip())
                vertices.setdefault(tail, None)
                head = reference_vertex(rhs.strip())
                vertices.setdefault(head, None)
                arcs.append((tail, head))
            else:
                vertices.setdefault(reference_vertex(line), None)
        except FormatError as err:
            raise FormatError(f"line {lineno}: {err}") from None
    try:
        return Digraph(vertices, arcs)
    except ValueError as err:
        raise FormatError(str(err)) from None


def reference_to_json(g: Digraph) -> str:
    def inline(item):
        return json.dumps(item, separators=(", ", ": "))

    def block(name, items):
        if not items:
            return f'"{name}": []'
        return f'"{name}": [\n    ' + ",\n    ".join(items) + "\n  ]"

    vertices = block("vertices", [inline([u.position, u.level]) for u in g.vertices])
    arcs = block(
        "arcs",
        [inline([[t.position, t.level], [h.position, h.level]]) for t, h in g.arcs],
    )
    return "{\n  " + vertices + ",\n  " + arcs + "\n}\n"


def reference_sorted_arcs(g: Digraph) -> tuple[list[int], list[tuple[int, int]]]:
    """Vertex indices by level then position, and the index arcs sorted by them."""
    vs = g.vertices
    order = sorted(range(len(vs)), key=lambda i: (vs[i].level, vs[i].position))
    rank = {i: k for k, i in enumerate(order)}
    n = len(order)
    arcs = [(g.index(t), g.index(h)) for t, h in g.arcs]
    return order, sorted(arcs, key=lambda a: rank[a[0]] * n + rank[a[1]])


def reference_to_edgelist(g: Digraph) -> str:
    texts = [str(u) for u in g.vertices]
    order, arcs = reference_sorted_arcs(g)
    touched = {i for arc in arcs for i in arc}
    lines = [f"{texts[t]} -> {texts[h]}" for t, h in arcs]
    lines.extend(texts[i] for i in order if i not in touched)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def reference_to_dot(g: Digraph) -> str:
    texts = [f'"{u}"' for u in g.vertices]
    order, arcs = reference_sorted_arcs(g)
    by_level: dict[int, list[str]] = {}
    for i in order:
        by_level.setdefault(g.vertices[i].level, []).append(texts[i])
    lines = ["digraph {", "  rankdir=BT;"]
    for row_texts in by_level.values():
        lines.append(f"  {{ rank=same; {'; '.join(row_texts)}; }}")
    for t, h in arcs:
        lines.append(f"  {texts[t]} -> {texts[h]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_redundant_arcs(g: Digraph) -> list[tuple[Vertex, Vertex]]:
    """Arcs (u, w), in insertion order, such that another head of u reaches w."""
    pairs = bfs_pairs(g)
    return [
        (u, w)
        for u, w in g.arcs
        if any(x != w and (x, w) in pairs for x in g.successors(u))
    ]


def outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except (ValueError, KeyError) as err:
        return (type(err), str(err))


# ------------------------------------------------------------ strategies


@st.composite
def shuffled_dags(draw, max_vertices=7):
    """A random DAG whose construction order is not a topological order."""
    n = draw(st.integers(0, max_vertices))
    rng = draw(st.randoms(use_true_random=False))
    vs = row(n)
    arcs = [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    order = vs[:]
    rng.shuffle(order)
    rng.shuffle(arcs)
    return Digraph(order, arcs), rng


def random_extension(g: Digraph, rng: random.Random) -> Chain:
    """A random linear extension: repeatedly take any source."""
    indeg = {u: 0 for u in g.vertices}
    for _, h in g.arcs:
        indeg[h] += 1
    avail = [u for u in g.vertices if indeg[u] == 0]
    out = []
    while avail:
        u = avail.pop(rng.randrange(len(avail)))
        out.append(u)
        for w in g.successors(u):
            indeg[w] -= 1
            if indeg[w] == 0:
                avail.append(w)
    return Chain(out)


# --------------------------------------------------------- verify_realizer


class TestVerifyMatchesPairSets:
    @settings(max_examples=150, deadline=None)
    @given(shuffled_dags())
    def test_extension_pairs(self, case):
        # two random linear extensions: sometimes a realizer, mostly not
        g, rng = case
        r = Realizer(random_extension(g, rng), random_extension(g, rng), g)
        assert verify_realizer(r) == reference_verify(r)

    @settings(max_examples=150, deadline=None)
    @given(shuffled_dags())
    def test_decided_and_corrupted_realizers(self, case):
        g, rng = case
        verdict = decide_orderable(g)
        if not isinstance(verdict, Orderable):
            return
        r = verdict.realizer
        assert verify_realizer(r) == reference_verify(r) == CheckResult(True)
        if len(g) < 2:
            return
        second = list(r.second)
        i = rng.randrange(len(second) - 1)
        second[i], second[i + 1] = second[i + 1], second[i]
        bad = Realizer(r.first, Chain(second), g)
        assert verify_realizer(bad) == reference_verify(bad)

    @settings(max_examples=150, deadline=None)
    @given(shuffled_dags())
    def test_chains_that_are_not_extensions(self, case):
        g, rng = case
        a, b = list(g.vertices), list(g.vertices)
        rng.shuffle(a)
        rng.shuffle(b)
        r = Realizer(Chain(a), Chain(b), g)
        assert verify_realizer(r) == reference_verify(r)

    @settings(max_examples=60, deadline=None)
    @given(shuffled_dags(), st.sampled_from(["first", "second", "both"]))
    def test_mismatched_vertex_sets(self, case, which):
        g, _ = case
        other = list(g.vertices) + [Vertex(99, 9)]
        first = Chain(other) if which in ("first", "both") else Chain(g.vertices)
        second = Chain(other) if which in ("second", "both") else Chain(g.vertices)
        r = Realizer(first, second, g)
        got, expected = outcome(verify_realizer, r), outcome(reference_verify, r)
        assert got == expected
        assert got[0] is VertexSetMismatchError

    def test_witness_is_the_smallest_pair_by_target_index(self):
        # a 3-element antichain realized by one chain twice: every pair
        # is a spurious comparison and the first by target index wins
        g = Digraph([v(3), v(1), v(2)])
        c = Chain(row(3))
        result = verify_realizer(Realizer(c, c, g))
        assert result == reference_verify(Realizer(c, c, g))
        # target indices: 3 -> 0, 1 -> 1, 2 -> 2; (1, 3) is (1, 0)
        assert result.witness == (v(1), v(3))


# --------------------------------------------------------- conjugate_chain


class TestConjugateMatchesGreedy:
    @settings(max_examples=200, deadline=None)
    @given(shuffled_dags())
    def test_same_chain_or_same_cycle(self, case):
        g, rng = case
        x = random_extension(g, rng)
        try:
            expected = reference_conjugate(x, g)
        except ConjugateCycleError as err:
            with pytest.raises(ConjugateCycleError) as got:
                conjugate_chain(x, g)
            assert got.value.cycle == err.cycle
        else:
            assert conjugate_chain(x, g) == expected

    def test_cycle_after_a_peeled_prefix(self):
        # 0 -> 1 -> everything else, then the forbidden triple 2 -> 4
        # with 3 parallel to both: the greedy peel takes positions 0 and
        # 1 before it meets the cycle
        vs = row(5)
        g = Digraph(vs, [(vs[0], vs[1]), (vs[1], vs[2]), (vs[1], vs[3]), (vs[2], vs[4])])
        x = Chain(vs)
        with pytest.raises(ConjugateCycleError) as got:
            conjugate_chain(x, g)
        with pytest.raises(ConjugateCycleError) as expected:
            reference_conjugate(x, g)
        assert got.value.cycle == expected.value.cycle == (v(3), v(5), v(4))


class TestOneWitness:
    """conjugate_chain fails exactly on the chains is_admissible rejects."""

    @settings(max_examples=300, deadline=None)
    @given(shuffled_dags())
    def test_cycle_is_the_rotated_forbidden_triple(self, case):
        g, rng = case
        x = random_extension(g, rng)
        admissible = is_admissible(x, g)
        if admissible:
            conjugate_chain(x, g)
            return
        with pytest.raises(ConjugateCycleError) as got:
            conjugate_chain(x, g)
        w = admissible.witness
        cycle = got.value.cycle
        assert cycle == (w[0], w[2], w[1])
        pairs = bfs_pairs(g)
        for u, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            assert conjugate_precedes(pairs, x, u, nxt)


class TestRedundantArcsMatchBfs:
    @settings(max_examples=200, deadline=None)
    @given(shuffled_dags())
    def test_reduction_and_regularity_witness(self, case):
        g, _ = case
        redundant = reference_redundant_arcs(g)
        kept = tuple(arc for arc in g.arcs if arc not in redundant)
        assert transitive_reduction(g).arcs == kept
        result = is_regular(g)
        if redundant:
            assert (result.ok, result.witness) == (False, redundant[0])
        else:
            assert (result.ok, result.witness) == (True, None)


class TestDeciderViews:
    """check and dim read the decider's analysis; regularity comes first."""

    @settings(max_examples=200, deadline=None)
    @given(shuffled_dags())
    def test_check_and_dim_agree_with_the_decider(self, case):
        g, _ = case
        regular, admissible = _check_graph(g)
        assert regular == is_regular(g)
        orderable = isinstance(decide_orderable(transitive_reduction(g)), Orderable)
        assert admissible.ok == orderable
        assert orderable == (_dimension_up_to_2(g) in (1, 2))

    def test_irregular_graph_skips_the_realizer_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("realizer step reached")

        monkeypatch.setattr(realizers, "_realizer_positions", refuse)
        vs = row(3)
        g = Digraph(vs, [(vs[0], vs[2]), (vs[0], vs[1]), (vs[1], vs[2])])
        assert decide_orderable(g) == NotRegular((vs[0], vs[2]))


# ----------------------------------------------------------------- parsers


def edgelist_text(g: Digraph, rng: random.Random) -> str:
    """g as an edge list in its own arc order, with one duplicated arc."""
    lines = [f"{t} -> {h}" for t, h in g.arcs]
    if lines:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    lines += [str(u) for u in g.vertices]
    return "\n".join(lines) + "\n"


def json_text(g: Digraph, rng: random.Random) -> str:
    arcs = [[[t.position, t.level], [h.position, h.level]] for t, h in g.arcs]
    if arcs:
        arcs.insert(rng.randrange(len(arcs) + 1), rng.choice(arcs))
    vertices = [[u.position, u.level] for u in g.vertices]
    return json.dumps({"vertices": vertices, "arcs": arcs})


BAD_ENDPOINTS = {
    "unknown": [99, 0],
    "zero": [0, 0],
    "bool": [True, 0],
    "float": [1.0, 0],
    "triple": [1, 0, 0],
    "text": "1,0",
}
JSON_FAULTS = [*BAD_ENDPOINTS, "loop", "short_arc", "bad_vertex", "duplicate_vertex"]


def plant(payload: dict, fault: str, rng: random.Random) -> None:
    """Insert one JSON_FAULTS fault at a random arc or vertex position."""
    vertices, arcs = payload["vertices"], payload["arcs"]
    known = rng.choice(vertices) if vertices else [1, 0]
    if fault == "duplicate_vertex":
        vertices.insert(rng.randrange(len(vertices) + 1), known)
    elif fault == "bad_vertex":
        bad = BAD_ENDPOINTS[rng.choice(["zero", "bool", "float", "triple", "text"])]
        vertices.insert(rng.randrange(len(vertices) + 1), bad)
    else:
        if fault == "loop":
            arc = [known, known]
        elif fault == "short_arc":
            arc = [known]
        else:  # one endpoint, tail or head, replaced
            arc = [known, rng.choice(vertices) if vertices else known]
            arc[rng.randrange(2)] = BAD_ENDPOINTS[fault]
        arcs.insert(rng.randrange(len(arcs) + 1), arc)


class TestParserParity:
    @settings(max_examples=100, deadline=None)
    @given(shuffled_dags())
    def test_same_vertex_and_arc_order(self, case):
        g, rng = case
        for text, parse, reference in (
            (json_text(g, rng), graph_from_json, reference_from_json),
            (edgelist_text(g, rng), graph_from_edgelist, reference_from_edgelist),
        ):
            got, expected = parse(text), reference(text)
            assert got.vertices == expected.vertices
            assert got.arcs == expected.arcs
            for u in got.vertices:
                assert got.successors(u) == expected.successors(u)

    @settings(max_examples=300, deadline=None)
    @given(
        shuffled_dags(),
        st.lists(st.sampled_from(JSON_FAULTS), min_size=1, max_size=2),
    )
    def test_json_fault_order(self, case, faults):
        # well-formed arcs take the reader's inline path, faulty ones
        # the checked path; the first fault by the old order still wins
        g, rng = case
        payload = json.loads(json_text(g, rng))
        for fault in faults:
            plant(payload, fault, rng)
        text = json.dumps(payload)
        assert outcome(graph_from_json, text) == outcome(reference_from_json, text)

    def test_duplicate_arcs_are_dropped(self):
        text = "1,0 -> 2,0\n1,0 -> 2,0\n2,0 -> 3,0\n"
        g = graph_from_edgelist(text)
        assert g.arcs == ((v(1), v(2)), (v(2), v(3)))
        assert g.arcs == reference_from_edgelist(text).arcs

    def test_tokens_naming_one_vertex(self):
        text = "1,2 -> 2,3\n1, 2 -> 3,3\n01,2 -> 4,3\n"
        g = graph_from_edgelist(text)
        assert g.vertices == (v(1, 2), v(2, 3), v(3, 3), v(4, 3))
        assert g.successors(v(1, 2)) == (v(2, 3), v(3, 3), v(4, 3))
        assert g.vertices == reference_from_edgelist(text).vertices

    @pytest.mark.parametrize(
        "payload",
        [
            {"vertices": [[1, 0], [1, 0]], "arcs": []},
            {"vertices": [[1, 0]], "arcs": [[[1, 0], [2, 0]]]},
            {"vertices": [[1, 0]], "arcs": [[[2, 0], [1, 0]]]},
            {"vertices": [[1, 0]], "arcs": [[[1, 0], [1, 0]]]},
            {"vertices": [[0, 0]], "arcs": []},
            {"vertices": [[1, -1]], "arcs": []},
            {"vertices": [[1.0, 0]], "arcs": []},
            {"vertices": [[1, 0, 2]], "arcs": []},
            {"vertices": ["1,0"], "arcs": []},
            {"vertices": [[1, 0], [2, 0]], "arcs": [[[1.0, 0], [2, 0]]]},
            {"vertices": [[1, 0]], "arcs": [[[1, 0]]]},
            {"vertices": [[1, 0]], "arcs": ["ab"]},
            {"vertices": [[1, 0]], "arcs": [[[1, 0], [0, 0]]]},
            # two faults: the first one met by the old order of checks wins
            {"vertices": [[1, 0], [1, 0]], "arcs": [[[1, 0]]]},
            {"vertices": [[1, 0], [1, 0]], "arcs": [[[1, 0], [5, 0]]]},
            {"vertices": [[1, 0]], "arcs": [[[1, 0], [1, 0]], [[1, 0], [5, 0]]]},
            {"vertices": [[1, 0]], "arcs": [[[1, 0], [5, 0]], [[1, 0], [1, 0]]]},
            {"vertices": [[1, 0]], "arcs": [[[1, 0], [5, 0]], [[1, 0], [0, 0]]]},
            {
                "vertices": [[1, 0], [2, 0]],
                "arcs": [[[2, 0], [2, 0]], [[1, 0], [True, 0]]],
            },
            {"vertices": [[1, 0], [2, 0], [1, 0]], "arcs": [[[2, 0], [2, 0]]]},
        ],
    )
    def test_json_error_messages(self, payload):
        text = json.dumps(payload)
        got = outcome(graph_from_json, text)
        assert got == outcome(reference_from_json, text)
        assert got[0] is FormatError

    @pytest.mark.parametrize(
        "payload",
        [
            {"vertices": [[True, 0]], "arcs": []},
            {"vertices": [[1, 0], [2, 0]], "arcs": [[[True, 0], [2, 0]]]},
        ],
    )
    def test_json_booleans_are_not_coordinates(self, payload):
        # bool is an int in Python; before, [true, 0] was read as the
        # vertex 1,0 and then written back as "True,0"
        with pytest.raises(FormatError, match="expected a vertex"):
            graph_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "text",
        [
            "1,0 -> 1,0\n",
            "1,0 -> 2,0\n2,0 -> 2,0\n",
            "1,0 -> 2,0\nx,1 -> 1,1\n",
            "1,0 -> 0,1\n",
            "1,0 -> 2,0,3\n",
            "1,0 -> 2,0\n1,-1\n",
            "3\n",
            "1,0 -> 2,0 -> 3,0\n",
            " -> 1,0\n",
            "1,0 ->\n",
            "1,0 -> 2,0\r\n2,0 -> x\r\n",
            "1,0 # -> 2,0\n2,0 # -> 3,0\n2, 0 -> 2,0\n",
            "1, 0 -> 01,0\n",
        ],
    )
    def test_edgelist_error_messages(self, text):
        got = outcome(graph_from_edgelist, text)
        assert got == outcome(reference_from_edgelist, text)
        assert got[0] is FormatError

    @pytest.mark.parametrize(
        "text",
        ["1,0 # -> 2,0\n", "1,0 -> 2,0\r\n2,0 -> 3,1\r\n\r\n4,1\r\n"],
    )
    def test_edgelist_lines_as_the_reference(self, text):
        got, expected = graph_from_edgelist(text), reference_from_edgelist(text)
        assert (got.vertices, got.arcs) == (expected.vertices, expected.arcs)

    @pytest.mark.parametrize("bad", ["2", "2,3,4", "a,1", "0,1", "1,-1", ""])
    def test_parse_vertex_messages(self, bad):
        assert outcome(parse_vertex, bad) == outcome(reference_vertex, bad)

    @settings(max_examples=60, deadline=None)
    @given(shuffled_dags())
    def test_json_emitter_is_byte_equal(self, case):
        g, _ = case
        assert graph_to_json(g) == reference_to_json(g)

    @settings(max_examples=100, deadline=None)
    @given(shuffled_dags(), st.integers(0, 3))
    def test_edgelist_and_dot_emitters_are_byte_equal(self, case, isolated):
        # vertices spread over three levels, isolated ones added and
        # duplicate arcs given, in a shuffled vertex order
        g, rng = case
        level = {u: Vertex(u.position, rng.randrange(3)) for u in g.vertices}
        n = len(g)
        vertices = list(level.values())
        vertices += [Vertex(n + 1 + k, rng.randrange(3)) for k in range(isolated)]
        rng.shuffle(vertices)
        arcs = [(level[t], level[h]) for t, h in g.arcs]
        arcs += rng.sample(arcs, min(len(arcs), 2))
        h = Digraph(vertices, arcs)
        assert graph_to_edgelist(h) == reference_to_edgelist(h)
        assert graph_to_dot(h) == reference_to_dot(h)

    def test_json_emitter_on_a_cobweb(self):
        g = fib_cobweb(7).hasse
        assert graph_to_json(g) == reference_to_json(g)


# ------------------------------------------------------------------- depth


def called_deeper(depth: int, fn, *args):
    """fn(*args) called from ``depth`` extra stack frames."""
    if depth == 0:
        return fn(*args)
    return called_deeper(depth - 1, fn, *args)


class TestNoRecursionPerVertex:
    def test_decide_on_a_1201_vertex_path(self):
        p = build_cobweb(ConstantSequence(1), 1200)
        verdict = decide_orderable(p.hasse)
        assert isinstance(verdict, Orderable)
        assert verdict.realizer.first.order == p.hasse.vertices
        assert verify_realizer(verdict.realizer)

    def test_fib_14_decided_50_frames_deep(self):
        p = fib_cobweb(14)
        assert len(p) == 987
        verdict = called_deeper(50, decide_orderable, p.hasse)
        assert isinstance(verdict, Orderable)

    @settings(max_examples=80, deadline=None)
    @given(shuffled_dags(max_vertices=6))
    def test_enumeration_is_the_lexicographic_permutation_filter(self, case):
        g, _ = case
        rank = {u: i for i, u in enumerate(g.vertices)}
        expected = sorted(
            (
                perm
                for perm in itertools.permutations(g.vertices)
                if all(perm.index(t) < perm.index(h) for t, h in g.arcs)
            ),
            key=lambda perm: [rank[u] for u in perm],
        )
        assert [c.order for c in iter_topological_orders(g)] == expected
