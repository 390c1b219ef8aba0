"""The index/bitmask core against the pair-set definitions it replaces.

verify_realizer, conjugate_chain and the parsers work on vertex indices
and bitmasks.  Each is checked here against a reference written the
slow way: realizers against the intersection of the two chains versus
the reflexive reachability pairs, conjugates against a greedy peel of
unbeaten vertices, the cycle search against the original stack-based
search, parsers against Vertex-per-endpoint parsing into the
public Digraph constructor.  Deep inputs check that nothing recurses
once per vertex.
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
    Orderable,
    Realizer,
    Vertex,
    VertexSetMismatchError,
    build_cobweb,
    conjugate_chain,
    decide_orderable,
    intersect_chains,
    is_linear_extension,
    iter_topological_orders,
    reachability,
    verify_realizer,
)
from cobwebs.realizers import _tournament_cycle
from cobwebs.serialization import (
    FormatError,
    graph_from_edgelist,
    graph_from_json,
    graph_to_json,
    parse_vertex,
)

from helpers import fib_cobweb, reference_tournament_cycle, row, v


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


def reference_conjugate(x: Chain, g: Digraph) -> Chain:
    """Greedy peel: repeatedly take the position that beats all the rest."""
    if not is_linear_extension(x, g):
        raise NotLinearExtensionError("chain is not a linear extension")
    n = len(x)
    pairs = reachability(g).pairs
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
            raise ConjugateCycleError(reference_tournament_cycle(beats, remaining, x))
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
        or not all(isinstance(x, int) for x in item)
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


def random_tournament(rng: random.Random, n: int) -> list[int]:
    """Beats masks of a random tournament on n vertices."""
    beats = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            beats[i] |= 1 << j
        else:
            beats[j] |= 1 << i
    return beats


def a_triangle(beats: list[int]) -> int | None:
    """The mask of some directed triangle, or None if the tournament is acyclic."""
    n = len(beats)
    for a, b, c in itertools.permutations(range(n), 3):
        if beats[a] >> b & 1 and beats[b] >> c & 1 and beats[c] >> a & 1:
            return 1 << a | 1 << b | 1 << c
    return None


class TestTournamentCycleMatchesReference:
    @pytest.mark.parametrize("superset", [False, True], ids=["full", "superset"])
    def test_same_cycle(self, superset):
        rng = random.Random(20260)
        checked = 0
        while checked < 400:
            n = rng.randint(3, 10)
            beats = random_tournament(rng, n)
            triangle = a_triangle(beats)
            if triangle is None:
                continue
            remaining = (1 << n) - 1
            if superset:
                remaining = triangle | rng.getrandbits(n)
            x = Chain(row(n))
            assert _tournament_cycle(beats, remaining, x) == (
                reference_tournament_cycle(beats, remaining, x)
            ), (beats, remaining)
            checked += 1


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
        ],
    )
    def test_edgelist_error_messages(self, text):
        got = outcome(graph_from_edgelist, text)
        assert got == outcome(reference_from_edgelist, text)
        assert got[0] is FormatError

    @pytest.mark.parametrize("bad", ["2", "2,3,4", "a,1", "0,1", "1,-1", ""])
    def test_parse_vertex_messages(self, bad):
        assert outcome(parse_vertex, bad) == outcome(reference_vertex, bad)

    @settings(max_examples=60, deadline=None)
    @given(shuffled_dags())
    def test_json_emitter_is_byte_equal(self, case):
        g, _ = case
        assert graph_to_json(g) == reference_to_json(g)

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
