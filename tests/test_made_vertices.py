"""Vertices made in bulk by the readers and the builder, and the index on demand.

The readers and the cobweb builder make their vertices without calling
``Vertex``, and every digraph, the public constructor's included, builds
the vertex index on first lookup.  Both must be invisible: each vertex
behaves exactly like ``Vertex(p, l)``, and each digraph answers lookups
like the one the public constructor builds from the same vertices and
arcs.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import weakref
from itertools import chain
from operator import is_

import pytest

from cobwebs import (
    Chain,
    Digraph,
    FinitePoset,
    Orderable,
    Realizer,
    Vertex,
    VertexSetMismatchError,
    decide_orderable,
    reachability,
    transitive_reduction,
    verify_realizer,
)
from cobwebs.serialization import (
    _plain_json_graph,
    graph_from_edgelist,
    graph_from_json,
    graph_to_edgelist,
    graph_to_json,
)

from helpers import fib_cobweb, graph_on, standard_example, v


def plain_json(g):
    text = graph_to_json(g)
    assert _plain_json_graph(text) is not None
    return graph_from_json(text)


def decoded_json(g):
    text = graph_to_json(g)[:-2] + ',\n  "name": "extra key"\n}\n'
    assert _plain_json_graph(text) is None
    return graph_from_json(text)


def edgelist(g):
    return graph_from_edgelist(graph_to_edgelist(g))


# a DAG with a transitive arc and an isolated vertex, as the constructor builds it
SOURCE = Digraph(
    [v(3, 1), v(1, 0), v(2, 2), v(12, 0), v(1, 1)],
    [(v(1, 0), v(3, 1)), (v(3, 1), v(2, 2)), (v(1, 0), v(2, 2)), (v(1, 1), v(2, 2))],
)

MAKERS = {
    "plain json": lambda: plain_json(SOURCE),
    "decoded json": lambda: decoded_json(SOURCE),
    "edgelist": lambda: edgelist(SOURCE),
    "builder": lambda: fib_cobweb(5).hasse,
    "transitive_reduction": lambda: transitive_reduction(SOURCE),
    "strict_digraph": lambda: FinitePoset.from_digraph(SOURCE).strict_digraph(),
    "standard example": lambda: standard_example(3).strict_digraph(),
}
# the makers and the public constructor, which builds no index either
BUILT = {**MAKERS, "constructor": lambda: Digraph(SOURCE.vertices, SOURCE.arcs)}


def holds_index(g: Digraph) -> bool:
    """Whether g's ``_index`` slot is set, read without building it."""
    try:
        Digraph._index.__get__(g)
    except AttributeError:
        return False
    return True


def copies(g):
    """g copied shallow and deep, and through pickle at every protocol."""
    pickled = [pickle.loads(pickle.dumps(g, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [copy.copy(g), copy.deepcopy(g), *pickled]


class TestMadeVertices:
    @pytest.mark.parametrize("maker", MAKERS)
    def test_like_the_constructor(self, maker):
        made = list(MAKERS[maker]().vertices)
        fresh = [Vertex(u.position, u.level) for u in made]
        assert made == fresh
        assert [type(u) for u in made] == [Vertex] * len(made)
        assert list(map(hash, made)) == list(map(hash, fresh))
        assert list(map(repr, made)) == list(map(repr, fresh))
        assert list(map(str, made)) == list(map(str, fresh))
        assert list(map(dataclasses.asdict, made)) == list(map(dataclasses.asdict, fresh))
        assert [list(dataclasses.asdict(u)) for u in made] == [["position", "level"]] * len(
            made
        )
        for a, b in zip(made, fresh):
            assert [a < c for c in fresh] == [b < c for c in fresh]
            assert [c < a for c in made] == [c < b for c in made]
            assert sorted(made, key=lambda c: (c < a, a < c)) == sorted(
                fresh, key=lambda c: (c < b, b < c)
            )

    @pytest.mark.parametrize("maker", MAKERS)
    def test_copy_replace_pickle_and_frozen(self, maker):
        for u in MAKERS[maker]().vertices:
            fresh = Vertex(u.position, u.level)
            assert dataclasses.replace(u) == fresh
            assert dataclasses.replace(u, level=u.level + 1) == Vertex(u.position, u.level + 1)
            with pytest.raises(ValueError, match="position must be >= 1"):
                dataclasses.replace(u, position=0)
            assert copy.copy(u) == fresh
            assert dataclasses.asdict(copy.copy(u)) == dataclasses.asdict(fresh)
            assert copy.deepcopy(u) == fresh
            assert pickle.dumps(u) == pickle.dumps(fresh)
            assert pickle.loads(pickle.dumps(u)) == fresh
            with pytest.raises(dataclasses.FrozenInstanceError):
                u.position = 2
            with pytest.raises(dataclasses.FrozenInstanceError):
                del u.level

    def test_no_instance_dict(self):
        made = [u for maker in MAKERS.values() for u in maker().vertices]
        for u in [*made, Vertex(3, 1)]:
            assert not hasattr(u, "__dict__")
            with pytest.raises(TypeError):
                vars(u)
            with pytest.raises(TypeError):
                weakref.ref(u)
        assert sys.getsizeof(Vertex(3, 1)) < 64

    # Vertex(12, 3) pickled where each vertex held an instance dict
    @pytest.mark.parametrize(
        "data",
        [
            b"ccopy_reg\n_reconstructor\np0\n(ccobwebs.graphs\nVertex\np1\nc__builtin__"
            b"\nobject\np2\nNtp3\nRp4\n(dp5\nVposition\np6\nI12\nsVlevel\np7\nI3\nsb.",
            b"\x80\x05\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\x0ecobwebs.graphs\x94"
            b"\x8c\x06Vertex\x94\x93\x94)\x81\x94}\x94(\x8c\x08position\x94K\x0c"
            b"\x8c\x05level\x94K\x03ub.",
        ],
        ids=["protocol 0", "highest protocol"],
    )
    def test_loads_a_vertex_pickled_with_an_instance_dict(self, data):
        u = pickle.loads(data)
        assert type(u) is Vertex and u == Vertex(12, 3)
        assert dataclasses.asdict(u) == {"position": 12, "level": 3}
        assert hash(u) == hash(Vertex(12, 3)) and repr(u) == repr(Vertex(12, 3))
        # the state goes through __init__, which checks it
        with pytest.raises(ValueError, match="position must be >= 1"):
            pickle.loads(data.replace(b"I12\n", b"I0\n").replace(b"K\x0c", b"K\x00"))

    def test_builder_levels_are_the_digraph_vertices(self):
        p = fib_cobweb(7)
        assert [u for level in p.levels for u in level] == list(p.hasse.vertices)
        assert p.levels == tuple(
            tuple(Vertex(j, s) for j in range(1, len(level) + 1))
            for s, level in enumerate(p.levels)
        )
        assert all(map(is_, chain.from_iterable(p.levels), p.hasse.vertices))


class TestIndexOnDemand:
    def test_the_constructor_leaves_it_to_the_first_lookup(self):
        g = Digraph(SOURCE.vertices, SOURCE.arcs)
        assert not holds_index(g) and not holds_index(Digraph([]))
        assert SOURCE.vertices[2] in g
        assert holds_index(g) and g._index == dict(zip(g.vertices, range(len(g))))

    @pytest.mark.parametrize("maker", BUILT)
    def test_not_built_on_construction(self, maker):
        g = BUILT[maker]()
        assert not holds_index(g)
        g.index(g.vertices[0])
        assert holds_index(g)

    @pytest.mark.parametrize("maker", BUILT)
    def test_lookups_answer_like_the_constructor(self, maker):
        g = BUILT[maker]()
        expected = Digraph(g.vertices, g.arcs)
        outside = [v(99, 0), v(1, 99), (1, 0), "1,0"]
        assert [u in g for u in g.vertices + tuple(outside)] == [
            u in expected for u in expected.vertices + tuple(outside)
        ]
        assert list(map(g.index, g.vertices)) == list(range(len(g)))
        assert list(map(g.successors, g.vertices)) == list(
            map(expected.successors, expected.vertices)
        )
        for u in outside[:2]:
            for lookup in (g.index, g.successors):
                with pytest.raises(KeyError, match="is not a vertex of this digraph"):
                    lookup(u)
        assert g._index == expected._index

    @pytest.mark.parametrize("maker", MAKERS)
    def test_reachability_like_the_constructor(self, maker):
        g = MAKERS[maker]()
        expected = Digraph(g.vertices, g.arcs)
        assert reachability(g) == reachability(expected)
        assert set(reachability(g)) == set(reachability(expected))

    @pytest.mark.parametrize("maker", MAKERS)
    def test_verify_realizer_like_the_constructor(self, maker):
        g = MAKERS[maker]()
        expected = Digraph(g.vertices, g.arcs)
        verdict = decide_orderable(g)
        assert not holds_index(g)  # the decider looks nothing up
        chains = [(Chain(g.vertices), Chain(reversed(g.vertices)))]
        chains.append((Chain(sorted(g.vertices)), Chain(g.vertices)))
        if isinstance(verdict, Orderable):
            chains.append((verdict.realizer.first, verdict.realizer.second))
        for x, y in chains:
            assert verify_realizer(Realizer(x, y, g)) == verify_realizer(
                Realizer(x, y, expected)
            )
        short = Chain(g.vertices[1:])
        for target in (g, expected):
            with pytest.raises(VertexSetMismatchError):
                verify_realizer(Realizer(short, chains[0][1], target))

    def test_copies_and_pickles(self):
        for g in (plain_json(SOURCE), edgelist(SOURCE)):
            for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
                assert twin == g and twin._index == Digraph(g.vertices)._index

    @pytest.mark.parametrize("maker", MAKERS)
    def test_copies_hold_no_index(self, maker):
        g = MAKERS[maker]()
        for twin in copies(g):
            assert not holds_index(twin)
            assert twin == g and hash(twin) == hash(g)
            assert (twin.vertices, twin._succ, twin._m) == (g.vertices, g._succ, g._m)
            assert (twin._tails is None) == (g._tails is None)
            assert list(twin._pairs()) == list(g._pairs())
        assert not holds_index(g)

    def test_copies_of_a_constructor_digraph_keep_its_index(self):
        g = Digraph(SOURCE.vertices, SOURCE.arcs)
        g.index(g.vertices[0])
        for twin in copies(g):
            assert holds_index(twin) and twin._index == g._index
            assert twin == SOURCE and hash(twin) == hash(SOURCE)
            assert twin.arcs == SOURCE.arcs

    def test_other_attributes_still_raise(self):
        g = edgelist(graph_on(3, [(0, 1)]))
        with pytest.raises(AttributeError):
            g.missing
        assert not holds_index(g)


def set_slots(obj) -> dict:
    """The slots of obj that are set, with their values, read without building any."""
    out = {}
    for name in type(obj).__slots__:
        try:
            out[name] = getattr(type(obj), name).__get__(obj)
        except AttributeError:
            pass
    return out


def realizer_chain():
    chain = decide_orderable(fib_cobweb(5).hasse).realizer.first
    assert "_rank" not in set_slots(chain)
    return chain


SLOTTED = {
    "cobweb": lambda: fib_cobweb(5),
    "relation": lambda: reachability(SOURCE),
    "public chain": lambda: Chain(SOURCE.vertices),
    "realizer chain": realizer_chain,
}
# frozen dataclasses that hold the slotted types
HOLDERS = {
    "poset": lambda: FinitePoset.from_digraph(SOURCE),
    "verdict": lambda: decide_orderable(fib_cobweb(5).hasse),
}


class TestSlottedState:
    """Every public slotted type copies and pickles at every protocol, building nothing."""

    @pytest.mark.parametrize("maker", SLOTTED)
    def test_same_slots(self, maker):
        obj = SLOTTED[maker]()
        state = set_slots(obj)
        for twin in copies(obj):
            assert type(twin) is type(obj)
            assert set_slots(twin) == state
        assert set_slots(obj) == state  # the original built nothing either

    @pytest.mark.parametrize("maker", HOLDERS)
    def test_holders(self, maker):
        obj = HOLDERS[maker]()
        for twin in copies(obj):
            assert twin == obj and repr(twin) == repr(obj)

    def test_realizer_chains_build_no_rank(self):
        verdict = decide_orderable(fib_cobweb(5).hasse)
        for twin in copies(verdict):
            for chain in (twin.realizer.first, twin.realizer.second):
                assert "_rank" not in set_slots(chain)
            assert verify_realizer(twin.realizer)
        for chain in (verdict.realizer.first, verdict.realizer.second):
            assert "_rank" not in set_slots(chain)


def test_made_vertices_take_no_more_memory():
    # each way in a fresh interpreter, where no Vertex was made but at import
    code = """
import sys, tracemalloc
from cobwebs.graphs import Vertex, _vertices
keys = [(p, s) for s in range(8) for p in range(300, 500)]
tracemalloc.start()
made = _vertices(keys) if sys.argv[1] == "bulk" else [Vertex(p, s) for p, s in keys]
print(tracemalloc.get_traced_memory()[0])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    size = {}
    for way in ("bulk", "fresh"):
        run = [sys.executable, "-c", code, way]
        size[way] = int(subprocess.run(run, env=env, capture_output=True, check=True).stdout)
    assert size["bulk"] < 1.1 * size["fresh"]
