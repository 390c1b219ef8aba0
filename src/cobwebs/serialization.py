"""Text formats for digraphs, realizers and verdicts.

Three graph formats are supported: a line-oriented edge list, a JSON
object, and Graphviz DOT (write-only, with one rank per level).  All
emitters are byte-deterministic for a given input.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from itertools import chain, islice
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Iterator

from .graphs import Digraph, Vertex, _inverse, _vertices
from .realizers import (
    NoAdmissibleChain,
    NotRegular,
    Orderable,
    OrderabilityVerdict,
    Realizer,
)

__all__ = [
    "FormatError",
    "GRAPH_FORMATS",
    "format_vertex",
    "graph_from_edgelist",
    "graph_from_json",
    "graph_from_text",
    "graph_to_dot",
    "graph_to_edgelist",
    "graph_to_json",
    "parse_vertex",
    "realizer_to_json",
    "render_graph",
    "verdict_to_json",
]

class FormatError(ValueError):
    """Input text does not parse as the expected format."""


def format_vertex(v: Vertex) -> str:
    return str(v)


def _vertex_key(text: str) -> tuple[int, int]:
    """The (position, level) that 'position,level' names, not yet range-checked."""
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected a vertex as 'position,level', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as err:
        raise FormatError(f"invalid vertex {text!r}: {err}") from None


def _text_vertex(key: tuple[int, int], text: str) -> Vertex:
    try:
        return Vertex(*key)
    except ValueError as err:
        raise FormatError(f"invalid vertex {text!r}: {err}") from None


def parse_vertex(text: str) -> Vertex:
    return _text_vertex(_vertex_key(text), text)


def _vertex_json(v: Vertex) -> str:
    return f"[{v.position}, {v.level}]"


def _vertex_list(vs: Iterable[Vertex]) -> str:
    """A JSON list of vertices on one line."""
    return "[" + ", ".join(map(_vertex_json, vs)) + "]"


def _block(name: str, items: list[str]) -> str:
    if not items:
        return f'"{name}": []'
    body = ",\n    ".join(items)
    return f'"{name}": [\n    {body}\n  ]'


def _json_vertex_key(item: Any) -> tuple[int, int]:
    """The (position, level) of a JSON vertex ``[position, level]``.

    JSON true and false are not coordinates, although Python's bool is
    an int.
    """
    if isinstance(item, list) and len(item) == 2:
        position, level = item
        if type(position) is int and type(level) is int:
            if position >= 1 and level >= 0:
                return position, level
            try:
                Vertex(position, level)  # raises, wording the range error
            except ValueError as err:
                raise FormatError(str(err)) from None
    raise FormatError(f"expected a vertex as [position, level], got {item!r}")


def _json_blocks(g: Digraph) -> Iterator[str]:
    """graph_to_json's text in blocks: one per tail of a canonical arc order.

    An arc item is its tail's lead, which starts with the ``",\\n    "``
    before the item, and its head's closer, so a tail's block is one
    ``str.join`` of its heads' closers.  Arcs in another order come in
    blocks of ``_ARCS_PER_BLOCK``.
    """
    texts = [_vertex_json(v) for v in g.vertices]
    yield "{\n  " + _block("vertices", texts) + ",\n  "
    if not g._m:
        yield '"arcs": []\n}\n'
        return
    leads, closers = [f",\n    [{x}, " for x in texts], [x + "]" for x in texts]
    if g._tails is None:
        closer = closers.__getitem__
        pairs = zip(leads, g._succ)
        blocks = (lead + lead.join(map(closer, heads)) for lead, heads in pairs if heads)
    else:
        items = (leads[t] + closers[h] for t, h in g._pairs())
        blocks = iter(lambda: "".join(islice(items, _ARCS_PER_BLOCK)), "")  # until none is left
    yield '"arcs": [' + next(blocks)[1:]  # no comma before the first item
    yield from blocks
    yield "\n  ]\n}\n"


def graph_to_json(g: Digraph) -> str:
    return "".join(_json_blocks(g))


# each digit to b"0" and every other byte to b"x": a digit run starts at
# each b"x0", or at the first byte
_DIGIT_MARKS = bytes(48 if 48 <= b <= 57 else 120 for b in range(256))
# the arcs a writer formats at a time when their order is not canonical
_ARCS_PER_BLOCK = 1 << 14
# the bytes of arcs split at a time, so the endpoint texts of about 60,000
# arcs are held at once, not those of the whole document
_ARC_BLOCK = 1 << 20


def _json_regions(doc: bytes) -> tuple[slice, slice] | None:
    """The slices inside the 'vertices' and 'arcs' lists of a packed document."""
    if doc.startswith(b'{"vertices":['):
        cut = doc.find(b'],"arcs":[', 13, len(doc) - 2)
        vs, arcs = slice(13, cut), slice(cut + 10, len(doc) - 2)
    elif doc.startswith(b'{"arcs":['):
        cut = doc.find(b'],"vertices":[', 9, len(doc) - 2)
        arcs, vs = slice(9, cut), slice(cut + 14, len(doc) - 2)
    else:
        return None
    return (vs, arcs) if cut >= 0 and doc.endswith(b"]}") else None


def _plain_json_graph(text: str) -> Digraph | None:
    """The graph of a plain graph JSON document, read without decoding it whole.

    Plain means: without JSON's whitespace and the ASCII digits, the
    text is exactly ``{"vertices":[[,],...],"arcs":[[[,],[,]],...]}``,
    either key first, with both keys as written; there are as many
    digit runs as slots; the vertex list parses as JSON, so no slot is
    empty, no integer has a leading zero and every vertex text is
    canonical; each position is at least 1 and each vertex is listed
    once; each arc endpoint is the text of a vertex, so no arc slot is
    empty either; and no arc is a loop.  That is checked with C string
    operations, one ``json.loads`` of the vertex list, one Python step
    per ``_ARC_BLOCK`` bytes of arcs and one loop test per tail, and
    each endpoint is resolved by one dict lookup of its text.  Any other
    document gives None; ``graph_from_json`` decodes it and hands its
    lists back here, written compactly, so this is the one builder of a
    graph from JSON.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if b'"vertices"' not in raw or b'"arcs"' not in raw:
        return None  # whitespace inside a key vanishes from the packed text
    runs = raw.translate(_DIGIT_MARKS).count(b"x0") + raw[:1].isdigit()
    packed = raw.translate(None, b" \t\n\r")
    del raw
    skeleton = packed.translate(None, b"0123456789")
    regions = _json_regions(skeleton)
    if regions is None:
        return None
    vs_part, arcs_part = skeleton[regions[0]], skeleton[regions[1]]
    del skeleton
    n, m = (len(vs_part) + 1) // 4, (len(arcs_part) + 1) // 10
    if (
        vs_part != (b",[,]" * n)[1:]
        or arcs_part != (b",[[,],[,]]" * m)[1:]
        or runs != 2 * n + 4 * m  # an empty slot only with two runs merged
    ):
        return None
    del vs_part, arcs_part
    # a digit run outside the lists moves a region of the packed text
    regions = _json_regions(packed)
    if regions is None:
        return None
    vs_slice, arcs_slice = regions
    try:
        keys = json.loads(b"[" + packed[vs_slice] + b"]")
    except ValueError:  # an empty slot, a leading zero or an overlong integer
        return None
    if min(map(itemgetter(0), keys), default=1) < 1:
        return None
    # split at b"],[", an arc [[a,b],[c,d]] leaves the tail text b"[a,b"
    # and the head text b"c,d]"; so does the vertex list, split at b"],"
    # and at b",["
    vs_text = packed[vs_slice]
    tail_index = dict(zip(vs_text[:-1].split(b"],"), range(n)))
    head_index = dict(zip(vs_text[1:].split(b",["), range(n)))
    if len(tail_index) != n:
        return None
    succ: list[list[int]] = [[] for _ in keys]
    tails = array("I")
    # the arcs inside the outer brackets but one, cut between two arcs in blocks
    start, stop = arcs_slice.start + 1, arcs_slice.stop - 1
    while start < stop:
        end = packed.find(b"]],[[", start + _ARC_BLOCK, stop) + 1 or stop
        ends = packed[start:end].split(b"],[")
        try:  # an empty slot leaves an endpoint text that names no vertex
            block_tails = list(map(tail_index.__getitem__, ends[::2]))
            heads = list(map(head_index.__getitem__, ends[1::2]))
        except KeyError:
            return None
        deque(map(list.append, map(succ.__getitem__, block_tails), heads), 0)
        tails.extend(block_tails)
        start = end + 3
    if any(map(list.__contains__, succ, range(n))):  # a loop
        return None
    return Digraph._from_succ(_vertices(keys), succ, tails)


def _json_arc_keys(item: Any) -> tuple[tuple[int, int], tuple[int, int]]:
    """The endpoint keys of a JSON arc ``[tail, head]``."""
    if not isinstance(item, list) or len(item) != 2:
        raise FormatError(f"expected an arc as [tail, head], got {item!r}")
    return _json_vertex_key(item[0]), _json_vertex_key(item[1])


def graph_from_json(text: str) -> Digraph:
    """Parse the JSON format; ``_plain_json_graph`` builds every graph.

    A plain document is read without decoding it.  Any other is decoded
    whole, a key repeated in its top-level object is rejected (not
    resolved to its last value), and its two lists are written back
    compactly for ``_plain_json_graph``: that text is plain exactly when
    the document has no fault.  Otherwise each vertex, then each arc, is
    checked for shape, and the public ``Digraph`` constructor words the
    first duplicate vertex (before any arc is resolved), or else the
    first arc with an unknown endpoint or a loop.
    """
    plain = _plain_json_graph(text)
    if plain is not None:
        return plain
    repeats: list[tuple[dict[str, Any], str]] = []  # objects that repeat a key

    def keep_pairs(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    repeats.append((obj, key))
                    break
                seen.add(key)
        return obj

    try:
        payload = json.loads(text, object_pairs_hook=keep_pairs)
    except (ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
        raise FormatError(f"invalid JSON: {err}") from None
    # the top-level object is the last to close
    if repeats and repeats[-1][0] is payload:
        raise FormatError(f"duplicate key {repeats[-1][1]!r}")
    if not isinstance(payload, dict):
        raise FormatError("expected a JSON object with 'vertices' and 'arcs'")
    if "vertices" not in payload or "arcs" not in payload:
        raise FormatError("graph JSON needs both 'vertices' and 'arcs'")
    if not isinstance(payload["vertices"], list) or not isinstance(
        payload["arcs"], list
    ):
        raise FormatError("'vertices' and 'arcs' must be lists")
    lists = {"vertices": payload["vertices"], "arcs": payload["arcs"]}
    compact = json.dumps(lists, separators=(",", ":"), check_circular=False)
    del payload, lists  # the decoded lists go before the compact text is read
    plain = _plain_json_graph(compact)
    if plain is not None:
        return plain
    payload = json.loads(compact)
    keys = [_json_vertex_key(item) for item in payload["vertices"]]
    ends = [_json_arc_keys(item) for item in payload["arcs"]]
    try:  # the reference, which words the first fault
        return Digraph(_vertices(keys), [(Vertex(*t), Vertex(*h)) for t, h in ends])
    except ValueError as err:
        raise FormatError(str(err)) from None


def _level_order(g: Digraph) -> list[int]:
    """Vertex indices sorted by level, then position."""
    keys = list(map(attrgetter("level", "position"), g.vertices))
    return sorted(range(len(keys)), key=keys.__getitem__)


def _tail_blocks(
    g: Digraph, order: list[int], leads: list[str], closers: list[str]
) -> Iterator[str]:
    """One block per tail with heads, in ``order``: its arcs' lines, heads sorted so.

    An arc's line is its tail's lead and its head's closer, so a tail's
    block is one ``str.join`` of its heads' closers.  Each run of tails
    that share one successor list, such as a built cobweb's level, sorts
    it once.
    """
    by_rank, closer = _inverse(order).__getitem__, closers.__getitem__
    last: list[int] | None = None
    for t in order:
        heads = g._succ[t]
        if heads is not last:
            last, ends = heads, list(map(closer, sorted(heads, key=by_rank)))
        if heads:
            yield leads[t] + leads[t].join(ends)


def _edgelist_blocks(g: Digraph) -> Iterator[str]:
    """graph_to_edgelist's text in blocks: one per tail, then the isolated vertices."""
    texts = [format_vertex(v) for v in g.vertices]
    order = _level_order(g)
    leads, closers = [x + " -> " for x in texts], [x + "\n" for x in texts]
    yield from _tail_blocks(g, order, leads, closers)
    all_heads = set().union(*dict(zip(map(id, g._succ), g._succ)).values())
    bare = [closers[i] for i in order if not g._succ[i] and i not in all_heads]
    if bare:
        yield "".join(bare)


def graph_to_edgelist(g: Digraph) -> str:
    """One 'tail -> head' line per arc; isolated vertices as bare lines.

    Arcs come out sorted by level then position, so the text does not
    preserve the vertex construction order of the digraph.
    """
    return "".join(_edgelist_blocks(g))


def _chunks(text: str, size: int = 1 << 16) -> Iterator[str]:
    """Slices of text of about ``size`` characters, each cut after a newline.

    A newline always ends a line, so the slices' ``splitlines`` list
    the lines of ``text.splitlines()`` without holding them all at once.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield text[start:end]
        start = end


def graph_from_edgelist(text: str) -> Digraph:
    """Parse the edge list format.

    Blank lines are skipped and '#' starts a comment that runs to the
    end of the line.  A line is either 'tail -> head' or a single bare
    vertex.  Vertices are registered in first-appearance order; tokens
    that parse to the same position and level, such as '1,2', '1, 2'
    and '01,2', name the same vertex.  Each token is cached as read,
    whitespace included (such as '18,10 '), so an arc line whose tokens
    were met before costs one ``partition`` and two dict subscripts.
    Any other line, bare or blank ones too (no empty text is cached),
    goes to ``lookup``, which range-checks each new vertex on its line.
    Lines are split at '#' only when the text holds one, and only one
    chunk's lines (``_chunks``) are held at a time.  Each arc goes
    straight into the successor lists and the tails array.  The vertices
    are made after the last line, and then the first loop is raised, so
    a malformed line wins over it.
    """
    index: dict[tuple[int, int], int] = {}
    cache: dict[str, int] = {}  # each token, as read and stripped, to its vertex
    succ: list[list[int]] = []
    tails = array("I")
    loop: int | None = None  # the vertex of the first loop

    def lookup(token: str) -> int:
        name = token.strip()
        i = cache.get(name)
        if i is None:
            key = _vertex_key(name)
            i = index.get(key)
            if i is None:
                if key[0] < 1 or key[1] < 0:
                    _text_vertex(key, name)  # raises, wording the range error
                succ.append([])
                i = index[key] = len(index)
            cache[name] = i
        cache[token] = i
        return i

    lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
    if "#" in text:
        lines = (line.split("#", 1)[0] for line in lines)
    for lineno, line in enumerate(lines, start=1):
        lhs, arrow, rhs = line.partition("->")
        try:
            t, h = cache[lhs], cache[rhs]
        except KeyError:
            try:
                if not arrow:
                    if line.strip():
                        lookup(line)
                    continue
                t, h = lookup(lhs), lookup(rhs)
            except FormatError as err:
                raise FormatError(f"line {lineno}: {err}") from None
        if t != h:
            succ[t].append(h)
            tails.append(t)
        elif loop is None:
            loop = t
    vertices = _vertices(index)
    if loop is not None:
        raise FormatError(f"loop at {vertices[loop]}")
    return Digraph._from_succ(vertices, succ, tails)


def _dot_blocks(g: Digraph) -> Iterator[str]:
    """graph_to_dot's text in blocks: the header and ranks, one per tail, the end."""
    texts = [f'"{format_vertex(v)}"' for v in g.vertices]
    order = _level_order(g)
    by_level: dict[int, list[str]] = {}
    for i in order:
        by_level.setdefault(g.vertices[i].level, []).append(texts[i])
    ranks = "".join(f"  {{ rank=same; {'; '.join(row)}; }}\n" for row in by_level.values())
    yield "digraph {\n  rankdir=BT;\n" + ranks
    leads, closers = [f"  {x} -> " for x in texts], [x + ";\n" for x in texts]
    yield from _tail_blocks(g, order, leads, closers)
    yield "}\n"


def graph_to_dot(g: Digraph) -> str:
    """Graphviz DOT with one rank=same block per level, bottom to top."""
    return "".join(_dot_blocks(g))


# each format's text in blocks, which a caller can write without joining them
_BLOCKS = {"json": _json_blocks, "dot": _dot_blocks, "edgelist": _edgelist_blocks}
GRAPH_FORMATS = tuple(_BLOCKS)


def render_graph(g: Digraph, fmt: str) -> str:
    if fmt not in _BLOCKS:
        raise ValueError(f"unknown graph format {fmt!r}")
    return "".join(_BLOCKS[fmt](g))


def graph_from_text(text: str) -> Digraph:
    """Parse a graph from text, sniffing JSON versus edge list.

    One leading byte order mark (U+FEFF) is dropped first.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return graph_from_edgelist(text)


def realizer_to_json(r: Realizer) -> str:
    x, y = _vertex_list(r.first), _vertex_list(r.second)
    return '{\n  "chain_x": ' + x + ',\n  "chain_y": ' + y + "\n}\n"


def verdict_to_json(verdict: OrderabilityVerdict) -> str:
    if isinstance(verdict, Orderable):
        realizer = realizer_to_json(verdict.realizer)[:-1].replace("\n", "\n  ")
        return '{\n  "kind": "orderable",\n  "realizer": ' + realizer + "\n}\n"
    if isinstance(verdict, NotRegular):
        witness = _vertex_list(verdict.witness)
        return '{\n  "kind": "not_regular",\n  "witness": ' + witness + "\n}\n"
    if isinstance(verdict, NoAdmissibleChain):
        flag = json.dumps(verdict.exhaustive)
        return (
            '{\n  "kind": "no_admissible_chain",\n  "exhaustive": ' + flag + "\n}\n"
        )
    raise TypeError(f"not a verdict: {verdict!r}")
