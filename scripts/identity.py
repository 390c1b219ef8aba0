#!/usr/bin/env python3
"""Compare two source trees: library results and command line bytes.

    python3 scripts/identity.py OLD_TREE NEW_TREE

Writes seeded input files to a temporary directory, then runs this
script once per tree (``--dump``), both at the same time, each with
that tree's ``src`` on PYTHONPATH and its own PYTHONHASHSEED (1 and 2)
and with the input directory as its working directory.  Each run prints
one digest line per library input and one per command line, and the
two dumps are compared line by line.  Every difference is reported, then
both histograms.  Exit status 0 means no difference, 1 a difference and
2 a failed run.  Run with the same tree twice (``. .``) it checks that
no result depends on the seed of string hashing.

The library corpus: every triangular DAG with at most 6 vertices; 3,000
seeded regular DAGs with 7-14 vertices and 1,500 random 2-dimensional
orders (covers only) with 5-80 elements, each also with a disjoint S3
appended, both in shuffled vertex and arc order; and the fib cobwebs up
to level 12.  For each input it compares the text of:

- ``decide_orderable`` through ``verdict_to_json`` (verdict, both
  chains, witness);
- ``is_regular``, and ``is_admissible`` on ``topological_order``;
- ``conjugate_chain`` of ``topological_order``: the chain, or the cycle
  of its ConjugateCycleError;
- the arcs of ``transitive_reduction``;
- the dimension <= 2 answer, ``decide_orderable(transitive_reduction(g))``;
- the ``check`` and ``dim`` views, ``_check_graph`` (regularity and
  admissibility, with witnesses) and ``_dimension_up_to_2``;
- ``graph_to_json``, ``graph_to_edgelist`` and ``graph_to_dot``;
- ``reachability``;
- on the fib cobwebs, ``strict_order_relation`` and
  ``intersect_chains(ascending_chain, descending_chain)``;
- on inputs with at most 9 vertices, ``brute_force_dim_le_2`` of
  ``FinitePoset.from_digraph`` (the verdict and both witness chains),
  and on those with at most 8, its ``order_dimension`` up to 3.

Relations are written as their pairs of vertex strings, sorted, one
per line, so the text does not depend on the type that holds them.  A
field that does not apply to an input is empty.

The command lines run ``python -m cobwebs`` in a subprocess and compare
its exit code, stdout and stderr.  They cover gen, check, realize, dim
--max-k 1|2|3 and export on --seq inputs; on shuffled JSON and edge-list
files of cobwebs, of S3 plus isolated vertices, of random
two-dimensional orders and of their transitive closures, and of random
DAGs; on cyclic, malformed and loop inputs, JSON nested past the
decoder's recursion limit and an integer of 5,001 digits; on JSON with
the arcs key first, compact separators, tab and CRLF indentation, an
extra key, an escaped key, a leading zero, a float coordinate, a digit
outside the lists, a repeated arc, an unknown endpoint and no vertex;
and on invalid sequence specs, a negative max level, a missing file, a
file that is not UTF-8 and an --output in a missing directory.  No
command writes into the input directory.

All inputs are generated by this script, not by either tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

LIBRARY_SEED = 10
CLI_SEED = 11
HASH_SEEDS = ("1", "2")  # one per tree
FIELDS = (
    "verdict",
    "regular",
    "admissible",
    "conjugate",
    "reduction",
    "dim2",
    "check",
    "dim",
    "json",
    "edgelist",
    "dot",
    "reachability",
    "strict_order",
    "intersection",
    "pair_search",
    "dimension",
)
PARTS = ("exit code", "stdout", "stderr")

Key = tuple[int, int]  # (position, level)
Graph = tuple[list[Key], list[tuple[Key, Key]]]
Case = tuple[str, list[Key], list[tuple[Key, Key]]]

SEQ_INPUTS = [
    *(("fib", level) for level in range(10)),
    ("fib", 12),
    ("const:1", 0),
    ("const:1", 3),
    ("const:1", 40),
    ("const:3", 2),
    ("const:5", 4),
    ("list:1,3,2,4", 3),
    ("list:2,2,2", 2),
    ("list:1,2", 5),  # runs past the explicit list: exit 3
    ("const:0", 2),  # a level of size 0: exit 3
    ("list:0,1", 1),
    ("bogus", 2),  # not a spec: exit 2
    ("fib", -1),  # negative max level: exit 2
]
FILE_COMMANDS = [
    ["check"],
    ["realize"],
    ["dim", "--max-k", "1"],
    ["dim", "--max-k", "2"],
    ["dim", "--max-k", "3"],
    ["export", "--format", "json"],
    ["export", "--format", "edgelist"],
    ["export", "--format", "dot"],
]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _covers(below: list[int]) -> list[tuple[int, int]]:
    """The covering pairs of a transitive relation; below[i] = elements above i."""
    out = []
    for i, mask in enumerate(below):
        implied = 0
        for j in _bits(mask):
            implied |= below[j]
        out += [(i, j) for j in _bits(mask & ~implied)]
    return out


def _two_dimensional(rng: random.Random, n: int) -> list[int]:
    """The order u < v when two random permutations both put u first, as masks."""
    a, b = rng.sample(range(n), n), rng.sample(range(n), n)
    return [
        sum(1 << v for v in range(n) if a[u] < a[v] and b[u] < b[v]) for u in range(n)
    ]


def _graph(vs: list[Key], pairs: Iterable[tuple[int, int]]) -> Graph:
    return vs, [(vs[i], vs[j]) for i, j in pairs]


def _on_levels(n: int) -> list[Key]:
    """n vertices over four levels, so that level order is not index order."""
    return [(i // 4 + 1, i % 4) for i in range(n)]


def cobweb(sizes: list[int]) -> Graph:
    levels = [[(j, s) for j in range(1, size + 1)] for s, size in enumerate(sizes)]
    arcs = [(u, w) for lo, hi in zip(levels, levels[1:]) for u in lo for w in hi]
    return [v for level in levels for v in level], arcs


def shuffled(rng: random.Random, g: Graph) -> Graph:
    vs, arcs = list(g[0]), list(g[1])
    rng.shuffle(vs)
    rng.shuffle(arcs)
    return vs, arcs


def corpus() -> Iterator[Case]:
    """The library inputs, seeded."""
    for n in range(7):
        vs = [(i + 1, 0) for i in range(n)]
        slots = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
        for code in range(1 << len(slots)):
            arcs = [arc for k, arc in enumerate(slots) if code >> k & 1]
            yield f"triangular_{n}_{code}", vs, arcs
    rng = random.Random(LIBRARY_SEED)
    for k in range(3000):
        n = rng.randint(7, 14)
        prob = rng.choice((0.15, 0.3, 0.5))
        reach = [0] * n
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                if rng.random() < prob:
                    reach[i] |= reach[j] | 1 << j
        yield f"regular_{k}", *shuffled(rng, _graph(_on_levels(n), _covers(reach)))
    for k in range(1500):
        n = rng.randint(5, 80)
        covers = _covers(_two_dimensional(rng, n))
        yield f"two_dim_{k}", *shuffled(rng, _graph(_on_levels(n), covers))
        s3 = [(n + i, n + 3 + j) for i in range(3) for j in range(3) if i != j]
        g = _graph(_on_levels(n + 6), covers + s3)
        yield f"two_dim_{k}_s3", *shuffled(rng, g)
    fib = [1, 1, 1]  # level sizes of the fib cobweb
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    for level in range(13):
        yield f"fib_{level}", *cobweb(fib[: level + 1])


def s3_plus(k: int) -> Graph:
    """The standard 3-dimensional poset S3 and k isolated vertices."""
    lo = [(i, 0) for i in (1, 2, 3)]
    hi = [(i, 1) for i in (1, 2, 3)]
    arcs = [(lo[i], hi[j]) for i in range(3) for j in range(3) if i != j]
    return lo + hi + [(4 + i, 0) for i in range(k)], arcs


def to_json(g: Graph) -> str:
    vs, arcs = g
    arcs_json = [[list(t), list(h)] for t, h in arcs]
    return json.dumps({"vertices": [list(v) for v in vs], "arcs": arcs_json})


def to_edgelist(g: Graph) -> str:
    vs, arcs = g
    touched = {v for arc in arcs for v in arc}
    lines = [f"{t[0]},{t[1]} -> {h[0]},{h[1]}" for t, h in arcs]
    lines += [f"{v[0]},{v[1]}" for v in vs if v not in touched]
    return "".join(line + "\n" for line in lines)


def cli_files() -> list[tuple[str, bytes | None]]:
    """The command lines' input files, seeded, by name; None: not written.

    Each graph is written twice, as JSON and as an edge list.
    """
    rng = random.Random(CLI_SEED)
    graphs: list[tuple[str, Graph]] = []
    for sizes in ([1, 1, 2], [1, 1, 1, 2, 3, 5], [3, 3, 3], [2, 1, 3, 1]):
        graphs.append(("cobweb", cobweb(sizes)))
    for k in range(5):
        graphs.append((f"s3_plus_{k}", s3_plus(k)))
    for n in (4, 6, 7, 9, 12, 16, 25, 40):
        vs = [(i + 1, 0) for i in range(n)]
        # two orders: the covers of the first, every comparable pair of the second
        covers = _covers(_two_dimensional(rng, n))
        below = _two_dimensional(rng, n)
        closure = [(u, v) for u in range(n) for v in _bits(below[u])]
        graphs.append((f"two_dim_{n}", _graph(vs, covers)))
        graphs.append((f"two_dim_closure_{n}", _graph(vs, closure)))
    for n, prob in ((6, 0.4), (7, 0.3), (10, 0.3), (14, 0.2)):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pairs = [slot for slot in slots if rng.random() < prob]
        graphs.append((f"dag_{n}", _graph([(i + 1, 0) for i in range(n)], pairs)))
    files: list[tuple[str, bytes | None]] = []
    for k, (name, g) in enumerate(graphs):
        for fmt, emit in (("json", to_json), ("txt", to_edgelist)):
            files.append((f"{k:02d}_{name}.{fmt}", emit(shuffled(rng, g)).encode()))
    triangle = [(1, 0), (2, 0), (3, 0)]
    cycle3 = (triangle, [(triangle[i], triangle[(i + 1) % 3]) for i in range(3)])
    for name, text in (
        ("empty.txt", ""),
        ("single.txt", "1,0\n"),
        ("cycle.txt", "1,0 -> 2,0\n2,0 -> 1,0\n"),
        # nine vertices: past the dimension guard of dim --max-k 3
        ("cycle_big.txt", "".join(f"{i},0 -> {i % 9 + 1},0\n" for i in range(1, 10))),
        ("cycle.json", to_json(cycle3)),
        ("loop.txt", "1,0 -> 2,0\n2,0 -> 2,0\n"),
        ("loop.json", to_json(([(1, 0)], [((1, 0), (1, 0))]))),
        ("bad_token.txt", "1,0 -> x\n"),
        ("bad_json.json", '{"vertices": [[1, 0]], "arcs": [[[1, 0], [2, 0]]]}'),
        ("truncated.json", '{"vertices": [[1, 0'),
        ("duplicate.json", '{"vertices": [[1, 0], [1, 0]], "arcs": []}'),
        # past the decoder's recursion limit, and an integer of 5,001 digits
        ("deep.json", '{"vertices": ' + "[" * 100_000),
        ("long_int.json", '{"vertices": [[1' + "0" * 5000 + ', 0]], "arcs": []}'),
    ):
        files.append((name, text.encode()))
    # JSON layouts that the reader takes without decoding, and near misses it
    # hands to the decoder
    vs, arcs = shuffled(rng, graphs[1][1])
    doc = json.loads(to_json((vs, arcs)))
    repeated = doc["arcs"][:3] + doc["arcs"]
    for name, text in (
        ("arcs_first.json", json.dumps({"arcs": doc["arcs"], "vertices": doc["vertices"]})),
        ("compact.json", json.dumps(doc, separators=(",", ":"))),
        ("tab_crlf.json", json.dumps(doc, indent="\t").replace("\n", "\r\n")),
        ("extra_key.json", json.dumps({**doc, "name": "cobweb"})),
        ("escaped_key.json", '{"\\u0076ertices": [[1, 0]], "arcs": []}'),
        ("leading_zero.json", '{"vertices": [[1, 0], [01, 1]], "arcs": []}'),
        ("float.json", '{"vertices": [[1, 0], [1.0, 1]], "arcs": [[[1, 0], [1, 1]]]}'),
        ("digit_outside.json", '{"vertices": [[1, 0], [1, 1]] 7, "arcs": []}'),
        ("repeated_arc.json", json.dumps({**doc, "arcs": repeated})),
        ("unknown_end.json", '{"vertices": [[1, 0], [2, 0]], "arcs": [[[2, 0], [1, 1]]]}'),
        ("empty.json", '{"vertices": [], "arcs": []}'),
    ):
        files.append((name, text.encode()))
    files.append(("missing.json", None))
    files.append(("not_utf8.txt", b"\xff1,0 -> 2,0\n"))
    return files


def write_inputs(root: Path) -> None:
    for name, data in cli_files():
        if data is not None:
            (root / name).write_bytes(data)


def command_lines(root: Path) -> list[list[str]]:
    """The argument lists, on the input files in root."""
    lines = []
    for spec, level in SEQ_INPUTS:
        for fmt in ("json", "edgelist", "dot"):
            lines.append(["gen", spec, "--max-level", str(level), "--format", fmt])
        for command in FILE_COMMANDS:
            lines.append([*command, "--seq", spec, "--max-level", str(level)])
    lines.append(["realize", "--seq", "fib"])  # --max-level missing
    for name, _ in cli_files():
        for command in FILE_COMMANDS:
            lines.append([*command, "--input", str(root / name)])
    unwritable = str(root / "missing_dir" / "out")
    for command in (
        ["gen", "fib"],
        ["realize", "--seq", "fib"],
        ["export", "--seq", "fib"],
    ):
        lines.append([*command, "--max-level", "3", "--output", unwritable])
    return lines


def _digests(texts: Iterable[bytes]) -> str:
    return " ".join(hashlib.blake2b(t, digest_size=8).hexdigest() for t in texts)


def dump() -> None:
    """Print a header, then one line per library input and per command line.

    Each line reads LABEL <tab> HISTOGRAM KEY <tab> DIGESTS.  The library
    comes from the cobwebs package on sys.path; the command lines run on
    the input files in the working directory.
    """
    import cobwebs
    from cobwebs import (
        Chain,
        ConjugateCycleError,
        Digraph,
        FibonacciSequence,
        FinitePoset,
        Vertex,
        ascending_chain,
        brute_force_dim_le_2,
        build_cobweb,
        conjugate_chain,
        decide_orderable,
        descending_chain,
        intersect_chains,
        is_admissible,
        is_regular,
        order_dimension,
        reachability,
        strict_order_relation,
        topological_order,
        transitive_reduction,
    )
    from cobwebs.realizers import _check_graph, _dimension_up_to_2
    from cobwebs.serialization import (
        graph_to_dot,
        graph_to_edgelist,
        graph_to_json,
        verdict_to_json,
    )

    def conjugate(x: Chain, g: Digraph) -> str:
        try:
            return repr(conjugate_chain(x, g).order)
        except ConjugateCycleError as err:
            return f"cycle {err.cycle!r} {err}"

    def pairs(relation: Iterable[tuple[Vertex, Vertex]]) -> str:
        return "\n".join(sorted(f"{a} {b}" for a, b in relation))

    def cobweb_relations(name: str) -> tuple[str, str]:
        if not name.startswith("fib_"):
            return "", ""
        p = build_cobweb(FibonacciSequence(), int(name[len("fib_") :]))
        both = intersect_chains(ascending_chain(p), descending_chain(p))
        return pairs(strict_order_relation(p)), pairs(both)

    def oracle(g: Digraph) -> tuple[str, str]:
        if len(g) > 9:
            return "", ""
        poset = FinitePoset.from_digraph(g)
        found = brute_force_dim_le_2(poset)
        r = found.witness
        chains = (r.first.order, r.second.order) if found else ()
        dim = repr(order_dimension(poset, 3)) if len(g) <= 8 else ""
        return f"{bool(found)} {chains!r}", dim

    out = sys.stdout
    out.write(f"cobwebs {Path(cobwebs.__file__).resolve().parent}\n")
    for name, vs, arcs in corpus():
        g = Digraph(
            [Vertex(*v) for v in vs], [(Vertex(*t), Vertex(*h)) for t, h in arcs]
        )
        x = Chain(topological_order(g))
        reduced = transitive_reduction(g)
        verdict = decide_orderable(g)
        texts = (
            verdict_to_json(verdict),
            repr(is_regular(g)),
            repr(is_admissible(x, g)),
            conjugate(x, g),
            repr(reduced.arcs),
            verdict_to_json(decide_orderable(reduced)),
            repr(_check_graph(g)),
            repr(_dimension_up_to_2(g)),
            graph_to_json(g),
            graph_to_edgelist(g),
            graph_to_dot(g),
            pairs(reachability(g)),
            *cobweb_relations(name),
            *oracle(g),
        )
        kind = type(verdict).__name__
        out.write(f"{name}\t{kind}\t{_digests(t.encode() for t in texts)}\n")
    for argv in command_lines(Path.cwd()):
        done = subprocess.run(
            [sys.executable, "-m", "cobwebs", *argv], capture_output=True, timeout=300
        )
        code = done.returncode
        parts = _digests((str(code).encode(), done.stdout, done.stderr))
        out.write(f"cobwebs {' '.join(argv)}\texit {code}\t{parts}\n")


def compare(old: list[str], new: list[str]) -> int:
    """Print every differing line, then both histograms; 1 on any difference."""
    counts: dict[str, Counter[str]] = {"inputs": Counter(), "command lines": Counter()}
    differences: Counter[str] = Counter()
    for a, b in zip(old, new, strict=True):
        label, key, digests = a.split("\t")
        command = label.startswith("cobwebs ")
        noun, names = ("command lines", PARTS) if command else ("inputs", FIELDS)
        counts[noun][key] += 1
        if a != b:
            differences[noun] += 1
            pairs = zip(names, digests.split(), b.split("\t")[2].split())
            print(f"DIFFERENT ({', '.join(n for n, x, y in pairs if x != y)}): {label}")
    for noun, count in counts.items():
        histogram = ", ".join(f"{k}: {c}" for k, c in sorted(count.items()))
        print(f"{count.total()} {noun} ({histogram}); {differences[noun]} differences")
    return 1 if differences else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument(
        "--dump",
        action="store_true",
        help="print the digest lines of the cobwebs package on PYTHONPATH, "
        "running the command lines in the working directory",
    )
    args = parser.parse_args()
    if args.dump:
        dump()
        return 0
    if len(args.trees) != 2:
        parser.error("expected OLD_TREE and NEW_TREE")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "cobwebs").is_dir():
            parser.error(f"{tree} has no src/cobwebs")

    script = str(Path(__file__).resolve())
    with (
        tempfile.TemporaryDirectory() as tmp,
        tempfile.TemporaryFile("w+") as old,
        tempfile.TemporaryFile("w+") as new,
    ):
        write_inputs(Path(tmp))
        procs = [
            subprocess.Popen(
                [sys.executable, script, "--dump"],
                cwd=tmp,
                env=dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=seed),
                stdout=out,
            )
            for tree, seed, out in zip(trees, HASH_SEEDS, (old, new))
        ]
        for proc in procs:
            proc.wait()
        dumps = []
        for tree, proc, out in zip(trees, procs, (old, new)):
            out.seek(0)
            lines = out.read().splitlines()
            if proc.returncode or lines[:1] != [f"cobwebs {tree / 'src' / 'cobwebs'}"]:
                print(f"{tree}: run failed (exit {proc.returncode})")
                return 2
            dumps.append(lines[1:])
    return compare(*dumps)


if __name__ == "__main__":
    sys.exit(main())
