#!/usr/bin/env python3
"""Compare the command line output of two source trees, byte for byte.

Writes seeded input files to a temporary directory, runs a fixed list of
``python -m cobwebs`` command lines once with each tree's ``src`` on
PYTHONPATH and its own PYTHONHASHSEED, and reports every command line
whose exit code, stdout or stderr differ.  Exit status 0 means no
difference.

    python3 scripts/cli_identity.py OLD_TREE NEW_TREE

Run with the same tree twice (``. .``) it checks that no output depends
on the hash seed; that takes about four minutes.

The command lines cover gen, check, realize, dim --max-k 1|2|3 and
export on --seq inputs; on shuffled JSON and edge-list files of cobwebs,
of S3 plus isolated vertices, of random two-dimensional orders and of
their transitive closures, and of random DAGs; on cyclic, malformed and
loop inputs, JSON nested past the decoder's recursion limit and an
integer of 5,001 digits; and on invalid sequence specs, a negative max
level, a missing file, a file that is not UTF-8 and an --output in a
missing directory.  The input files are written by this script, not by
either tree, so both read the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

Vertex = tuple[int, int]  # (position, level)
Graph = tuple[list[Vertex], list[tuple[Vertex, Vertex]]]

SEED = 11
HASH_SEEDS = ("1", "2")  # one per tree
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


def cobweb(sizes: list[int]) -> Graph:
    levels = [[(j, s) for j in range(1, size + 1)] for s, size in enumerate(sizes)]
    arcs = [(u, w) for lo, hi in zip(levels, levels[1:]) for u in lo for w in hi]
    return [v for level in levels for v in level], arcs


def s3_plus(k: int) -> Graph:
    """The standard 3-dimensional poset S3 and k isolated vertices."""
    lo = [(i, 0) for i in (1, 2, 3)]
    hi = [(i, 1) for i in (1, 2, 3)]
    arcs = [(lo[i], hi[j]) for i in range(3) for j in range(3) if i != j]
    return lo + hi + [(4 + i, 0) for i in range(k)], arcs


def two_dimensional(rng: random.Random, n: int, closed: bool) -> Graph:
    """The order u < v when two random permutations both put u first.

    With ``closed`` every comparable pair is an arc, otherwise only the
    covers are.
    """
    a, b = rng.sample(range(n), n), rng.sample(range(n), n)
    below = {
        (u, v) for u in range(n) for v in range(n) if a[u] < a[v] and b[u] < b[v]
    }
    if not closed:
        below = {
            (u, v)
            for u, v in below
            if not any((u, w) in below and (w, v) in below for w in range(n))
        }
    vs = [(i + 1, 0) for i in range(n)]
    return vs, [(vs[u], vs[v]) for u, v in sorted(below)]


def random_dag(rng: random.Random, n: int, prob: float) -> Graph:
    vs = [(i + 1, 0) for i in range(n)]
    arcs = [
        (vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < prob
    ]
    return vs, arcs


def shuffled(rng: random.Random, g: Graph) -> Graph:
    vs, arcs = list(g[0]), list(g[1])
    rng.shuffle(vs)
    rng.shuffle(arcs)
    return vs, arcs


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


def write_inputs(rng: random.Random, root: Path) -> list[Path]:
    """The input files, seeded by rng; each graph alternates JSON and edge list."""
    graphs: list[tuple[str, Graph]] = []
    for sizes in ([1, 1, 2], [1, 1, 1, 2, 3, 5], [3, 3, 3], [2, 1, 3, 1]):
        graphs.append(("cobweb", cobweb(sizes)))
    for k in range(5):
        graphs.append((f"s3_plus_{k}", s3_plus(k)))
    for n in (4, 6, 7, 9, 12, 16, 25, 40):
        graphs.append((f"two_dim_{n}", two_dimensional(rng, n, closed=False)))
        graphs.append((f"two_dim_closure_{n}", two_dimensional(rng, n, closed=True)))
    for n, prob in ((6, 0.4), (7, 0.3), (10, 0.3), (14, 0.2)):
        graphs.append((f"dag_{n}", random_dag(rng, n, prob)))
    paths = []
    for k, (name, g) in enumerate(graphs):
        for fmt, emit in (("json", to_json), ("txt", to_edgelist)):
            path = root / f"{k:02d}_{name}.{fmt}"
            path.write_text(emit(shuffled(rng, g)))
            paths.append(path)
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
        path = root / name
        path.write_text(text)
        paths.append(path)
    paths.append(root / "missing.json")
    not_utf8 = root / "not_utf8.txt"
    not_utf8.write_bytes(b"\xff1,0 -> 2,0\n")
    paths.append(not_utf8)
    return paths


def command_lines(paths: list[Path]) -> list[list[str]]:
    lines = []
    for spec, level in SEQ_INPUTS:
        for fmt in ("json", "edgelist", "dot"):
            lines.append(["gen", spec, "--max-level", str(level), "--format", fmt])
        for command in FILE_COMMANDS:
            lines.append([*command, "--seq", spec, "--max-level", str(level)])
    lines.append(["realize", "--seq", "fib"])  # --max-level missing
    for path in paths:
        for command in FILE_COMMANDS:
            lines.append([*command, "--input", str(path)])
    unwritable = str(paths[0].parent / "missing_dir" / "out")
    for command in (
        ["gen", "fib"],
        ["realize", "--seq", "fib"],
        ["export", "--seq", "fib"],
    ):
        lines.append([*command, "--max-level", "3", "--output", unwritable])
    return lines


def run(
    tree: Path, hash_seed: str, argv: list[str], cwd: Path
) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-m", "cobwebs", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=300,
    )
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree with src/cobwebs")
    parser.add_argument("new", type=Path, help="source tree with src/cobwebs")
    args = parser.parse_args()
    for tree in (args.old, args.new):
        if not (tree / "src" / "cobwebs").is_dir():
            parser.error(f"{tree} has no src/cobwebs")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        parts = ["exit code", "stdout", "stderr"]
        results = []
        old_seed, new_seed = HASH_SEEDS
        for argv in command_lines(write_inputs(random.Random(SEED), root)):
            old = run(args.old.resolve(), old_seed, argv, root)
            new = run(args.new.resolve(), new_seed, argv, root)
            differ = [p for p, a, b in zip(parts, old, new) if a != b]
            results.append((argv, old[0], differ))

    codes: Counter[int] = Counter()
    differences = 0
    for argv, code, differ in results:
        codes[code] += 1
        if differ:
            differences += 1
            print(f"DIFFERENT ({', '.join(differ)}): cobwebs {' '.join(argv)}")
    histogram = ", ".join(f"exit {c}: {k}" for c, k in sorted(codes.items()))
    print(f"{len(results)} command lines ({histogram}); {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
