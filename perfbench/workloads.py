"""One benchmark child process: set up a workload, run passes, check answers.

run.py starts this script once per measurement, as

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 T0 [--setup-only] [--tiny] [--wrong-pin]

where T0 is the parent's perf_counter() just before the start, so that
setup time covers interpreter start, imports and input generation.  The
last line of stdout is one JSON object with the raw figures; run.py
turns them into metrics.

A pass runs every operation of the workload once, one at a time.  An
operation's time covers its library calls (or its `cobweb` process) and
not the checks made on its answer afterwards.  Every answer is compared
with a pinned value or an independent oracle, and the exact counts of
each operation (totals, nodes, V, E, block pairs, digests) must repeat
between the passes of a run; any difference is a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import cobweb  # noqa: E402
from cobweb import blockgraph as BG  # noqa: E402
from cobweb import coefficients as CO  # noqa: E402
from cobweb import fsequence as FS  # noqa: E402
from cobweb import geometry as GEO  # noqa: E402
from cobweb import render as RE  # noqa: E402
from cobweb import tiling as TL  # noqa: E402

import refs  # noqa: E402
import tracer as TR  # noqa: E402

WORKLOADS = ("construct-verify", "exact-count", "graph-clique", "cli-session")
CLI_SUBCOMMANDS = ("seq", "coeff", "multicoeff", "admissible", "paths", "tile",
                   "multitile", "count-tilings", "graph", "verify", "render")
CLI_TIMEOUT_S = 120
SEARCH_BUDGET = 50_000_000
YARDSTICK_PERIOD_S = 0.07  # one ~2 ms sample per period inside in-process operations
SETUP_SAMPLES = 20  # kernel samples right after set-up, to scale setup_s


@dataclass
class Op:
    """One operation: `run` is timed, `check` returns (problems, exact counts)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], tuple]]
    span: str = "op"
    probe: bool = False  # a known-defect input: reported, not counted
    local: bool = True  # runs in this process (not a `cobweb` process)


def family(spec: str):
    return FS.parse_family_spec(spec)


def layer_name(spec: str, k: int, n: int) -> str:
    return f"{spec} <{k}->{n}>"


# ---------------------------------------------------------------------------
# construct-verify
# ---------------------------------------------------------------------------

LAMBDA_FAMILIES = (
    ["natural", "powers:q=2", "gaussian:q=2", "modgauss:q=2"]
    + [f"fp:p={p}" for p in (1, 2, 3, 4)]
    + [f"tlab:a={a},b={b},one=1" for a in (1, 2, 3) for b in (1, 2, 3)]
)


def compositions(n: int):
    for cuts in range(2 ** (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def corrupt(tiling, kind: str, seed: int):
    """A copy of the tiling with one defect: a block duplicated at the end,
    or one vertex of a block moved onto another vertex of its level."""
    rng = random.Random(seed)
    blocks = list(tiling.blocks)
    sizes = tiling.layer.level_sizes()
    if kind == "move":
        spots = [(i, li) for i, block in enumerate(blocks)
                 for li, level in enumerate(block.levels) if len(level) < sizes[li]]
        if spots:
            i, li = rng.choice(spots)
            level = blocks[i].levels[li]
            old = rng.choice(level)
            new = rng.choice([v for v in range(1, sizes[li] + 1) if v not in level])
            moved = tuple(sorted(set(level) - {old} | {new}))
            levels = blocks[i].levels[:li] + (moved,) + blocks[i].levels[li + 1:]
            blocks[i] = GEO.Block(blocks[i].span, levels, blocks[i].sigma)
            return TL.Tiling(tiling.layer, tuple(blocks), tiling.kind, "move"), i
    i = rng.randrange(len(blocks))
    return TL.Tiling(tiling.layer, tuple(blocks) + (blocks[i],), tiling.kind, "duplicate"), len(blocks)


def expected_violations(bad, changed: int, volume: int) -> tuple[str, ...]:
    """Violations of a tiling that was a partition before block `changed`
    was altered, from explicit path sets and level-set intersections."""
    blocks = bad.blocks
    out = set()
    for j, other in enumerate(blocks):
        if j != changed and all(set(a) & set(b) for a, b in zip(blocks[changed].levels, other.levels)):
            out.add(f"blocks {min(j, changed)} and {max(j, changed)} share a maximal path")
    total = sum(math.prod(len(level) for level in block.levels) for block in blocks)
    if total != volume:
        out.add(f"blocks cover {total} paths, layer has {volume}")
    hits = Counter(path for block in blocks for path in itertools.product(*block.levels))
    if any(c > 1 for c in hits.values()):
        out.add("explicit path sets overlap")
    if len(hits) != volume:
        out.add("explicit path sets do not cover the layer")
    return tuple(sorted(out))


def construct_verify(seed: int, tiny: bool, wrong_pin: bool) -> list[Op]:
    """Criterion 3's roster (17 lambda families, plain layers with m <= 4,
    multi compositions of n <= 5) under a volume cap, seeded construction,
    and a seeded corruption of every third tiling by size."""
    cap = 60 if tiny else 1000
    specs = LAMBDA_FAMILIES[:3] if tiny else LAMBDA_FAMILIES
    roster = []
    for spec in specs:
        F = family(spec)
        for n in range(1, 8):
            for k in range(1, n + 1):
                layer = GEO.build_layer(F, k, n)
                if layer.m <= 4 and layer.volume() <= cap:
                    roster.append((spec, F, k, n, None, CO.fnomial(F, n, layer.m), layer.volume()))
        for n in range(1, 6):
            volume = GEO.build_layer(F, 1, n).volume()
            if volume <= cap:
                for parts in compositions(n):
                    roster.append((spec, F, 1, n, parts, CO.multi_fnomial(F, parts), volume))
    if wrong_pin:
        roster[0] = roster[0][:5] + (roster[0][5] + 1,) + roster[0][6:]

    # A fixed third, every third instance by size: which instances are
    # corrupted would otherwise move the pass time by 6% between seeds,
    # because a few large tilings hold most of the verification pairs.
    rng = random.Random(seed)
    by_size = sorted(range(len(roster)), key=lambda i: (roster[i][5], roster[i][6], i))
    corruptions = {i: (rng.choice(("duplicate", "move")), rng.getrandbits(32))
                   for i in by_size[1::3]}
    strategy = TL.Seeded(seed)
    return [cv_op(entry, strategy, corruptions.get(i)) for i, entry in enumerate(roster)]


def cv_op(entry, strategy, corruption) -> Op:
    spec, F, k, n, parts, blocks, volume = entry
    name = layer_name(spec, k, n) + (f" parts {','.join(map(str, parts))}" if parts else "")

    def run():
        if parts is None:
            tiling = TL.construct_tiling(F, k, n, strategy)
        else:
            tiling = TL.construct_multi_tiling(F, n, parts, strategy)
        report = TL.verify_tiling(tiling)
        if corruption is None:
            return tiling, report, None, None, None
        bad, changed = corrupt(tiling, *corruption)
        return tiling, report, bad, changed, TL.verify_tiling(bad)

    def check(value):
        tiling, report, bad, changed, bad_report = value
        problems = []
        if not report.valid:
            problems.append(f"constructed tiling rejected: {report.violations[:2]}")
        if len(tiling.blocks) != blocks:
            problems.append(f"{len(tiling.blocks)} blocks, F-nomial gives {blocks}")
        counts = (len(tiling.blocks), tiling.key())
        if bad is not None:
            want = expected_violations(bad, changed, volume)
            if bad_report.valid or bad_report.violations != want:
                problems.append(f"{bad.provenance}: violations {bad_report.violations} != {want}")
            counts += (bad_report.violations,)
        return problems, counts

    return Op(name, run, check)


# ---------------------------------------------------------------------------
# exact-count
# ---------------------------------------------------------------------------

def exact_count(seed: int, tiny: bool, wrong_pin: bool) -> list[Op]:
    """Exact-cover totals to completion, a nonexistence certificate,
    construction censuses, and a seeded draw of admissible tables whose
    totals are cross-checked against size-d clique counts."""
    totals = dict(refs.TILING_TOTALS)
    censuses = dict(refs.CENSUSES)
    draws = 4
    if tiny:
        totals = {key: totals[key] for key in (("natural", 2, 4), ("natural", 3, 4))}
        censuses = {("fp:p=1", 2, 5): censuses[("fp:p=1", 2, 5)]}
        draws = 2
    if wrong_pin:
        first = next(iter(totals))
        totals[first] += 1
    ops = [xc_op(key, total) for key, total in totals.items()]
    ops.append(xc_op(refs.CERTIFICATE, 0))
    for (spec, k, n), (sequences, distinct) in censuses.items():
        formula = TL.count_construction_tilings(family(spec), k, n)
        ops.append(census_op(spec, k, n, sequences, distinct, formula))

    # tables (1, a, b, c), entries up to 3, admissible up to n = 4 (criterion 8's style)
    population = [FS.CustomTable((1,) + tail) for tail in itertools.product(range(1, 4), repeat=3)]
    population = [t for t in population if FS.is_cobweb_admissible(t, 4).admissible_up_to_bound]
    for table in random.Random(seed).sample(population, draws):
        ops.append(table_op(table))
    return ops


def xc_op(key, total: int) -> Op:
    spec, k, n = key
    layer = GEO.build_layer(family(spec), k, n)

    def run():
        return TL.enumerate_all_tilings(layer, GEO.PlainShape(layer.m), limit=0,
                                        node_budget=SEARCH_BUDGET)

    def check(result):
        problems = []
        if not result.complete or result.total != total:
            problems.append(f"total {result.total} complete={result.complete}, pinned {total}")
        return problems, (result.total, result.nodes)

    return Op("exact cover " + layer_name(spec, k, n), run, check)


def census_op(spec, k, n, sequences, distinct, formula) -> Op:
    F = family(spec)

    def run():
        return TL.construction_census(F, k, n, limit=10 * sequences)

    def check(census):
        problems = []
        if (census.sequences, census.distinct) != (sequences, distinct):
            problems.append(f"census {census}, pinned ({sequences}, {distinct})")
        if census.sequences != formula:
            problems.append(f"{census.sequences} sequences, construction formula {formula}")
        return problems, (census.sequences, census.distinct)

    return Op("census " + layer_name(spec, k, n), run, check)


def table_op(table) -> Op:
    layers = [GEO.build_layer(table, k, n) for k, n in ((2, 3), (2, 4), (3, 4))]

    def run():
        out = []
        for layer in layers:
            cover = TL.enumerate_all_tilings(layer, GEO.PlainShape(layer.m), limit=0,
                                             node_budget=SEARCH_BUDGET)
            graph = BG.build_block_graph(layer)
            cliques = BG.enumerate_size_d_cliques(graph, node_budget=SEARCH_BUDGET)
            out.append((cover, cliques))
        return out

    def check(out):
        problems = []
        for layer, (cover, cliques) in zip(layers, out):
            if not (cover.complete and cliques.complete) or cover.total != len(cliques.cliques):
                problems.append(f"<{layer.k}->{layer.n}>: exact cover {cover.total} "
                                f"({cover.complete}) vs cliques {len(cliques.cliques)} "
                                f"({cliques.complete})")
        counts = tuple((c.total, c.nodes, len(q.cliques), q.nodes) for c, q in out)
        return problems, counts

    return Op("seeded " + table.spec_string(), run, check)


# ---------------------------------------------------------------------------
# graph-clique
# ---------------------------------------------------------------------------

def graph_clique(seed: int, tiny: bool, wrong_pin: bool) -> list[Op]:
    """Block graphs with a first clique each, size-d clique counts to
    completion (equal to the exact-cover totals), and a clique round trip
    of a seeded construction."""
    graphs = dict(refs.GRAPHS)
    finds = [("natural", 4, 6), ("natural", 3, 5), ("fp:p=1", 4, 6)]
    counts = [("natural", 4, 5), ("powers:q=2", 2, 3), ("natural", 2, 5), ("natural", 3, 4)]
    if tiny:
        finds, counts = [("natural", 3, 4)], [("natural", 3, 4)]
    if wrong_pin:
        v, e, d = graphs[finds[0]]
        graphs[finds[0]] = (v + 1, e, d)
    shared: dict = {}
    ops = [find_op(key, graphs[key], shared) for key in finds]
    ops += [clique_count_op(key, graphs[key], refs.TILING_TOTALS[key]) for key in counts]
    ops.append(round_trip_op(finds[0], seed, shared))
    return ops


def find_op(key, pinned, shared) -> Op:
    spec, k, n = key
    layer = GEO.build_layer(family(spec), k, n)

    def run():
        graph = BG.build_block_graph(layer)
        shared[key] = graph
        clique = BG.find_clique(graph)
        return graph, clique, TL.verify_tiling(BG.clique_to_tiling(graph, clique))

    def check(value):
        graph, clique, report = value
        sizes = (graph.vertex_count(), graph.edge_count(), graph.d)
        problems = []
        if sizes != pinned:
            problems.append(f"(V, E, d) = {sizes}, pinned {pinned}")
        if len(clique) != graph.d or not report.valid:
            problems.append(f"clique of size {len(clique)} valid={report.valid}")
        return problems, sizes + (clique,)

    return Op("graph " + layer_name(spec, k, n), run, check)


def clique_count_op(key, pinned, total) -> Op:
    spec, k, n = key
    layer = GEO.build_layer(family(spec), k, n)

    def run():
        graph = BG.build_block_graph(layer)
        return graph, BG.enumerate_size_d_cliques(graph, node_budget=SEARCH_BUDGET)

    def check(value):
        graph, result = value
        sizes = (graph.vertex_count(), graph.edge_count(), graph.d)
        problems = []
        if sizes != pinned:
            problems.append(f"(V, E, d) = {sizes}, pinned {pinned}")
        if not result.complete or len(result.cliques) != total:
            problems.append(f"{len(result.cliques)} cliques complete={result.complete}, "
                            f"exact-cover total {total}")
        return problems, sizes + (len(result.cliques), result.nodes)

    return Op("cliques " + layer_name(spec, k, n), run, check)


def round_trip_op(key, seed, shared) -> Op:
    spec, k, n = key
    F = family(spec)
    strategy = TL.Seeded(seed)

    def run():
        graph = shared[key]
        built = TL.construct_tiling(F, k, n, strategy)
        clique = BG.tiling_to_clique(graph, built)
        return built, clique, BG.clique_to_tiling(graph, clique)

    def check(value):
        built, clique, back = value
        problems = []
        if back.key() != built.key():
            problems.append("clique round trip changed the tiling")
        return problems, (clique,)

    return Op("round trip " + layer_name(spec, k, n), run, check)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


MALFORMED = {
    # a tiling of natural <1->2> (one block), each broken in one way
    "bad-nofamily.json": {"span": [1, 2], "blocks": [
        {"span": [1, 2], "levels": [[1], [1, 2]], "sigma": [1, 2]}]},
    "bad-vertex.json": {"family": "natural", "span": [1, 2], "blocks": [
        {"span": [1, 2], "levels": [[1], [1, 9]], "sigma": [1, 2]}]},
    "bad-string.json": {"family": "natural", "span": [1, 2], "blocks": [
        {"span": [1, 2], "levels": [[1], [1, "2"]], "sigma": [1, 2]}]},
}


def cli_session(seed: int, tiny: bool, wrong_pin: bool, work: Path) -> list[Op]:
    """A fixed script of `python -m cobweb.cli ... --json` processes, then
    the known-defect inputs of the robustness roadmap item."""
    for name, obj in MALFORMED.items():
        (work / name).write_text(json.dumps(obj), encoding="utf-8")
    pell = refs.pell(8)
    if wrong_pin:
        pell[-1] += 1

    def ok(payload_check=None, rc=0, files=()):
        def check(out):
            problems = []
            if out["rc"] != rc:
                problems.append(f"exit {out['rc']}, expected {rc}")
            if "Traceback" in out["stderr"]:
                problems.append("traceback: " + out["stderr"].strip().splitlines()[-1])
            try:
                payload = json.loads(out["stdout"])
            except ValueError:
                payload = None
                problems.append(f"stdout is not JSON: {out['stdout'][:80]!r}")
            if payload is not None and payload_check is not None:
                problems.extend(payload_check(payload))
            digests = []
            for name in files:
                digest = sha256(work / name)
                if name in refs.ARTIFACT_SHA256 and digest != refs.ARTIFACT_SHA256[name]:
                    problems.append(f"{name} sha256 {digest[:12]}, pinned "
                                    f"{refs.ARTIFACT_SHA256[name][:12]}")
                digests.append(digest)
            stdout_digest = hashlib.sha256(out["stdout"].encode()).hexdigest()
            return problems, (out["rc"], stdout_digest, tuple(digests))
        return check

    def equals(**want):
        def check(payload):
            return [f"{key}={payload.get(key)!r}, expected {value!r}"
                    for key, value in want.items() if payload.get(key) != value]
        return check

    def one_line_error(out):
        problems = []
        if out["rc"] != 1:
            problems.append(f"exit {out['rc']}, expected 1")
        lines = out["stderr"].strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error:"):
            problems.append("not a one-line error: "
                            + (lines[-1] if lines else "empty stderr"))
        return problems, (out["rc"], len(lines))

    big = math.comb(3000, 1500)
    script = [
        (["seq", "fp:p=2", "--count", "8"], ok(equals(terms=pell))),
        (["coeff", "gaussian:q=2", "9", "4", "--check-recurrence"],
         ok(equals(value=refs.gaussian_binomial(9, 4, 2), recurrence_holds=True))),
        (["multicoeff", "natural", "6", "2,2,2"], ok(equals(value=refs.multinomial(6, (2, 2, 2))))),
        (["multicoeff", "fp:p=1", "5", "2,2,1", "--check-recurrence"],
         ok(equals(value=refs.fibonomial(5, (2, 2, 1)), recurrence_holds=True))),
        (["tile", "natural", "2", "4", "--seed", "42", "--out", "fixed.json"],
         ok(equals(valid=True, blocks=math.comb(4, 3)), files=["fixed.json"])),
        (["render", "fixed.json", "--out", "fixed.svg"], ok(files=["fixed.svg"])),
        (["graph", "natural", "3", "4", "--dot", "fixed.dot", "--find-clique"],
         ok(equals(vertices=30, edges=315, d=6), files=["fixed.dot"])),
        (["tile", "natural", "3", "5", "--seed", str(seed), "--out", "t.json"],
         ok(equals(valid=True, blocks=math.comb(5, 3)), files=["t.json"])),
        (["multitile", "natural", "4", "2,2", "--seed", str(seed), "--out", "m.json"],
         ok(equals(valid=True, blocks=refs.multinomial(4, (2, 2))), files=["m.json"])),
        (["verify", "t.json"], ok(equals(valid=True, violations=[], blocks=math.comb(5, 3)))),
        (["verify", "m.json"],
         ok(equals(valid=True, violations=[], blocks=refs.multinomial(4, (2, 2))))),
        (["render", "t.json", "--out", "t.svg"], ok(files=["t.svg"])),
        (["count-tilings", "natural", "2", "4", "--mode", "formula"], ok(equals(count=12))),
        (["count-tilings", "natural", "2", "4", "--mode", "construction"],
         ok(equals(choice_sequences=12, distinct=12))),
        (["count-tilings", "natural", "2", "4", "--mode", "exhaustive"],
         ok(equals(count=refs.TILING_TOTALS[("natural", 2, 4)], complete=True))),
        (["admissible", "table:[1,2,4,5,7]", "--max", "5"],
         ok(equals(admissible_up_to_bound=False, first_failure=[5, 2]), rc=1)),
        (["admissible", "fp:p=2", "--max", "12"], ok(equals(admissible_up_to_bound=True))),
        (["paths", "natural", "2", "4", "--list"],
         ok(equals(volume=24, paths=refs.natural_paths(2, 4)))),
    ]
    probes = [
        (["coeff", "natural", "3000", "1500"], ok(equals(value=big))),
        (["multicoeff", "natural", "3000", "1500,1500"], ok(equals(value=big))),
        (["coeff", "fp:p=1", "300", "150"], ok(equals(value=refs.fibonomial(300, (150, 150))))),
    ] + [(["verify", name], one_line_error) for name in MALFORMED]
    if tiny:
        script = [script[i] for i in (0, 1, 4, 5, 7, 9)]
        probes = probes[-1:]

    env = dict(os.environ, PYTHONPATH=str(SRC))
    return ([cli_op(argv, check, env, work, probe=False) for argv, check in script]
            + [cli_op(argv, check, env, work, probe=True) for argv, check in probes])


def cli_op(argv, check, env, work, probe) -> Op:
    command = [sys.executable, "-m", "cobweb.cli", *argv, "--json"]

    def run():
        proc = subprocess.run(command, cwd=work, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    return Op("cobweb " + " ".join(argv), run, check, span="cli." + argv[0], probe=probe,
              local=False)


def render_probe(tr: TR.Tracer, work: Path) -> list[str]:
    """Traced runs only: time the SVG renderer in-process on the session's
    fixed tiling and compare its bytes with the pinned CLI artifact."""
    obj = json.loads((work / "fixed.json").read_text(encoding="utf-8"))
    F = family(obj["family"])
    sizes = [FS.term(F, s) for s in range(obj["span"][0], obj["span"][1] + 1)]
    with tr.span("render.svg", "render fixed.json"):
        svg = RE.render_tiling_svg(obj, sizes)
    tr.counts["render.svg.bytes"] += len(svg.encode())
    digest = hashlib.sha256(svg.encode()).hexdigest()
    if digest != refs.ARTIFACT_SHA256["fixed.svg"]:
        return [f"in-process render sha256 {digest[:12]} differs from the pinned SVG"]
    return []


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def yardstick_kernel() -> tuple[int, int]:
    """A fixed pure-Python kernel of about 2 ms that uses no library code:
    a bitmask search (the profile of exact cover and clique search) and
    an all-pairs level intersection (the profile of verification)."""
    levels = [tuple((i * 37 + j * 11) % 63 + 1 for j in range(4)) for i in range(60)]
    clashes = sum(1 for i, a in enumerate(levels) for b in levels[i + 1:]
                  if all(x & y for x, y in zip(a, b)))
    return domino_tilings(4, 7), clashes


def domino_tilings(width: int, height: int) -> int:
    """Domino tilings of a width x height board (781 for 4 x 7)."""
    cells = width * height
    full = (1 << cells) - 1

    def count(covered: int) -> int:
        if covered == full:
            return 1
        free = ~covered & full
        i = (free & -free).bit_length() - 1
        total = 0
        if i % width + 1 < width and not covered >> (i + 1) & 1:
            total += count(covered | 3 << i)
        if i + width < cells:
            total += count(covered | 1 << i | 1 << (i + width))
        return total

    return count(0)


class Yardstick:
    """Samples of the host's speed, taken inside in-process operations.

    The host's speed drifts by 20% and more between runs a minute apart,
    and pure-Python code slows alike.  While an in-process operation
    runs, a timer signal times the fixed kernel above once per
    YARDSTICK_PERIOD_S, and the time the samples took is left out of the
    operation's time.  The timer runs on across operations, so the
    samples cover the timed work evenly, short operations included.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0  # sample time within the current operation
        self._timer_left = YARDSTICK_PERIOD_S

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        yardstick_kernel()
        self.samples.append(perf_counter() - start)
        self.inside_s += self.samples[-1]

    @contextmanager
    def inside(self, op: Op):
        self.inside_s = 0.0
        if not op.local:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._timer_left, YARDSTICK_PERIOD_S)
        try:
            yield
        finally:
            left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
            self._timer_left = left or YARDSTICK_PERIOD_S
            signal.signal(signal.SIGALRM, previous)


def run_pass(ops: list[Op], tr: Optional[TR.Tracer], pass_index: int,
             yard: Optional[Yardstick]):
    """Run every operation once; returns per-op (time, problems, counts).

    Traced passes take no yardstick samples, so spans hold no sample time.
    """
    out = []
    for op in ops:
        ctx = tr.span(op.span, f"{pass_index}:{op.name}") if tr else nullcontext()
        sampling = yard.inside(op) if yard else nullcontext()
        start = perf_counter()
        try:
            with ctx, sampling:
                value = op.run()
            error = None
        except Exception as exc:  # every exception is a failed operation
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        elapsed = perf_counter() - start
        if yard:
            elapsed -= yard.inside_s
        if error is not None:
            out.append((elapsed, [error], None))
            continue
        try:
            problems, counts = op.check(value)
        except Exception as exc:
            problems, counts = [f"check raised {type(exc).__name__}: {exc}"], None
        out.append((elapsed, problems, counts))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--wrong-pin", action="store_true",
                        help="perturb one pinned answer (smoke test of the checks)")
    args = parser.parse_args(argv)

    if Path(cobweb.__file__).resolve().parent != (SRC / "cobweb").resolve():
        print(f"error: cobweb imported from {cobweb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # references above 4300 digits

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as tmp:
        work = Path(tmp)
        if args.workload == "cli-session":
            ops = cli_session(args.seed, args.tiny, args.wrong_pin, work)
        else:
            build = {"construct-verify": construct_verify, "exact-count": exact_count,
                     "graph-clique": graph_clique}[args.workload]
            ops = build(args.seed, args.tiny, args.wrong_pin)
        setup_s = perf_counter() - args.t0
        samples = []
        for _ in range(SETUP_SAMPLES):
            start = perf_counter()
            yardstick_kernel()
            samples.append(perf_counter() - start)
        setup = {"setup_s": setup_s, "setup_yardstick_s": statistics.mean(samples)}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = measure(args, ops, work)
    result.update(setup)
    print(json.dumps(result))
    return 0


def measure(args, ops: list[Op], work: Path) -> dict:
    """Passes until --seconds have gone by.  With --trace 1 the passes
    alternate untraced and traced, so the run gives its own overhead."""
    tr = TR.Tracer() if args.trace else None
    yard = Yardstick()
    pass_times: dict[bool, list[list[float]]] = {False: [], True: []}
    layers: list[dict] = []
    failures: list[str] = []
    probe_outcomes: dict[str, list[str]] = {}
    reference: dict[str, tuple] = {}
    attempted = failed = 0
    started = perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            first_span = len(tr.spans)
            tr.counts.clear()
            before = TR.cache_snapshot()
            with tr.instrument():
                records = run_pass(ops, tr, index, None)
            after = TR.cache_snapshot()
        else:
            records = run_pass(ops, None, index, yard)
        pass_times[traced].append([rec[0] for rec in records])
        for op, (elapsed, problems, counts) in zip(ops, records):
            if counts is not None:
                if reference.setdefault(op.name, counts) != counts:
                    problems = problems + ["exact counts differ between passes"]
            if op.probe:
                probe_outcomes.setdefault(op.name, []).extend(problems)
                continue
            attempted += 1
            if problems:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"pass {index}: {op.name}: {'; '.join(problems)}")
        if traced:
            spans = tr.spans[first_span:]
            if args.workload == "cli-session":
                problems = render_probe(tr, work)
                attempted += 1
                failed += bool(problems)
                failures.extend(problems)
                spans = tr.spans[first_span:]
            figures = TR.layer_metrics(spans, tr.counts, before, after)
            figures["render.svg.bytes"] = tr.counts["render.svg.bytes"]
            cli_ms = {sub: [] for sub in CLI_SUBCOMMANDS}
            for span in spans:
                if span["name"].startswith("cli."):
                    cli_ms[span["name"][4:]].append(1000 * (span["end"] - span["start"]))
            for sub, times in cli_ms.items():
                figures[f"cli.{sub}.ms"] = statistics.median(times) if times else 0.0
            every = [t for times in cli_ms.values() for t in times]
            figures["cli.cmd_p50_ms"] = statistics.median(every) if every else 0.0
            figures["cli.boundary.failed"] = sum(
                1 for op, rec in zip(ops, records) if op.probe and rec[1])
            layers.append(figures)
        if index == 0:
            # later passes only add allocator fragmentation to the high-water mark
            peak_rss_kib = max(resource.getrusage(who).ru_maxrss for who in
                               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        index += 1
        enough = pass_times[False] and (pass_times[True] or not args.trace)
        if enough and perf_counter() - started >= args.seconds:
            break

    result = {"pass_times": pass_times[False], "traced_pass_times": pass_times[True],
              "attempted": attempted, "failed": failed, "failures": failures,
              "probes": {name: sorted(set(p)) for name, p in probe_outcomes.items()},
              "passes": index, "peak_rss_kib": peak_rss_kib, "yardstick": yard.samples,
              "local": [op.local for op in ops]}
    if tr is not None:
        result["layers"] = {key: statistics.median(f[key] for f in layers) for key in layers[0]}
        spans_path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": tr.spans}), encoding="utf-8")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


if __name__ == "__main__":
    sys.exit(main())
