"""The block graph of a layer and its clique picture of tilings.

Vertices are the distinct blocks of the layer, edges join max-disjoint
pairs.  A tiling is then exactly a clique of size d = (n over m)_F, and
every such clique is maximal, so counting tilings is counting size-d
cliques.  Everything is deterministic: blocks carry a canonical order
and searches expand candidates in that order.
"""

from __future__ import annotations

import json

from .coefficients import fnomial
from .errors import SearchBudgetExceeded
from .fsequence import FSequence
from .geometry import (
    DEFAULT_BLOCK_CAP,
    Block,
    Layer,
    PlainShape,
    bits,
    block_family,
    build_layer,
    overlap_masks,
)
from .record import Record
from . import tiling as tiling_module
from .tiling import Tiling, _sorted_blocks, verify_tiling


class BlockCountReport(Record):
    __slots__ = _fields = ("pair_count", "distinct_count")

    def __init__(self, pair_count: int, distinct_count: int):
        self._init(pair_count, distinct_count)


def block_count_formula(
    F: FSequence, k: int, n: int, *, block_cap: int = DEFAULT_BLOCK_CAP
) -> BlockCountReport:
    """Size of the block family of <k -> n>, in both counting semantics.

    The pair count (`geometry.pair_count`) sums, over all orientation
    permutations of the m block levels, the ways to choose the level
    subsets; when the sequence repeats terms, distinct orientations can
    describe the same vertex data, so the deduplicated count can be
    smaller.
    """
    layer = build_layer(F, k, n)
    family = block_family(layer, PlainShape(layer.m), block_cap=block_cap)
    return BlockCountReport(family.pair_count, len(family.blocks))


class BlockGraph(Record):
    """Simple undirected graph on the deduplicated block family.

    adjacency[i] is a bitmask over vertex indices; bit j is set exactly
    when blocks i and j are max-disjoint.  d is the clique size a tiling
    must have.
    """

    __slots__ = _fields = ("layer", "blocks", "adjacency", "d")

    def __init__(self, layer: Layer, blocks: tuple[Block, ...], adjacency: tuple[int, ...],
                 d: int):
        self._init(layer, blocks, adjacency, d)

    def vertex_count(self) -> int:
        return len(self.blocks)

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2


def build_block_graph(layer: Layer, *, block_cap: int = DEFAULT_BLOCK_CAP) -> BlockGraph:
    """Block graph of the layer; adjacency is the complement of the
    level-incidence index of `geometry.overlap_masks`."""
    blocks = block_family(layer, PlainShape(layer.m), block_cap=block_cap).blocks
    everyone = (1 << len(blocks)) - 1
    adjacency = tuple(
        everyone & ~(overlap | 1 << i) for i, overlap in enumerate(overlap_masks(blocks))
    )
    d = fnomial(layer.F, layer.n, layer.m)
    return BlockGraph(layer, blocks, adjacency, d)


class CliqueSearchResult(Record):
    """Cliques found, whether the search finished, and its work: `nodes`
    counts the candidates tried, the remainder hits and the memoised
    edges replayed (see `_size_d_cliques`), `states` the finished
    subtrees memoised, each a node of the shared DAG of their cliques."""

    __slots__ = _fields = ("cliques", "complete", "nodes", "states")

    def __init__(self, cliques: tuple[tuple[int, ...], ...], complete: bool, nodes: int,
                 states: int = 0):
        self._init(cliques, complete, nodes, states)


class CliqueCountResult(Record):
    """Number of size-d cliques; a lower bound when complete=False.
    `nodes` counts the candidates tried and the remainder hits, `states`
    the finished subtrees memoised (see `_size_d_cliques`)."""

    __slots__ = _fields = ("total", "complete", "nodes", "states")

    def __init__(self, total: int, complete: bool, nodes: int, states: int = 0):
        self._init(total, complete, nodes, states)


# Bytes a memoised listing entry is counted per edge, on top of the 128
# plus V/8 of any entry: its two tuple slots and a share of the tuple and
# of the vertex ints, which every entry shares.  36 to 50 bytes measured
# with tracemalloc on CPython 3.11 (natural <4->5>, <2->5> and <3->5>).
EDGE_BYTES = 48

# The memo entry of a listing subtree that holds no clique, shared by all.
_DEAD = ()

# What a listing subtree gives its parent when its entry was not stored.
_LOST = object()


def _replay(node: tuple, base: tuple, out: list, limit: int, nodes: int,
            node_budget: int) -> int:
    """Append the cliques of a memoised listing node under the prefix
    `base` to `out` and return `nodes` plus one per edge replayed, up to
    the first node over `node_budget` or the `limit`-th clique."""
    stack = [(base, iter(node))]  # open nodes: (prefix, edge pairs left)
    while stack:
        base, pairs = stack.pop()
        for v in pairs:
            child = next(pairs)
            nodes += 1
            if nodes > node_budget:
                return nodes
            clique = base + (v,)
            while child is not None and len(child) == 2:  # a single-edge node
                v, child = child
                nodes += 1
                if nodes > node_budget:
                    return nodes
                clique += (v,)
            if child is not None:
                stack += (base, pairs), (clique, iter(child))
                break
            out.append(clique)
            if len(out) == limit:
                return nodes
    return nodes


def _size_d_cliques(
    graph: BlockGraph, d: int | None, node_budget: int, limit: int | None
) -> tuple[list[tuple[int, ...]], CliqueCountResult]:
    """Cliques of exactly size d in canonical order, by a depth-first
    extension over candidates above the last vertex taken, one loop over
    an explicit stack of open nodes: the first `limit` of them (all for
    limit=0), or none but their number for limit=None, together with the
    count and the work done.

    A node is one candidate tried as the next vertex of a prefix.  The
    sibling loop stops as soon as the candidates left could no longer
    complete the clique, and a node whose own candidates are too few is
    not expanded.  complete=False means the node budget ran out first;
    the total then counts the cliques of every finished subtree.

    The size-`need` cliques in a candidate set depend on the set and the
    adjacency only, so every finished subtree is memoised in one dict per
    `need`, keyed by the candidate bitmask.  A count stores the subtree's
    number of cliques, and a hit adds it.  A listing stores the subtree
    as a node of a shared DAG of its cliques (as DXZ stores exact-cover
    subtrees): a flat tuple `(v, child, v, child, ...)` of the vertices
    taken at that level that lead to a clique, in order, each followed by
    its child's node, or by None where the vertex finishes a clique.
    Every subtree with no clique shares the empty node.  A hit replays
    the node under the current prefix (`_replay`), which appends the same
    cliques in the same order as searching it again; each replayed edge
    is a node, so the budget bounds the work and the output alike.  The
    sibling loop reads the memo itself and opens a node only on a miss,
    and a replay follows a run of single-edge nodes in one loop.

    The rest of a sibling loop finds exactly the size-`need` cliques of
    the candidates left, so after each candidate, while the loop would go
    on, it looks those up in its own `need`'s dict.  On a hit (a remainder
    hit, one node) the loop ends: a count adds the entry's number, and a
    listing replays the entry under the prefix and appends its edges to
    the node's own, which then stores what the whole loop would have.

    The memo stops growing at about `tiling.MEMO_BYTES`: an entry is
    counted as 128 bytes plus V/8, and a listing entry EDGE_BYTES more per
    edge.  An entry that does not fit is not stored, and in a listing no
    subtree holding a clique is stored after that, since its node could
    refer to the one left out.  Lookups go on, so answers stay exact.
    """
    want = graph.d if d is None else d
    if want < 0:
        raise ValueError(f"clique size must be >= 0, got {want}")
    collect = limit is not None
    if not want:  # the empty clique
        return [()] if collect else [], CliqueCountResult(1, True, 0)
    adjacency = graph.adjacency
    vertex = tuple(range(graph.vertex_count()))  # one int per vertex for every entry
    out: list[tuple[int, ...]] = []
    memo: list[dict] = [{} for _ in range(want + 1)]
    entry_bytes = 128 + graph.vertex_count() // 8
    cap = tiling_module.MEMO_BYTES
    total = nodes = states = spent = 0
    full = False

    # the open node: candidates, memo of its need, total at opening, edges,
    # candidates left, how many, its children's need and their memo
    cand = rest = (1 << graph.vertex_count()) - 1
    table, before, edges, left, need = memo[want], 0, [], graph.vertex_count(), want - 1
    below = memo[need]
    stack: list[tuple] = []  # the open nodes above it; prefix[i] was taken at stack[i]
    prefix: list[int] = []
    while True:
        while left > need:
            # the rest of the loop would build the entry of `rest` (on a
            # node's first candidate that is its own entry, not stored yet)
            hit = table.get(rest)
            if hit is not None:
                nodes += 1
                if nodes > node_budget:
                    break
                if not collect:
                    total += hit
                elif hit:
                    nodes = _replay(hit, tuple(prefix), out, limit, nodes, node_budget)
                    if nodes > node_budget or len(out) == limit:
                        break
                    edges += hit
                left = need
                continue
            left -= 1
            nodes += 1
            if nodes > node_budget:
                break
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nxt = rest & adjacency[v]
            if nxt.bit_count() >= need:
                child = below.get(nxt)
                if child is None:
                    if need:  # open the node of v
                        stack.append((cand, table, below, before, edges, rest, left, need))
                        prefix.append(v)
                        cand = rest = nxt
                        table, before, edges, left, need = below, total, [], nxt.bit_count(), need - 1
                        below = memo[need]
                        continue
                    total += 1  # v finishes a clique
                    if collect:
                        out.append((*prefix, v))
                        if len(out) == limit:
                            break
                elif not collect:
                    total += child
                elif child:
                    nodes = _replay(child, (*prefix, v), out, limit, nodes, node_budget)
                    if nodes > node_budget or len(out) == limit:
                        break
                if collect and child is not _DEAD:
                    edges += vertex[v], child
        else:
            # the sibling loop is over: memoise the node and close it
            child = tuple(edges) if edges else _DEAD if collect else total - before
            cost = entry_bytes + EDGE_BYTES * (len(edges) >> 1)
            if spent + cost <= cap and not (full and edges):
                table[cand] = child
                spent += cost
                states += 1
            elif edges:
                full = True
                child = _LOST
            if stack:
                cand, table, below, before, edges, rest, left, need = stack.pop()
                v = prefix.pop()
                if collect and child is not _DEAD:
                    edges += vertex[v], child
                continue
        break  # the root closed, or a limit or a budget stop
    return out, CliqueCountResult(len(out) if collect else total, nodes <= node_budget,
                                  nodes, states)


def find_clique(
    graph: BlockGraph, d: int | None = None, *, node_budget: int = 2_000_000
) -> tuple[int, ...] | None:
    """First clique of size d in canonical order, or None if none exists.

    If the node budget is exhausted before the search is decided,
    SearchBudgetExceeded is raised so the caller never mistakes an
    interrupted search for a proof of absence.
    """
    cliques, run = _size_d_cliques(graph, d, node_budget, 1)
    if cliques:
        return cliques[0]
    if not run.complete:
        raise SearchBudgetExceeded(f"clique search exceeded {node_budget} nodes")
    return None


def enumerate_size_d_cliques(
    graph: BlockGraph, d: int | None = None, *, node_budget: int = 5_000_000
) -> CliqueSearchResult:
    """All cliques of exactly size d, each reported once, sorted."""
    cliques, run = _size_d_cliques(graph, d, node_budget, 0)
    return CliqueSearchResult(tuple(cliques), run.complete, run.nodes, run.states)


def count_size_d_cliques(
    graph: BlockGraph, d: int | None = None, *, node_budget: int = 5_000_000
) -> CliqueCountResult:
    """Number of cliques of exactly size d, by the same search without
    listing them, so that every finished subtree's count is reused."""
    return _size_d_cliques(graph, d, node_budget, None)[1]


def enumerate_maximal_cliques(
    graph: BlockGraph, *, node_budget: int = 5_000_000
) -> CliqueSearchResult:
    """All maximal cliques (Bron-Kerbosch with pivoting), sorted, by one
    loop over an explicit stack of open nodes."""
    out: list[tuple[int, ...]] = []
    nodes = 0
    # open nodes, root first: (candidates, excluded, branch vertices left, vertex taken)
    stack: list[tuple] = []
    p, x = (1 << graph.vertex_count()) - 1, 0
    while True:
        nodes += 1
        if nodes > node_budget:
            break
        if p == 0 and x == 0:
            out.append(tuple(frame[3] for frame in stack))
        else:
            # pivot: candidate with the most neighbours inside p, lowest index wins
            pivot, best = -1, -1
            for u in bits(p | x):
                size = (p & graph.adjacency[u]).bit_count()
                if size > best:
                    pivot, best = u, size
            stack.append((p, x, bits(p & ~graph.adjacency[pivot]), -1))
        # climb to the deepest open node with a branch vertex left
        while stack:
            p, x, pending, _ = stack[-1]
            v = next(pending, -1)
            if v >= 0:
                break
            stack.pop()
        else:
            break
        stack[-1] = (p & ~(1 << v), x | 1 << v, pending, v)
        p &= graph.adjacency[v]
        x &= graph.adjacency[v]
    return CliqueSearchResult(tuple(sorted(out)), nodes <= node_budget, nodes)


def clique_to_tiling(graph: BlockGraph, clique) -> Tiling:
    """Read a clique as a tiling; rejects vertex sets that are no clique."""
    clique = tuple(sorted(set(clique)))
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            if not (graph.adjacency[a] >> b) & 1:
                raise ValueError(f"vertices {a} and {b} are not adjacent")
    blocks = _sorted_blocks(graph.blocks[v] for v in clique)
    return Tiling(graph.layer, blocks, PlainShape(graph.layer.m), "clique")


def tiling_to_clique(graph: BlockGraph, tiling: Tiling, *, check: bool = True) -> tuple[int, ...]:
    """Vertex indices of a valid tiling's blocks; the round trip with
    clique_to_tiling is the identity on both sides.

    check=False skips the tiling re-verification (for bulk round trips
    over cliques that were just enumerated from the graph itself).
    """
    if check:
        report = verify_tiling(tiling)
        if not report.valid:
            raise ValueError(f"not a valid tiling: {report.violations}")
    index_of = {block.levels: idx for idx, block in enumerate(graph.blocks)}
    try:
        return tuple(sorted(index_of[block.levels] for block in tiling.blocks))
    except KeyError as exc:
        raise ValueError(f"tiling block not in graph: {exc}") from exc


def block_label(block: Block) -> str:
    """Stable short hash of the block's canonical serialization."""
    import hashlib  # only DOT export hashes; graph builds skip its import

    payload = json.dumps(block.to_json_obj(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:10]


def to_dot(graph: BlockGraph) -> str:
    """DOT export with vertices labelled by block serialization hash."""
    lines = ["graph blockgraph {"]
    for idx, block in enumerate(graph.blocks):
        lines.append(f'  v{idx} [label="{block_label(block)}"];')
    for i, adjacent in enumerate(graph.adjacency):
        for j in bits(adjacent >> i + 1):
            lines.append(f"  v{i} -- v{i + 1 + j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
