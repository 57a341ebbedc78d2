"""Layer tilings: recursive construction, verification, counting, search.

The constructive tiler works on "virtual layers": tuples of level vertex
tuples, bottom to top, whose sizes follow the profile k'_F .. n'_F of
some span.  One recursion step splits the top level

    n'_F = lambda_K * (k'-1)_F + lambda_M * m_F        (m = n'-k'+1 levels)

into lambda_M batches of m_F vertices and lambda_K batches of (k'-1)_F
vertices.  Every m_F-batch becomes the top level of blocks finished in
the one-level-shorter sub-layer; every (k'-1)_F-batch is rotated below
the remaining levels, giving a virtual layer one span lower to tile with
full-height blocks.  Steps with a zero coefficient are skipped.  The
recursion bottoms out at single-level layers (split into groups of 1_F
vertices) and at spans starting at 1 (the whole layer is one block).
A block under construction is a tuple of level tuples in the order of its
virtual layer: an m_F-batch is appended to its sub-blocks, and the
sub-blocks of a rotated (k'-1)_F-batch are rotated back, so the blocks of
the whole layer come out in physical level order.

The multi-block tiler of <1 -> n> over a composition is the same
recursion with another step: the top level is dealt into lambda_s
batches of (b_s)_F vertices per part b_s, each finished over the parts
with b_s decremented, down to one part left (one block).  One generator,
`_options`, runs both; a step function (`_plain_step`, `_multi_step`)
gives the batch sizes and sub-states of a split, and each construction
caches it, so the lambda coefficients are worked out once per split, not
once per node.  `_options` is a recursion run by `geometry._unwind`, so
no construction is bounded by the interpreter's recursion limit.

Which vertices go into which batch is the only free choice; it is
delegated to a ChoiceStrategy.  The exhaustive strategy enumerates every
ordered batch assignment, which reproduces the construction-count
recurrence exactly; distinct tilings can be fewer, because sequences
with repeated terms let different choices assemble the same block set.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache, reduce
from math import factorial
from operator import lshift, or_, xor

from .coefficients import fnomial, multi_fnomial
from .errors import CapExceeded, CobwebError, TilingFormatError
from .fsequence import (
    FSequence,
    composition,
    lambda_composition,
    lambda_split,
    parse_family_spec,
    term,
)
from .geometry import (
    DEFAULT_BLOCK_CAP,
    DEFAULT_VOLUME_CAP,
    Block,
    Layer,
    Levels,
    MultiShape,
    PlainShape,
    ShapeFamily,
    _unwind,
    assemble_blocks,
    block_defects,
    block_family,
    block_from_json,
    build_layer,
    level_paths,
    overlapping_pairs,
    path_masks,
    shape_values,
)
from .record import Record


# ---------------------------------------------------------------------------
# Choice strategies
# ---------------------------------------------------------------------------

class ChoiceStrategy:
    """Decides how a level's vertices are dealt into ordered batches."""

    def assignments(self, verts: tuple[int, ...], sizes: tuple[int, ...]) -> Iterator[tuple]:
        raise NotImplementedError

    def fresh(self) -> "ChoiceStrategy":
        """Per-construction instance; stateful strategies reset here."""
        return self


def _deal(verts, sizes) -> list:
    """The vertices cut, in their order, into batches of the given sizes."""
    batches = []
    pos = 0
    for size in sizes:
        batches.append(verts[pos:pos + size])
        pos += size
    return batches


class LowestLabels(ChoiceStrategy):
    """Deal batches in ascending label order; fully deterministic."""

    def assignments(self, verts, sizes):
        yield tuple(_deal(verts, sizes))


class Seeded(ChoiceStrategy):
    """Pseudo-random single assignment, reproducible from the seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def fresh(self):
        return Seeded(self.seed)

    def assignments(self, verts, sizes):
        shuffled = list(verts)
        self._rng.shuffle(shuffled)
        yield tuple(tuple(sorted(batch)) for batch in _deal(shuffled, sizes))


class Exhaustive(ChoiceStrategy):
    """Every ordered batch assignment: the first batch varies slowest, and
    each batch is an ascending combination of the vertices left to it."""

    def assignments(self, verts, sizes):
        if not sizes:
            yield ()
            return
        deal: list[tuple[int, ...]] = []  # the batches taken at the open batches
        # open batches, the first first: (the vertices left to it, its combinations left)
        stack = [(verts, itertools.combinations(verts, sizes[0]))]
        while stack:
            left, batches = stack[-1]
            batch = next(batches, None)
            del deal[len(stack) - 1:]
            if batch is None:
                stack.pop()
            elif len(stack) == len(sizes):
                yield (*deal, batch)
            else:
                deal.append(batch)
                taken = set(batch)
                rest = tuple(v for v in left if v not in taken)
                stack.append((rest, itertools.combinations(rest, sizes[len(stack)])))


def _construction_chooser(strategy: ChoiceStrategy | None) -> ChoiceStrategy:
    """Fresh chooser for one construction, lowest labels by default.  A
    construction keeps only the first choice sequence, and the exhaustive
    strategy's first is the lowest-labels one, so that is used instead."""
    if strategy is None or isinstance(strategy, Exhaustive):
        strategy = LowestLabels()
    return strategy.fresh()


def parse_strategy(text: str) -> ChoiceStrategy:
    text = text.strip().lower()
    if text == "lowest":
        return LowestLabels()
    if text == "all":
        return Exhaustive()
    if text.startswith("seed:"):
        try:
            return Seeded(int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise ValueError(f"unknown strategy {text!r}")


# ---------------------------------------------------------------------------
# Tilings
# ---------------------------------------------------------------------------

class Tiling(Record):
    __slots__ = _fields = ("layer", "blocks", "kind", "provenance")

    def __init__(self, layer: Layer, blocks: tuple[Block, ...], kind: ShapeFamily,
                 provenance: str):
        self._init(layer, blocks, kind, provenance)

    def key(self) -> tuple:
        """Block-set identity, independent of sigma and provenance."""
        return tuple(sorted(block.levels for block in self.blocks))

    def to_json_obj(self) -> dict:
        return {
            "family": self.layer.F.spec_string(),
            "span": [self.layer.k, self.layer.n],
            "blocks": [block.to_json_obj() for block in self.blocks],
            "provenance": self.provenance,
        }


def _plain_step(F: FSequence, state: tuple[int, int]) -> tuple | None:
    """The split of the virtual layer of m levels from span lo, `state` =
    (lo, m): the batch sizes, and per batch its sub-state and whether it is
    rotated (the (lo-1)_F-batches are); None at lo = 1, one block."""
    lo, m = state
    if lo == 1:
        return None
    lam = lambda_split(F, lo - 1, m)
    sizes = (term(F, m),) * lam.lambda_m + (term(F, lo - 1),) * lam.lambda_k
    subs = (((lo, m - 1), False),) * lam.lambda_m + (((lo - 1, m), True),) * lam.lambda_k
    return sizes, subs


def _multi_step(F: FSequence, parts: tuple[int, ...]) -> tuple | None:
    """The split of <1 -> sum(parts)> over `parts` (zero parts are spent):
    the batch sizes, and per batch its sub-state, the parts with its own
    part decremented, never rotated; None when one part is left, one block."""
    active = [(i, b) for i, b in enumerate(parts) if b > 0]
    if len(active) == 1:
        return None
    lams = lambda_composition(F, tuple(b for _, b in active))
    sizes: list[int] = []
    subs: list[tuple] = []
    for (idx, b), lam in zip(active, lams):
        sizes += [term(F, b)] * lam
        subs += [(parts[:idx] + (b - 1,) + parts[idx + 1:], False)] * lam
    return tuple(sizes), tuple(subs)


def _whole(unit: int, levels: Levels, state, step) -> list[list[Levels]] | None:
    """The one option of a virtual layer that is not split, or None: a
    single level is cut into groups of `unit`, 1_F, vertices, and a layer
    that `step` leaves whole is one block."""
    if len(levels) == 1:
        verts = levels[0]
        return [[(verts[i:i + unit],) for i in range(0, len(verts), unit)]]
    return None if step(state) else [[levels]]


def _options(unit: int, levels: Levels, state, step, chooser: ChoiceStrategy) -> Iterator:
    """Under `_unwind`: all completions of a split virtual layer into
    full-height blocks, one iterator of them per batch assignment.

    `levels` holds the virtual layer's vertex tuples, bottom to top, and
    `step(state)` splits its top level as `_plain_step` or `_multi_step`
    does.  Each option is one finished tiling of the virtual layer, a list
    of blocks given as level tuples in the virtual layer's order: a batch
    is appended to the blocks of the layer below it, and the blocks of a
    rotated batch's virtual layer, which starts with the batch, are
    rotated to end with it.  A batch's layer is a sub-call only if it is
    split again (see `_whole`); its option list is materialised, as it is
    needed once per batch combination.  The chooser is asked depth first.
    """
    sizes, subs = step(state)
    below = levels[:-1]
    for batches in chooser.assignments(levels[-1], sizes):
        per_batch = []
        for batch, (sub, rotated) in zip(batches, subs):
            sub_levels = (batch,) + below if rotated else below
            options = _whole(unit, sub_levels, sub, step)
            if options is None:
                options = list(itertools.chain.from_iterable(
                    (yield _options(unit, sub_levels, sub, step, chooser))))
            if rotated:
                per_batch.append([[blk[1:] + blk[:1] for blk in option] for option in options])
            else:
                per_batch.append([[blk + (batch,) for blk in option] for option in options])
        yield map(list, map(itertools.chain.from_iterable, itertools.product(*per_batch)))


def _layer_options(layer: Layer, step, state, chooser: ChoiceStrategy) -> Iterator[list[Levels]]:
    """The options of the whole layer, streamed, its step cached for this
    construction."""
    F = layer.F
    unit = term(F, 1)
    levels = tuple(tuple(range(1, term(F, s) + 1)) for s in range(layer.k, layer.n + 1))
    cached = lru_cache(maxsize=None)(lambda sub: step(F, sub))
    whole = _whole(unit, levels, state, cached)
    if whole is not None:
        return iter(whole)
    return itertools.chain.from_iterable(_unwind(_options(unit, levels, state, cached, chooser)))


def _construct(layer: Layer, shape: ShapeFamily, step, state,
               strategy: ChoiceStrategy | None, kind: str) -> Tiling:
    """The first option of a construction, assembled and labelled."""
    chooser = _construction_chooser(strategy)
    first = next(_layer_options(layer, step, state, chooser))
    label = type(chooser).__name__.lower()
    return Tiling(layer, assemble_blocks(layer, shape, first), shape, f"{kind}:{label}")


def _construction_layer(F: FSequence, k: int, n: int) -> Layer:
    """The layer <k -> n>, refused if it is one level not split by 1_F."""
    layer = build_layer(F, k, n)
    if k == n and term(F, n) % term(F, 1):
        raise ValueError(f"level {n} has {term(F, n)} vertices, not a multiple of "
                         f"1_F = {term(F, 1)}, so the layer has no tiling")
    return layer


def _refuse_over_cap(count, block_cap: int) -> None:
    """Refuse a construction of more than `block_cap` blocks before any
    work; `count` gives its block count, an F-nomial.  An input whose
    count cannot be computed has no tiling, and the construction reports
    its error as it would without this check."""
    try:
        blocks = count()
    except CobwebError:  # a term off its table, or no integral count
        return
    if blocks > block_cap:
        raise CapExceeded(f"tiling has {blocks} blocks, over the cap {block_cap}")


def construct_tiling(
    F: FSequence, k: int, n: int, strategy: ChoiceStrategy | None = None, *,
    block_cap: int = DEFAULT_BLOCK_CAP,
) -> Tiling:
    """Build one tiling of <k -> n> by the recursive construction, refused
    over `block_cap` blocks."""
    layer = _construction_layer(F, k, n)
    _refuse_over_cap(lambda: fnomial(F, n, layer.m), block_cap)
    return _construct(layer, PlainShape(layer.m), _plain_step, (k, layer.m), strategy,
                      "construct")


def construct_multi_tiling(
    F: FSequence, n: int, parts, strategy: ChoiceStrategy | None = None, *,
    block_cap: int = DEFAULT_BLOCK_CAP,
) -> Tiling:
    """Partition <1 -> n> into multi-blocks over the given composition,
    refused over `block_cap` blocks."""
    parts = composition(parts)
    if sum(parts) != n:
        raise ValueError(f"composition {parts} does not sum to {n}")
    _refuse_over_cap(lambda: multi_fnomial(F, parts), block_cap)
    return _construct(build_layer(F, 1, n), MultiShape(parts), _multi_step, parts, strategy,
                      "construct-multi")


def enumerate_construction_tilings(F: FSequence, k: int, n: int) -> Iterator[Tiling]:
    """One tiling per exhaustive choice sequence, repeats included."""
    layer = _construction_layer(F, k, n)
    shape = PlainShape(layer.m)
    for option in _layer_options(layer, _plain_step, (k, layer.m), Exhaustive()):
        yield Tiling(layer, assemble_blocks(layer, shape, option), shape, "construct:exhaustive")


class ConstructionCensus(Record):
    __slots__ = _fields = ("sequences", "distinct")

    def __init__(self, sequences: int, distinct: int):
        self._init(sequences, distinct)


def construction_census(F: FSequence, k: int, n: int, *, limit: int = 1_000_000) -> ConstructionCensus:
    """Exhaustive-strategy counts: choice sequences and distinct tilings."""
    expected = count_construction_tilings(F, k, n)
    if expected > limit:
        raise CapExceeded(f"{expected} choice sequences exceed limit {limit}")
    layer = build_layer(F, k, n)
    sequences = 0
    distinct = set()
    for option in _layer_options(layer, _plain_step, (k, layer.m), Exhaustive()):
        sequences += 1
        distinct.add(tuple(sorted(option)))
    return ConstructionCensus(sequences, len(distinct))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

class VerificationReport(Record):
    __slots__ = _fields = ("valid", "violations")

    def __init__(self, valid: bool, violations: tuple[str, ...]):
        self._init(valid, violations)


def verify_tiling(tiling: Tiling, *, volume_cap: int = DEFAULT_VOLUME_CAP) -> VerificationReport:
    """Check block forms, disjointness, the path-count total, and (when the
    volume is small enough) the explicit path cover.

    Each defect of `geometry.block_defects` is reported as `block i: ...`;
    the path total and the explicit cover take only the blocks on the layer.
    Blocks that meet on each level (`geometry.overlapping_pairs`) share a
    maximal path; a block of another span is compared from the bottom.

    The pair pass runs only when it can report a pair: when the volume is
    over `volume_cap`, when some block is off the layer, or when the
    explicit cover found an overlap.  Otherwise every block was covered
    explicitly and the cover passed, so the path masks are pairwise
    disjoint and each has `path_count` bits (no level repeats a vertex);
    on-layer blocks share a maximal path exactly when their masks meet, so
    no pair exists and skipping the pass changes no report.
    """
    layer = tiling.layer
    volume = layer.volume()
    violations: list[str] = []

    kind = tiling.kind
    if isinstance(kind, PlainShape):
        kind = PlainShape(layer.m)  # the layer's profile, whatever kind.m says
    elif layer.k != 1:
        violations.append("multi tiling on a layer not starting at level 1")
    values = tuple(term(layer.F, v) for v in kind.base_vector())
    defects = list(block_defects(layer, values, tiling.blocks))
    violations += [f"block {i}: {defect}" for i, defect, _ in defects]
    off_layer = {i for i, _, on_layer in defects if not on_layer}
    blocks = [block for i, block in enumerate(tiling.blocks) if i not in off_layer]
    counts = [block.path_count() for block in blocks]

    total_paths = sum(counts)
    if total_paths != volume:
        violations.append(f"blocks cover {total_paths} paths, layer has {volume}")

    overlap = False
    if volume <= volume_cap:
        covered = 0
        for count, mask in zip(counts, path_masks(layer, blocks)):
            if covered & mask or mask.bit_count() != count:
                overlap = True
            covered |= mask
        if overlap:
            violations.append("explicit path sets overlap")
        if covered != (1 << volume) - 1:
            violations.append("explicit path sets do not cover the layer")

    if volume > volume_cap or off_layer or overlap:
        for i, j in overlapping_pairs(tiling.blocks):
            violations.append(f"blocks {i} and {j} share a maximal path")

    return VerificationReport(not violations, tuple(sorted(set(violations))))


# ---------------------------------------------------------------------------
# Construction count
# ---------------------------------------------------------------------------

def count_construction_tilings(F: FSequence, k: int, n: int) -> int:
    """Number of choice sequences of the recursive construction.

    Follows the construction tree exactly: the top level of <k -> n> is
    dealt into lambda_M batches of m_F and lambda_K batches of (k-1)_F
    vertices, each batch finishing an independent sub-construction, so

        count(k, n) = n_F! / ((m_F!)^lambda_M ((k-1)_F!)^lambda_K)
                      * count(k, n-1)^lambda_M * count(k-1, n-1)^lambda_K

    where the factorials are ordinary factorials of the term values (the
    leading factor is the multinomial dealing n_F labelled vertices into
    the batches).  Note this counts constructions; for sequences with
    repeated terms distinct choices can assemble identical tilings, so
    the number of distinct tilings can be strictly smaller.
    """
    _construction_layer(F, k, n)
    # row[lo - 1] = count(lo, lo + d), one row per d = hi - lo, updated in
    # place with lo ascending: count(lo, hi) reads count(lo, hi - 1) from
    # the row before and count(lo - 1, hi - 1) from this one
    row = [1] * k  # count(lo, lo) = 1, and count(1, hi) = 1 stays
    for d in range(1, n - k + 1):
        m = d + 1
        for lo in range(2, k + 1):
            # lambda_split checks that the batch sizes sum to (lo+d)_F, so
            # this quotient is a multinomial coefficient
            lam = lambda_split(F, lo - 1, m)
            ways = factorial(term(F, lo + d)) // (
                factorial(term(F, m)) ** lam.lambda_m
                * factorial(term(F, lo - 1)) ** lam.lambda_k
            )
            row[lo - 1] = ways * row[lo - 1] ** lam.lambda_m * row[lo - 2] ** lam.lambda_k
    return row[k - 1]


# ---------------------------------------------------------------------------
# Exhaustive tiling enumeration (exact cover oracle)
# ---------------------------------------------------------------------------

# About the most bytes a search memo takes (see `memo_room`).
MEMO_BYTES = 1 << 26


def memo_room(width: int) -> int:
    """How many entries a search memo keyed on sets of `width` bits
    takes: about MEMO_BYTES, an entry counted as its key's bits plus 128
    bytes of dict slot, key and value objects (110 to 150 measured on
    CPython 3.11).  Both the exact cover and the size-d clique search
    store a finished subtree only while their memo holds fewer; a full
    memo takes no entry, and a miss only costs nodes, so answers stay
    exact."""
    return MEMO_BYTES // (128 + width // 8)


def _blocks_on_paths(layer: Layer, blocks) -> tuple[list[int], list[list[int]]]:
    """For each maximal path, in `path_masks` order, the bitmask of the
    blocks through it; and per level, the bitmask of the blocks holding
    each vertex, vertex v at index v.

    Per level, each block sets its bit in the byte row of its subset
    there, and a vertex's mask is the OR of the rows of the subsets
    holding it, so each distinct subset is walked once.  A path lies in a
    block exactly when each of its vertices lies in the block's level, so
    the paths' masks are prefix ANDs of the vertex masks, the last level
    varying fastest.
    """
    width = (len(blocks) + 7) // 8
    on_path = [(1 << len(blocks)) - 1]
    holders = []
    for pos, size in enumerate(layer.level_sizes()):
        rows: dict[tuple[int, ...], bytearray] = {}
        for b_idx, block in enumerate(blocks):
            level = block.levels[pos]
            row = rows.get(level)
            if row is None:
                row = rows[level] = bytearray(width)
            row[b_idx >> 3] |= 1 << (b_idx & 7)
        held = [0] * (size + 1)
        for level, row in rows.items():
            mask = int.from_bytes(row, "little")
            for v in level:
                held[v] |= mask
        on_path = [prefix & through for prefix in on_path for through in held[1:]]
        holders.append(held)
    return on_path, holders


def level_slicers(layer: Layer) -> list[tuple[int, tuple[int, ...]]]:
    """Per level of two or more vertices, top level first: the paths
    through vertex 1, `first`, and the shift (v - 1) * stride of each
    vertex v, in `path_masks` order (`geometry.level_paths`)."""
    return [(first, tuple(range(0, size * stride, stride)))
            for size, stride, first in reversed(level_paths(layer)) if size > 1]


def orbit_key(covered: int, slicers: list[tuple[int, tuple[int, ...]]]) -> int:
    """The image of a path bitmap under one relabelling of the vertices
    inside each level: level by level (`level_slicers`), its vertices'
    slices, the covered paths through each, brought down to vertex 1,
    sorted in descending order and put back in that order.  Every step
    relabels one level, so the key is g * covered for some relabelling g.
    The exact cover branches on the lowest uncovered path, so every path
    below it is covered.  The bottom level's digit varies slowest, so its
    vertices' paths are runs in that order: the lowest vertices' slices
    are full, the largest a slice can be (relabelling the levels above
    keeps a run in place), and lead already.  A level whose slices are
    in order already is left where it is."""
    for first, shifts in slicers:
        slices = [covered >> shift & first for shift in shifts]
        ordered = sorted(slices, reverse=True)
        if ordered != slices:
            covered = sum(map(lshift, ordered, shifts))
    return covered


def _blocks_meeting(holders: list[list[int]], levels: Levels) -> int:
    """Bitmask of the blocks sharing a path with the block of these level
    subsets (the block included), from the per-level vertex masks of
    `_blocks_on_paths`.  The block's paths are the product of its levels,
    so the OR over its paths of the blocks through each is the AND over
    its levels of the blocks holding one of its vertices there."""
    meet = -1
    for held, level in zip(holders, levels):
        meet &= reduce(or_, map(held.__getitem__, level), 0)
    return meet


class TilingSearchResult(Record):
    """Outcome of the exact-cover search.

    `complete` means the whole search space was traversed: the total is
    exact, and total == 0 certifies that no tiling exists.  `states` is
    the number of subtree counts the search memoised.
    """

    __slots__ = _fields = ("tilings", "total", "complete", "nodes", "states")

    def __init__(self, tilings: tuple[Tiling, ...], total: int, complete: bool, nodes: int,
                 states: int = 0):
        self._init(tilings, total, complete, nodes, states)


def enumerate_all_tilings(
    layer: Layer,
    family: ShapeFamily,
    *,
    limit: int = 10_000,
    node_budget: int = 2_000_000,
    volume_cap: int = DEFAULT_VOLUME_CAP,
    block_cap: int = DEFAULT_BLOCK_CAP,
) -> TilingSearchResult:
    """Every tiling of the layer by blocks of the family, by exact cover.

    Backtracking over the blocks of `block_family` on the path masks of
    `geometry.path_masks`.  `_blocks_on_paths` builds, per level, the
    mask of the blocks holding each vertex, and from those `on_path`, the
    blocks through each path, as prefix ANDs over the levels.  A block's
    clash mask, the blocks sharing a path with it, is the AND over its
    levels of the OR of its vertices' masks (`_blocks_meeting`), built
    the first time the block is taken.  Both come from this module's own
    per-level masks, never from `geometry.overlap_masks`, so this oracle
    stays independent of the clique search.  The search carries
    the live blocks, those disjoint from the covered paths; taking a block
    drops every block in its clash mask.  Every node branches on the
    lowest uncovered path, trying its live blocks in family order.

    The search is one loop over an explicit stack of open nodes, each
    with its covered bitmap, its orbit key, live mask, the total when it
    opened and the mask of its branch blocks left, so its depth is not
    bounded by the interpreter's recursion limit.  A collected tiling's
    blocks are read off the stack, each the paths one node adds to the
    one above it.  Each finished subtree's count is memoised when its
    node closes, on the orbit key of its covered bitmap (`orbit_key`),
    computed once when the node opens: the bitmap relabelled inside each
    level, by sorting that level's vertices by the covered paths through
    them.  The family takes every
    level subset of the right sizes, so any relabelling inside the levels
    maps blocks to blocks and tilings to tilings, and a covered set has
    as many completions as its image; any relabelling keeps the count
    exact, and no canonical form is needed.  The key is built from the
    level sizes and the bitmap only.  The first `limit` tilings reached
    are collected; the memo is read only once they are, since a hit
    skips a subtree's tilings.  Once the memo holds `memo_room(volume)`
    entries it is full: no key is computed and none is read, so the count
    stays exact and a miss costs only nodes.

    Every node visited is counted, leaves and memo hits included, and the
    search stops (complete=False) at the first node over `node_budget`.
    The total then counts the tilings of every finished subtree, a lower
    bound.
    """
    volume = layer.volume()
    if volume > volume_cap:
        raise CapExceeded(f"volume {volume} exceeds cap {volume_cap}")
    blocks = block_family(layer, family, block_cap=block_cap).blocks
    full = (1 << volume) - 1
    masks = path_masks(layer, blocks)
    on_path, holders = _blocks_on_paths(layer, blocks)
    # per block, the complement of its clash mask, built the first time
    # the block is taken (a complement is never 0)
    keep = [0] * len(masks)

    slicers = level_slicers(layer)

    found: list[tuple[int, ...]] = []
    # each block by its path mask, to read a collected tiling off the stack
    block_at = {mask: i for i, mask in enumerate(masks)} if limit else {}
    memo: dict[int, int] = {}
    room = memo_room(volume)
    total = 0
    nodes = 0

    # open nodes, root first: [covered, its orbit key or None, live, total
    # before, branch blocks left as a mask]
    stack: list[list] = []
    # a full memo takes no entry, so its keys are neither computed nor read
    keyed = room > 0
    covered, live = 0, (1 << len(masks)) - 1
    while True:
        nodes += 1
        if nodes > node_budget:
            break
        # an internal node's key, kept in its frame for its memo entry
        key = orbit_key(covered, slicers) if keyed and covered != full else None
        if covered == full:
            total += 1
            if len(found) < limit:
                # the block taken at each open node is what it adds to the next
                steps = [frame[0] for frame in stack] + [covered]
                found.append(tuple(map(block_at.__getitem__, map(xor, steps, steps[1:]))))
        elif key is not None and len(found) >= limit and (known := memo.get(key)) is not None:
            total += known
        else:
            low = ~covered & (covered + 1)  # the lowest uncovered path
            branch = on_path[low.bit_length() - 1] & live
            stack.append([covered, key, live, total, branch])
        # climb to the deepest open node with a branch block left, closing
        # (and memoising) the finished nodes on the way
        while stack:
            frame = stack[-1]
            pending = frame[4]
            if pending:
                break
            stack.pop()
            if keyed:  # so the node has its key
                memo[frame[1]] = total - frame[3]
                keyed = len(memo) < room
        else:
            break
        low = pending & -pending
        frame[4] = pending ^ low
        b_idx = low.bit_length() - 1
        clash = keep[b_idx]
        if not clash:
            clash = keep[b_idx] = ~_blocks_meeting(holders, blocks[b_idx].levels)
        covered = frame[0] | masks[b_idx]
        live = frame[2] & clash

    tilings = tuple(  # the family is sorted, so its blocks at sorted indices are too
        Tiling(layer, tuple(blocks[i] for i in sorted(pick)), family, "exhaustive")
        for pick in found
    )
    return TilingSearchResult(tilings, total, nodes <= node_budget, nodes, len(memo))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def tiling_from_json(obj) -> Tiling:
    """Rebuild a tiling from its JSON object, blocks in file order.

    The shape kind is inferred from block 0's level cardinalities: multi
    when the layer starts at 1 and they fit a composition other than (m),
    plain otherwise.  A missing field, or one of the wrong type, raises
    TilingFormatError."""
    _check_tiling_json(obj)
    F = parse_family_spec(obj["family"])
    k, n = obj["span"]
    layer = build_layer(F, k, n)
    blocks = tuple(block_from_json(b) for b in obj["blocks"])

    kind: ShapeFamily = PlainShape(layer.m)
    if blocks and k == 1:
        cards = sorted(blocks[0].level_cardinalities())
        if len(cards) != layer.m or cards != sorted(shape_values(layer, kind)):
            parts = _parts_from_cardinalities(F, n, cards)
            if parts is not None:
                kind = MultiShape(parts)
    return Tiling(layer, blocks, kind, obj.get("provenance", ""))


def _ints(value, length: int | None = None) -> bool:
    """Whether a JSON value is a list of integers (of the given length)."""
    return isinstance(value, list) and length in (None, len(value)) and all(
        type(v) is int for v in value)


def _check_tiling_json(obj) -> None:
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise TilingFormatError(f"malformed tiling: {what}")

    need(isinstance(obj, dict), "not a JSON object")
    need(isinstance(obj.get("family"), str), '"family" must be a string')
    need(_ints(obj.get("span"), 2), '"span" must be two integers')
    need(isinstance(obj.get("blocks"), list), '"blocks" must be a list')
    for i, block in enumerate(obj["blocks"]):
        need(isinstance(block, dict), f"block {i} is not an object")
        need(_ints(block.get("span"), 2), f'block {i}: "span" must be two integers')
        levels = block.get("levels")
        need(isinstance(levels, list) and all(_ints(level) for level in levels),
             f'block {i}: "levels" must be lists of integers')
        need(_ints(block.get("sigma")), f'block {i}: "sigma" must be a list of integers')


def _parts_from_cardinalities(F: FSequence, n: int, cards: list[int]) -> tuple[int, ...] | None:
    """A composition whose base vector has these term values as a multiset,
    or None if there is none.

    Part b contributes term(1..b), so this searches the partitions of
    len(cards) into parts of at most n, largest parts first, remembering
    the states that fail.  Part order is not recoverable and not needed
    (validation is multiset-based).
    """
    terms = [term(F, i) for i in range(1, min(n, len(cards)) + 1)]
    parts: list[int] = []
    next(_unwind(_parts_search(terms, set(), Counter(cards), len(terms), parts)), None)
    return tuple(parts) or None


def _parts_search(terms: list[int], failed: set, left: Counter, most: int,
                  parts: list[int]) -> Iterator:
    """Under `_unwind`: yields True once `parts` ends with parts of at
    most `most`, largest first, whose values term(1..b) make up `left`, if
    there are such; a state with none is added to `failed`, and `parts` is
    left as it was.  A part's values hold those of every smaller part, so
    one scan takes term(1), term(2), ... out of the shared `left` while
    each is there, up to the largest part that fits; each smaller part
    tried gives one value back, so `left` is whole again when the state
    fails.  The search stops at its first answer, so the parts are built
    in one list, one append per level."""
    total = left.total()
    if not total:
        yield True
        return
    state = (frozenset(item for item in left.items() if item[1]), most)
    if state in failed:
        return
    b, top = 0, min(total, most)
    while b < top and left[terms[b]]:
        left[terms[b]] -= 1
        b += 1
    while b:
        parts.append(b)
        if (yield _parts_search(terms, failed, left, b, parts)):
            yield True
            return
        parts.pop()
        b -= 1
        left[terms[b]] += 1
    failed.add(state)
