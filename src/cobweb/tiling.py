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
once per node.  `_options` keeps the open virtual layers on an explicit
stack, so no construction is bounded by the interpreter's recursion limit.

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
from operator import or_

from .errors import CapExceeded, TilingFormatError
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
    MultiShape,
    PlainShape,
    ShapeFamily,
    bits,
    block_defects,
    block_family,
    block_from_json,
    build_layer,
    canonical_sigma,
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


class LowestLabels(ChoiceStrategy):
    """Deal batches in ascending label order; fully deterministic."""

    def assignments(self, verts, sizes):
        batches = []
        pos = 0
        for size in sizes:
            batches.append(verts[pos:pos + size])
            pos += size
        yield tuple(batches)


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
        batches = []
        pos = 0
        for size in sizes:
            batches.append(tuple(sorted(shuffled[pos:pos + size])))
            pos += size
        yield tuple(batches)


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


def _sorted_blocks(blocks) -> tuple[Block, ...]:
    return tuple(sorted(blocks, key=lambda b: b.levels))


# A block under construction: its vertex tuples, one per level of the
# (virtual) layer it tiles, bottom to top.
Levels = tuple[tuple[int, ...], ...]


def _assemble(layer: Layer, shape: ShapeFamily, raw: list[Levels]) -> tuple[Block, ...]:
    """Blocks from level tuples in physical order, sorted, each with its
    canonical sigma over the shape's base vector, found once per distinct
    cardinality vector."""
    values = shape_values(layer, shape)
    span = (layer.k, layer.n)
    sigmas: dict[tuple[int, ...], tuple[int, ...]] = {}
    blocks = []
    for levels in sorted(raw):
        cards = tuple(map(len, levels))
        sigma = sigmas.get(cards)
        if sigma is None:
            sigma = sigmas[cards] = canonical_sigma(values, cards)
        blocks.append(Block(span, levels, sigma))
    return tuple(blocks)


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


def _options(
    unit: int, levels: Levels, state, step, chooser: ChoiceStrategy
) -> Iterator[list[Levels]]:
    """All completions of a virtual layer into full-height blocks.

    `levels` holds the virtual layer's vertex tuples, bottom to top, and
    `step(state)` splits its top level as `_plain_step` or `_multi_step`
    does.  Each yielded option is one finished tiling of the virtual layer,
    a list of blocks given as level tuples in the virtual layer's order: a
    batch is appended to the blocks of the layer below it, and the blocks
    of a rotated batch's virtual layer, which starts with the batch, are
    rotated to end with it.  A single level is cut into groups of `unit`,
    1_F, vertices.  Options stream lazily; only sub-layer option lists are
    materialised (they are needed once per batch combination).  The open
    layers wait on an explicit stack, and the chooser is asked depth first.
    """
    # open layers, the whole layer first: [levels below the top, sub-states,
    # assignments left, the current one, its batches' option lists, options]
    stack: list[list] = []
    while True:
        if len(levels) == 1:
            verts = levels[0]
            done = [[(verts[i:i + unit],) for i in range(0, len(verts), unit)]]
        elif (plan := step(state)) is None:
            done = [[levels]]
        else:
            sizes, subs = plan
            stack.append([levels[:-1], subs, chooser.assignments(levels[-1], sizes), None, [], []])
            done = None
        # hand finished option lists up until a layer needs a batch's options
        while stack:
            frame = stack[-1]
            below, subs, deals, batches, per_batch, options = frame
            if done is not None:
                i = len(per_batch)
                if subs[i][1]:
                    per_batch.append([[blk[1:] + blk[:1] for blk in option] for option in done])
                else:
                    per_batch.append([[blk + (batches[i],) for blk in option] for option in done])
                done = None
            if batches is not None:
                i = len(per_batch)
                if i < len(batches):
                    sub, rotated = subs[i]
                    levels, state = ((batches[i],) + below if rotated else below), sub
                    break
                combos = ([blk for option in combo for blk in option]
                          for combo in itertools.product(*per_batch))
                if len(stack) == 1:
                    yield from combos
                else:
                    options += combos
                per_batch.clear()
            frame[3] = next(deals, None)
            if frame[3] is None:
                stack.pop()
                done = options
        else:
            yield from done  # the whole layer's, empty once streamed
            return


def _layer_options(layer: Layer, step, state, chooser: ChoiceStrategy) -> Iterator[list[Levels]]:
    """`_options` on the whole layer, its step cached for this construction."""
    F = layer.F
    levels = tuple(tuple(range(1, term(F, s) + 1)) for s in range(layer.k, layer.n + 1))
    cached = lru_cache(maxsize=None)(lambda sub: step(F, sub))
    return _options(term(F, 1), levels, state, cached, chooser)


def _construct(layer: Layer, shape: ShapeFamily, step, state,
               strategy: ChoiceStrategy | None, kind: str) -> Tiling:
    """The first option of a construction, assembled and labelled."""
    chooser = _construction_chooser(strategy)
    first = next(_layer_options(layer, step, state, chooser))
    label = type(chooser).__name__.lower()
    return Tiling(layer, _assemble(layer, shape, first), shape, f"{kind}:{label}")


def _construction_layer(F: FSequence, k: int, n: int) -> Layer:
    """The layer <k -> n>, refused if it is one level not split by 1_F."""
    layer = build_layer(F, k, n)
    if k == n and term(F, n) % term(F, 1):
        raise ValueError(f"level {n} has {term(F, n)} vertices, not a multiple of "
                         f"1_F = {term(F, 1)}, so the layer has no tiling")
    return layer


def construct_tiling(
    F: FSequence, k: int, n: int, strategy: ChoiceStrategy | None = None
) -> Tiling:
    """Build one tiling of <k -> n> by the recursive construction."""
    layer = _construction_layer(F, k, n)
    return _construct(layer, PlainShape(layer.m), _plain_step, (k, layer.m), strategy,
                      "construct")


def construct_multi_tiling(
    F: FSequence, n: int, parts, strategy: ChoiceStrategy | None = None
) -> Tiling:
    """Partition <1 -> n> into multi-blocks over the given composition."""
    parts = composition(parts)
    if sum(parts) != n:
        raise ValueError(f"composition {parts} does not sum to {n}")
    return _construct(build_layer(F, 1, n), MultiShape(parts), _multi_step, parts, strategy,
                      "construct-multi")


def enumerate_construction_tilings(F: FSequence, k: int, n: int) -> Iterator[Tiling]:
    """One tiling per exhaustive choice sequence, repeats included."""
    layer = _construction_layer(F, k, n)
    shape = PlainShape(layer.m)
    for option in _layer_options(layer, _plain_step, (k, layer.m), Exhaustive()):
        yield Tiling(layer, _assemble(layer, shape, option), shape, "construct:exhaustive")


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

# About the most bytes the memo of `enumerate_all_tilings` takes.  An entry
# is counted as its key's volume bits plus 128 bytes of dict slot, key and
# count objects (110 to 150 measured on CPython 3.11).  Past the budget
# lookups go on but nothing is added, so counts stay exact.
MEMO_BYTES = 1 << 26

# `enumerate_all_tilings` looks for its branch path among the lowest
# uncovered paths only, as many as it can count in about SCAN_WORDS
# 64-bit words of the live-block mask: every path up to about a thousand
# blocks, 148 paths at 7008 blocks, 8 at 10^5 blocks.  Each
# path looked at costs a pass over the mask, and on a large family a scan
# of every path costs more per node than it saves.  The lowest path is
# read first; the scan goes on past it, picking the next paths' block
# masks out of `on_path` in one C-level pass, only while the fewest found
# is 3 or more.
SCAN_WORDS = 1 << 14


# Maps the digits of `bin` to 0/1 selector bytes for `itertools.compress`.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _blocks_on_paths(layer: Layer, blocks) -> list[int]:
    """For each maximal path, in `path_masks` order, the bitmask of the
    blocks through it.

    A path lies in a block exactly when each of its vertices lies in the
    block's level, so per level each vertex gets the bitmask of the blocks
    holding it (set in byte rows, linear in the level incidences), and the
    paths' masks are prefix ANDs of those, the last level varying fastest.
    """
    width = (len(blocks) + 7) // 8
    on_path = [(1 << len(blocks)) - 1]
    for pos, size in enumerate(layer.level_sizes()):
        rows = [bytearray(width) for _ in range(size)]
        for b_idx, block in enumerate(blocks):
            byte, bit = b_idx >> 3, 1 << (b_idx & 7)
            for v in block.levels[pos]:
                rows[v - 1][byte] |= bit
        holders = [int.from_bytes(row, "little") for row in rows]
        on_path = [prefix & held for prefix in on_path for held in holders]
    return on_path


def _clash_mask(on_path: list[int], mask: int) -> int:
    """Bitmask of the blocks sharing a path with the block of path mask
    `mask` (the block included): the OR of `on_path` over its paths, in
    one C-level pass over the mask's bits as 0/1 bytes."""
    selectors = bin(mask)[:1:-1].encode().translate(_SELECTORS)
    return reduce(or_, itertools.compress(on_path, selectors), 0)


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

    Backtracking over the deduplicated block family on the path masks of
    `geometry.path_masks`.  `on_path`, the blocks through each path, is
    built by `_blocks_on_paths`: a per-level vertex index of the blocks,
    then prefix ANDs over the levels.  A block's clash mask, the blocks
    sharing a path with it, is the OR of `on_path` over its path mask
    (`_clash_mask`), never read from `geometry.overlap_masks`, so this
    oracle stays independent of the clique search.  The search carries
    the live blocks, those disjoint from the covered paths; taking a block
    drops every block in its clash mask.  It branches on the first
    uncovered path with at most 2 live blocks, or else on the one with
    the fewest (Knuth's Algorithm X rule), looking at only as many of the
    lowest uncovered paths as SCAN_WORDS allows and taking the lowest on
    a tie.

    The search is one loop over an explicit stack of open nodes, each
    with its covered bitmap, live mask, the total when it opened and an
    iterator over its branch blocks, so its depth is not bounded by the
    interpreter's recursion limit.  Each finished subtree's count is
    memoised on its covered bitmap when its node closes; the bitmap
    fixes the live set.  The first `limit` tilings reached are collected;
    the memo is read only once they are, since a hit skips a subtree's
    tilings.  The memo stops growing at about MEMO_BYTES; lookups go on,
    so the count stays exact.

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
    on_path = _blocks_on_paths(layer, blocks)
    # per block, the complement of its clash mask, built the first time
    # the block is taken (a complement is never 0)
    keep = [0] * len(masks)

    found: list[tuple[int, ...]] = []
    memo: dict[int, int] = {}
    room = MEMO_BYTES // (128 + volume // 8)
    scan_paths = max(1, SCAN_WORDS // (len(masks) // 64 + 1))
    total = 0
    nodes = 0

    # open nodes, root first: (covered, live, total before, branch blocks
    # left); chosen[i] is the block taken at stack[i]
    stack: list[tuple[int, int, int, Iterator[int]]] = []
    chosen: list[int] = []
    covered, live = 0, (1 << len(masks)) - 1
    while True:
        nodes += 1
        if nodes > node_budget:
            break
        if covered == full:
            total += 1
            if len(found) < limit:
                found.append(tuple(chosen))
        elif len(found) >= limit and (known := memo.get(covered)) is not None:
            total += known
        else:
            rest = ~covered & full
            low = rest & -rest
            branch = on_path[low.bit_length() - 1] & live
            fewest = branch.bit_count()
            # a 2-way branch can only be beaten by a dead end or a forced
            # move, and scanning on for one costs more than it saves, so
            # the first path with at most 2 live blocks is taken
            if fewest > 2:
                # the uncovered paths past the lowest, in one C-level pass
                # over the bits of `rest` as 0/1 bytes
                selectors = bin(rest)[:1:-1].encode().translate(_SELECTORS)
                window = itertools.islice(itertools.compress(on_path, selectors), 1, scan_paths)
                for held in window:
                    options = held & live
                    size = options.bit_count()
                    if size < fewest:
                        branch, fewest = options, size
                        if size < 3:
                            break
            stack.append((covered, live, total, bits(branch)))
            chosen.append(-1)
        # climb to the deepest open node with a branch block left, closing
        # (and memoising) the finished nodes on the way
        while stack:
            covered, live, before, pending = stack[-1]
            b_idx = next(pending, -1)
            if b_idx >= 0:
                break
            stack.pop()
            chosen.pop()
            if len(memo) < room:
                memo[covered] = total - before
        else:
            break
        if not keep[b_idx]:
            keep[b_idx] = ~_clash_mask(on_path, masks[b_idx])
        chosen[-1] = b_idx
        covered |= masks[b_idx]
        live &= keep[b_idx]

    tilings = tuple(
        Tiling(layer, _sorted_blocks(blocks[i] for i in pick), family, "exhaustive")
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
        if cards != sorted(shape_values(layer, kind)):
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
    len(cards) into parts of at most n, largest parts first, on an
    explicit stack, remembering the states that fail.  Part order is not
    recoverable and not needed (validation is multiset-based).
    """
    top = min(n, len(cards))
    needs = [Counter(term(F, i) for i in range(1, b + 1)) for b in range(top + 1)]
    failed: set = set()
    # open states: (values left, key, parts left to try, the part taken)
    stack: list[tuple] = []
    left, most = Counter(cards), top
    while left:
        state = (frozenset(left.items()), most)
        if state not in failed:
            stack.append((left, state, iter(range(min(left.total(), most), 0, -1)), 0))
        # climb to the deepest open state with a part that fits
        while stack:
            left, state, tries, _ = stack[-1]
            most = next((b for b in tries if needs[b] <= left), 0)
            if most:
                break
            stack.pop()
            failed.add(state)
        else:
            return None
        stack[-1] = (left, state, tries, most)
        left = left - needs[most]
    return tuple(frame[3] for frame in stack) or None
