"""Layer tilings: recursive construction, verification, counting, search.

The constructive tiler works on "virtual layers": lists of (physical
level, vertex set) pairs whose sizes follow the profile k'_F .. n'_F of
some span.  One recursion step splits the top level

    n'_F = lambda_K * (k'-1)_F + lambda_M * m_F        (m = n'-k'+1 levels)

into lambda_M batches of m_F vertices and lambda_K batches of (k'-1)_F
vertices.  Every m_F-batch becomes the top level of blocks finished in
the one-level-shorter sub-layer; every (k'-1)_F-batch is rotated below
the remaining levels, giving a virtual layer one span lower to tile with
full-height blocks.  Steps with a zero coefficient are skipped.  The
recursion bottoms out at single-level layers (split into groups of 1_F
vertices) and at spans starting at 1 (the whole layer is one block).

The multi-block tiler peels the top level of <1 -> n> the same way, one
batch group per composition part, recursing on the decremented part.

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
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial
from operator import or_
from typing import Iterator, Optional

from .errors import CapExceeded, SearchBudgetExceeded, TilingFormatError
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

    def __init__(self, seed: int, _rng: Optional[random.Random] = None):
        self.seed = seed
        self._rng = _rng

    def fresh(self):
        return Seeded(self.seed, random.Random(self.seed))

    def assignments(self, verts, sizes):
        rng = self._rng if self._rng is not None else random.Random(self.seed)
        shuffled = list(verts)
        rng.shuffle(shuffled)
        batches = []
        pos = 0
        for size in sizes:
            batches.append(tuple(sorted(shuffled[pos:pos + size])))
            pos += size
        yield tuple(batches)


class Exhaustive(ChoiceStrategy):
    """Every ordered batch assignment, lexicographic."""

    def assignments(self, verts, sizes):
        def rec(pool: tuple[int, ...], remaining: tuple[int, ...]):
            if not remaining:
                yield ()
                return
            for batch in itertools.combinations(pool, remaining[0]):
                taken = set(batch)
                rest_pool = tuple(v for v in pool if v not in taken)
                for tail in rec(rest_pool, remaining[1:]):
                    yield (batch,) + tail

        yield from rec(tuple(verts), tuple(sizes))


def _construction_chooser(strategy: Optional[ChoiceStrategy]) -> ChoiceStrategy:
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

@dataclass(frozen=True)
class Tiling:
    layer: Layer
    blocks: tuple[Block, ...]
    kind: ShapeFamily
    provenance: str

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


def _assemble(layer: Layer, shape: ShapeFamily, raw) -> tuple[Block, ...]:
    """Blocks from {physical level: vertex tuple} maps, sorted, each with
    its canonical sigma over the shape's base vector."""
    values = shape_values(layer, shape)
    blocks = []
    for mapping in raw:
        levels = tuple(mapping[s] for s in range(layer.k, layer.n + 1))
        sigma = canonical_sigma(values, tuple(len(lv) for lv in levels))
        blocks.append(Block((layer.k, layer.n), levels, sigma))
    return _sorted_blocks(blocks)


def _full_level(F: FSequence, s: int) -> tuple[int, ...]:
    return tuple(range(1, term(F, s) + 1))


def _plain_options(
    F: FSequence,
    levels: tuple[tuple[int, tuple[int, ...]], ...],
    lo: int,
    hi: int,
    chooser: ChoiceStrategy,
) -> Iterator[list[dict[int, tuple[int, ...]]]]:
    """All completions of a virtual layer into full-height block maps.

    `levels` pairs each virtual level, bottom to top, with its physical
    level; entry s must hold exactly (lo+s)_F vertices.  Each yielded
    option is one finished tiling of the virtual layer, a list of
    {physical level: vertex tuple} maps.  Options stream lazily; only
    sub-layer option lists are materialised (they are needed once per
    batch combination).
    """
    m = hi - lo + 1
    if m == 1:
        phys, verts = levels[0]
        unit = term(F, 1)
        yield [{phys: verts[i:i + unit]} for i in range(0, len(verts), unit)]
        return
    if lo == 1:
        yield [{phys: verts for phys, verts in levels}]
        return

    lam = lambda_split(F, lo - 1, m)
    phys_top, top = levels[-1]
    sizes = (term(F, m),) * lam.lambda_m + (term(F, lo - 1),) * lam.lambda_k
    for batches in chooser.assignments(top, sizes):
        m_batches = batches[:lam.lambda_m]
        k_batches = batches[lam.lambda_m:]
        per_batch: list[list[list[dict[int, tuple[int, ...]]]]] = []
        for batch in m_batches:
            subs = _plain_options(F, levels[:-1], lo, hi - 1, chooser)
            per_batch.append(
                [[{**blk, phys_top: batch} for blk in sub] for sub in subs]
            )
        for batch in k_batches:
            virtual = ((phys_top, batch),) + levels[:-1]
            per_batch.append(list(_plain_options(F, virtual, lo - 1, hi - 1, chooser)))
        for combo in itertools.product(*per_batch):
            yield [blk for sub in combo for blk in sub]


def _construction_layer(F: FSequence, k: int, n: int) -> Layer:
    """The layer <k -> n>, refused if it is one level not split by 1_F."""
    layer = build_layer(F, k, n)
    if k == n and term(F, n) % term(F, 1):
        raise ValueError(f"level {n} has {term(F, n)} vertices, not a multiple of "
                         f"1_F = {term(F, 1)}, so the layer has no tiling")
    return layer


def construct_tiling(
    F: FSequence, k: int, n: int, strategy: Optional[ChoiceStrategy] = None
) -> Tiling:
    """Build one tiling of <k -> n> by the recursive construction."""
    layer = _construction_layer(F, k, n)
    chooser = _construction_chooser(strategy)
    levels = tuple((s, _full_level(F, s)) for s in range(k, n + 1))
    first = next(_plain_options(F, levels, k, n, chooser))
    shape = PlainShape(layer.m)
    label = type(chooser).__name__.lower()
    return Tiling(layer, _assemble(layer, shape, first), shape, f"construct:{label}")


def enumerate_construction_tilings(F: FSequence, k: int, n: int) -> Iterator[Tiling]:
    """One tiling per exhaustive choice sequence, repeats included."""
    layer = _construction_layer(F, k, n)
    shape = PlainShape(layer.m)
    levels = tuple((s, _full_level(F, s)) for s in range(k, n + 1))
    for option in _plain_options(F, levels, k, n, Exhaustive()):
        yield Tiling(layer, _assemble(layer, shape, option), shape, "construct:exhaustive")


@dataclass(frozen=True)
class ConstructionCensus:
    sequences: int
    distinct: int


def construction_census(F: FSequence, k: int, n: int, *, limit: int = 1_000_000) -> ConstructionCensus:
    """Exhaustive-strategy counts: choice sequences and distinct tilings."""
    expected = count_construction_tilings(F, k, n)
    if expected > limit:
        raise CapExceeded(f"{expected} choice sequences exceed limit {limit}")
    levels = tuple((s, _full_level(F, s)) for s in range(k, n + 1))
    span = range(k, n + 1)
    sequences = 0
    distinct = set()
    for option in _plain_options(F, levels, k, n, Exhaustive()):
        sequences += 1
        distinct.add(tuple(sorted(tuple(blk[s] for s in span) for blk in option)))
    return ConstructionCensus(sequences, len(distinct))


def _multi_options(
    F: FSequence, parts: tuple[int, ...], n_cur: int, chooser: ChoiceStrategy
) -> Iterator[list[dict[int, tuple[int, ...]]]]:
    active = [(i, b) for i, b in enumerate(parts) if b > 0]
    if len(active) == 1:
        yield [{s: _full_level(F, s) for s in range(1, n_cur + 1)}]
        return

    lams = lambda_composition(F, tuple(b for _, b in active))
    top = _full_level(F, n_cur)
    sizes: list[int] = []
    slots: list[int] = []
    for (idx, b), lam in zip(active, lams):
        sizes.extend([term(F, b)] * lam)
        slots.extend([idx] * lam)
    for batches in chooser.assignments(top, tuple(sizes)):
        per_batch = []
        for batch, idx in zip(batches, slots):
            smaller = parts[:idx] + (parts[idx] - 1,) + parts[idx + 1:]
            per_batch.append([
                [{**blk, n_cur: batch} for blk in sub]
                for sub in _multi_options(F, smaller, n_cur - 1, chooser)
            ])
        for combo in itertools.product(*per_batch):
            yield [blk for sub in combo for blk in sub]


def construct_multi_tiling(
    F: FSequence, n: int, parts, strategy: Optional[ChoiceStrategy] = None
) -> Tiling:
    """Partition <1 -> n> into multi-blocks over the given composition."""
    parts = composition(parts)
    if sum(parts) != n:
        raise ValueError(f"composition {parts} does not sum to {n}")
    layer = build_layer(F, 1, n)
    chooser = _construction_chooser(strategy)
    first = next(_multi_options(F, parts, n, chooser))
    shape = MultiShape(parts)
    label = type(chooser).__name__.lower()
    return Tiling(layer, _assemble(layer, shape, first), shape, f"construct-multi:{label}")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[str, ...]


def verify_tiling(tiling: Tiling, *, volume_cap: int = DEFAULT_VOLUME_CAP) -> VerificationReport:
    """Check block forms, disjointness, the path-count total, and (when the
    volume is small enough) the explicit path cover.

    Each defect of `geometry.block_defects` is reported as `block i: ...`;
    the path total and the explicit cover take only the blocks on the layer.
    Blocks that meet on each level (`geometry.overlapping_pairs`) share a
    maximal path; a block of another span is compared from the bottom.
    """
    layer = tiling.layer
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

    for i, j in overlapping_pairs(tiling.blocks):
        violations.append(f"blocks {i} and {j} share a maximal path")

    total_paths = sum(block.path_count() for block in blocks)
    if total_paths != layer.volume():
        violations.append(f"blocks cover {total_paths} paths, layer has {layer.volume()}")

    if layer.volume() <= volume_cap:
        covered = 0
        overlap = False
        for block, mask in zip(blocks, path_masks(layer, blocks)):
            if covered & mask or mask.bit_count() != block.path_count():
                overlap = True
            covered |= mask
        if overlap:
            violations.append("explicit path sets overlap")
        if covered != (1 << layer.volume()) - 1:
            violations.append("explicit path sets do not cover the layer")

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

    @lru_cache(maxsize=None)
    def count(lo: int, hi: int) -> int:
        if lo == hi or lo == 1:
            return 1
        m = hi - lo + 1
        # lambda_split checks that the batch sizes sum to hi_F, so this
        # quotient is a multinomial coefficient
        lam = lambda_split(F, lo - 1, m)
        ways = factorial(term(F, hi)) // (
            factorial(term(F, m)) ** lam.lambda_m
            * factorial(term(F, lo - 1)) ** lam.lambda_k
        )
        return ways * count(lo, hi - 1) ** lam.lambda_m * count(lo - 1, hi - 1) ** lam.lambda_k

    total = count(k, n)
    del count  # refers to itself; dropping it frees the cache on return
    return total


# ---------------------------------------------------------------------------
# Exhaustive tiling enumeration (exact cover oracle)
# ---------------------------------------------------------------------------

# About the most bytes the memo of `enumerate_all_tilings` takes.  An entry
# is counted as its key's volume bits plus 128 bytes of dict slot, key and
# count objects (110 to 150 measured on CPython 3.11).  Past the budget
# lookups go on but nothing is added, so counts stay exact.
MEMO_BYTES = 1 << 26

# `enumerate_all_tilings` looks for the path with the fewest live blocks
# among the lowest uncovered paths only, as many as it can count in about
# SCAN_WORDS 64-bit words of the live-block mask: every path up to about
# a thousand blocks, 148 paths at 7008 blocks, 8 at 10^5 blocks.  Each
# path looked at costs a pass over the mask, and on a large family a scan
# of every path costs more per node than it saves.
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


@dataclass(frozen=True)
class TilingSearchResult:
    """Outcome of the exact-cover search.

    `complete` means the whole search space was traversed: the total is
    exact, and total == 0 certifies that no tiling exists.  `states` is
    the number of subtree counts the search memoised.
    """

    tilings: tuple[Tiling, ...]
    total: int
    complete: bool
    nodes: int
    states: int = 0


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
    drops every block in its clash mask.  It always branches on
    the uncovered path with the fewest live blocks (Knuth's Algorithm X
    rule), looking at only as many of the lowest uncovered paths as
    SCAN_WORDS allows and taking the lowest on a tie.

    Each finished subtree's count is memoised on its covered bitmap,
    which fixes the live set.  The first `limit` tilings reached are
    collected; the memo is read only once they are, since a hit skips a
    subtree's tilings.  The memo stops growing at about MEMO_BYTES;
    lookups go on, so the count stays exact.

    Every call is a node, memo hits included, and the search stops
    (complete=False) at the first node over `node_budget`.  The total then
    counts the tilings of every finished subtree, a lower bound.
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

    def search(covered: int, live: int, chosen: list[int]) -> None:
        nonlocal total, nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"exact cover exceeded {node_budget} nodes")
        if covered == full:
            total += 1
            if len(found) < limit:
                found.append(tuple(chosen))
            return
        if len(found) >= limit:
            known = memo.get(covered)
            if known is not None:
                total += known
                return
        before = total
        branch, fewest = 0, len(masks) + 1
        rest = ~covered & full
        scan = scan_paths
        while rest and fewest > 1 and scan:
            scan -= 1
            low = rest & -rest
            options = on_path[low.bit_length() - 1] & live
            size = options.bit_count()
            if size < fewest:
                branch, fewest = options, size
            rest ^= low
        for b_idx in bits(branch):
            if not keep[b_idx]:
                keep[b_idx] = ~_clash_mask(on_path, masks[b_idx])
            chosen.append(b_idx)
            search(covered | masks[b_idx], live & keep[b_idx], chosen)
            chosen.pop()
        if len(memo) < room:
            memo[covered] = total - before

    try:
        search(0, (1 << len(masks)) - 1, [])
        complete = True
    except SearchBudgetExceeded:
        complete = False
    del search  # refers to itself; dropping it frees the memo on return
    tilings = tuple(
        Tiling(layer, _sorted_blocks(blocks[i] for i in pick), family, "exhaustive")
        for pick in found
    )
    return TilingSearchResult(tilings, total, complete, nodes, len(memo))


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


def _ints(value, length: Optional[int] = None) -> bool:
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


def _parts_from_cardinalities(F: FSequence, n: int, cards: list[int]) -> Optional[tuple[int, ...]]:
    """A composition whose base vector has these term values as a multiset,
    or None if there is none.

    Part b contributes term(1..b), so this searches the partitions of
    len(cards) into parts of at most n, largest parts first, remembering
    the states that fail.  Part order is not recoverable and not needed
    (validation is multiset-based).
    """
    top = min(n, len(cards))
    needs = [Counter(term(F, i) for i in range(1, b + 1)) for b in range(top + 1)]
    failed: set = set()

    def search(left: Counter, most: int) -> Optional[tuple[int, ...]]:
        if not left:
            return ()
        state = (frozenset(left.items()), most)
        if state not in failed:
            for b in range(min(left.total(), most), 0, -1):
                if needs[b] <= left:
                    rest = search(left - needs[b], b)
                    if rest is not None:
                        return (b,) + rest
            failed.add(state)
        return None

    parts = search(Counter(cards), top)
    del search  # refers to itself; dropping it frees `failed` on return
    return parts or None
