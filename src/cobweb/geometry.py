"""Discrete boxes, cobweb layers, blocks, and block enumeration.

A layer <k -> n> over a sequence F is the graded graph whose level s
(k <= s <= n) holds the vertices {1, ..., s_F}, with complete bipartite
edges between consecutive levels.  Its maximal paths (one vertex per
level) correspond one-for-one to the points of the discrete box
[k_F] x ... x [n_F], so everything here is phrased level-wise.

Blocks store one vertex subset per level and never materialise their
path sets; the path set of a block is the product of its level subsets,
so two blocks are max-disjoint exactly when they are disjoint on some
level.  The two bitmask indices live here: `overlap_masks` (block to
block) and `path_masks` (block to path, for the cap-guarded oracles that
do materialise paths, built from the paths through each level's vertices,
`level_paths`), with `bits` as the one set-bit walk.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from math import comb, factorial, prod
from operator import itemgetter, mul
from types import GeneratorType

from .coefficients import falling_f_factorial
from .errors import DEFAULT_BLOCK_CAP, DEFAULT_VOLUME_CAP, CapExceeded
from .fsequence import FSequence, composition, term
from .record import Record, _set


class Layer(Record):
    """Cobweb layer <k -> n>; level s holds vertices 1..s_F."""

    __slots__ = _fields = ("F", "k", "n")

    def __init__(self, F: FSequence, k: int, n: int):
        self._init(F, k, n)

    @property
    def m(self) -> int:
        return self.n - self.k + 1

    def level_sizes(self) -> tuple[int, ...]:
        return tuple(term(self.F, s) for s in range(self.k, self.n + 1))

    def volume(self) -> int:
        return falling_f_factorial(self.F, self.n, self.m)


def build_layer(F: FSequence, k: int, n: int) -> Layer:
    if not 1 <= k <= n:
        raise ValueError(f"layer needs 1 <= k <= n, got ({k}, {n})")
    return Layer(F, k, n)


def iter_max_paths(layer: Layer, *, cap: int = DEFAULT_VOLUME_CAP) -> Iterator[tuple[int, ...]]:
    """All maximal paths (v_k, ..., v_n), lexicographic.  Cap-guarded."""
    if layer.volume() > cap:
        raise CapExceeded(f"volume {layer.volume()} exceeds streaming cap {cap}")
    ranges = [range(1, size + 1) for size in layer.level_sizes()]
    return itertools.product(*ranges)


class PlainShape(Record):
    """Block shape with level sizes (sigma(1)_F, ..., sigma(m)_F).

    Its base vector 1..m is that of the one-part composition (m); a
    concrete sigma picks one orientation; sigma=None denotes the whole
    family of orientations (used when enumerating).
    """

    __slots__ = _fields = ("m", "sigma")

    def __init__(self, m: int, sigma: tuple[int, ...] | None = None):
        self._init(m, sigma)

    def base_vector(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))


class MultiShape(Record):
    """Multi-block shape over a composition (b_1, ..., b_k) of n.

    The base cardinality vector is 1..b_1, 1..b_2, ..., 1..b_k; sigma
    permutes its n entries (None = the whole family).
    """

    __slots__ = _fields = ("parts", "sigma")

    def __init__(self, parts: tuple[int, ...], sigma: tuple[int, ...] | None = None):
        self._init(composition(parts), sigma)

    def base_vector(self) -> tuple[int, ...]:
        out: list[int] = []
        for b in self.parts:
            out.extend(range(1, b + 1))
        return tuple(out)


ShapeFamily = PlainShape | MultiShape


class Block(Record):
    """One (multi-)block: a vertex subset per level, bottom to top.

    Identity, ordering and hashing use only (span, levels); sigma is
    bookkeeping for how the shape arose, because sequences with repeated
    terms let distinct orientations produce identical vertex data.
    """

    __slots__ = _fields = ("span", "levels", "sigma")

    def __init__(self, span: tuple[int, int], levels: tuple[tuple[int, ...], ...],
                 sigma: tuple[int, ...]):
        _set(self, "span", span)
        _set(self, "levels", levels)
        _set(self, "sigma", sigma)

    def _key(self):
        return self.span, self.levels

    def __hash__(self):
        return hash((self.span, self.levels))

    def path_count(self) -> int:
        return prod(map(len, self.levels))

    def level_cardinalities(self) -> tuple[int, ...]:
        return tuple(map(len, self.levels))

    def to_json_obj(self) -> dict:
        return {
            "span": list(self.span),
            "levels": [list(level) for level in self.levels],
            "sigma": list(self.sigma),
        }


def block_from_json(obj: dict) -> Block:
    span = tuple(obj["span"])
    levels = tuple(tuple(sorted(level)) for level in obj["levels"])
    return Block(span, levels, tuple(obj["sigma"]))


def canonical_sigma(index_values: tuple[int, ...], cardinalities: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least permutation sigma with
    index_values[sigma[s] - 1] == cardinalities[s] for every position s."""
    remaining: dict[int, list[int]] = {}
    for idx, value in enumerate(index_values, start=1):
        remaining.setdefault(value, []).append(idx)
    for pool in remaining.values():
        pool.reverse()  # pop() then yields the smallest index first
    sigma = []
    for card in cardinalities:
        pool = remaining.get(card)
        if not pool:
            raise ValueError(
                f"cardinalities {cardinalities} do not arise from {index_values}"
            )
        sigma.append(pool.pop())
    return tuple(sigma)


def shape_values(layer: Layer, shape: ShapeFamily) -> tuple[int, ...]:
    """Term values (v_F for each entry v of the shape's base vector) after
    checking that the shape fits the layer."""
    if isinstance(shape, PlainShape):
        if shape.m != layer.m:
            raise ValueError(f"shape has {shape.m} levels, layer has {layer.m}")
    elif layer.k != 1 or sum(shape.parts) != layer.n:
        raise ValueError("multi blocks live on <1 -> n> with parts summing to n")
    return tuple(term(layer.F, v) for v in shape.base_vector())


def make_block(layer: Layer, shape: ShapeFamily, subsets) -> Block:
    """Build the block after raising ValueError on the first defect of
    `block_defects`; a concrete sigma must also fit position by position."""
    values = shape_values(layer, shape)
    block = Block((layer.k, layer.n), tuple(tuple(sorted(level)) for level in subsets), ())
    for _, defect, _ in block_defects(layer, values, (block,)):
        raise ValueError(defect)
    cards = block.level_cardinalities()
    sigma = shape.sigma
    if sigma is None:
        sigma = canonical_sigma(values, cards)
    elif (sorted(sigma) != list(range(1, len(values) + 1))
          or cards != tuple(values[s - 1] for s in sigma)):
        raise ValueError(f"sigma {sigma} does not orient {values} as {cards}")
    return Block(block.span, block.levels, sigma)


def block_defects(layer: Layer, values: tuple[int, ...], blocks) -> Iterator[tuple[int, str, bool]]:
    """(block index, phrase, on_layer) for each defect, block by block: a
    block holds a nonempty vertex set on each layer level, sized by a
    permutation of `values`.  A span or level-count mismatch is a block's
    only phrase; on_layer is False for those and for a vertex off its level.

    Blocks often share a level subset, so each distinct subset of a level
    is checked once, and each distinct cardinality vector once."""
    span = (layer.k, layer.n)
    m = layer.m
    blocks = tuple(blocks)
    shaped = [block.levels for block in blocks if block.span == span and len(block.levels) == m]
    # per level, the defects of each faulty subset the blocks hold there
    faults: list[dict[tuple[int, ...], list[tuple[str, bool]]]] = []
    for pos, size in enumerate(layer.level_sizes()):
        s = layer.k + pos
        faulty = {}
        for level in set(map(itemgetter(pos), shaped)):
            found = []
            if not level:
                found.append((f"level {s} empty", True))
            elif min(level) < 1 or max(level) > size:
                found.append((f"level {s} outside layer", False))
            if len(set(level)) != len(level):
                found.append((f"level {s} repeats a vertex", True))
            if found:
                faulty[level] = found
        faults.append(faulty)
    any_fault = any(faults)
    wanted = sorted(values)
    fits: dict[tuple[int, ...], bool] = {}  # per cardinality vector, whether it realises the shape
    for i, block in enumerate(blocks):
        if block.span != span:
            yield i, f"span {block.span} mismatches layer", False
            continue
        if len(block.levels) != m:
            yield i, f"{len(block.levels)} levels, layer has {m}", False
            continue
        if any_fault:
            for level, faulty in zip(block.levels, faults):
                for phrase, on_layer in faulty.get(level, ()):
                    yield i, phrase, on_layer
        cards = block.level_cardinalities()
        fit = fits.get(cards)
        if fit is None:
            fit = fits[cards] = sorted(cards) == wanted
        if not fit:
            yield i, f"cardinalities {cards} do not realise the shape", True


def blocks_disjoint(a: Block, b: Block) -> bool:
    """Max-disjointness: some level where the vertex subsets are disjoint.

    Path sets are level-wise products, so this is equivalent to the path
    sets being disjoint.
    """
    if a.span != b.span:
        raise ValueError(f"span mismatch: {a.span} vs {b.span}")
    for la, lb in zip(a.levels, b.levels):
        if not set(la) & set(lb):
            return True
    return False


def overlap_masks(blocks) -> list[int]:
    """For each block i, the bitmask of the other blocks sharing a maximal
    path with it.

    Per level position, each distinct subset is indexed once: the blocks
    holding it, ORed into its vertices' masks, then its meeting mask, the
    OR of those and of the blocks with no level there.  Block i's mask is
    the AND of its subsets' meeting masks, matched by position from the
    bottom over the positions both blocks have; on equal spans bit j of
    mask i is `not blocks_disjoint`.
    """
    depth = max((len(block.levels) for block in blocks), default=0)
    # per position, each distinct subset's blocks, and its meeting mask
    holding: list[dict[tuple[int, ...], int]] = [{} for _ in range(depth)]
    meets: list[dict[tuple[int, ...], int]] = [{} for _ in range(depth)]
    for i, block in enumerate(blocks):
        bit = 1 << i
        for level, held in zip(block.levels, holding):
            held[level] = held.get(level, 0) | bit
    everyone = (1 << len(blocks)) - 1
    for held, meeting in zip(holding, meets):
        absent = everyone  # the blocks with no level at this position
        holders: dict[int, int] = {}
        for level, mask in held.items():
            absent ^= mask
            for v in level:
                holders[v] = holders.get(v, 0) | mask
        for level in held:
            meet = absent
            for v in level:
                meet |= holders[v]
            meeting[level] = meet
    masks = []
    for i, block in enumerate(blocks):
        mask = everyone ^ 1 << i
        for level, meeting in zip(block.levels, meets):
            mask &= meeting[level]
        masks.append(mask)
    return masks


def overlapping_pairs(blocks) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j), i < j, of blocks that share a maximal path, in
    order; read off `overlap_masks`."""
    for i, meet in enumerate(overlap_masks(blocks)):
        for j in bits(meet >> i + 1):
            yield i, i + 1 + j


def level_paths(layer: Layer) -> list[tuple[int, int, int]]:
    """Per level, bottom to top: its size, its stride and `first`, the
    bitmask of the paths through its vertex 1, in `iter_max_paths` order.

    Path (v_k, ..., v_n) has the mixed-radix index sum (v_s - 1) * stride_s,
    where stride_s is the product of the level sizes above s.  So the
    paths through vertex 1 of level s are runs of stride_s ones every
    size_s * stride_s bits, and those through vertex v are `first` shifted
    up by (v - 1) * stride_s."""
    sizes = layer.level_sizes()
    strides = list(itertools.accumulate(sizes[:0:-1], mul, initial=1))[::-1]
    volume = sizes[0] * strides[0]
    out = []
    for size, stride in zip(sizes, strides):
        # one run, doubled until the copies reach the volume: linear in
        # the volume, where a quotient of two masks is quadratic
        first, period = (1 << stride) - 1, size * stride
        while period < volume:
            first |= first << period
            period *= 2
        out.append((size, stride, first & (1 << volume) - 1))
    return out


def path_masks(layer: Layer, blocks) -> list[int]:
    """For each block, the bitmask of its maximal paths: bit r is the r-th
    path of `iter_max_paths(layer)`.

    A block's paths are the product of its level subsets, so its mask is
    the AND over its levels of the paths through each level's subset, the
    OR of that level's vertices' paths (`level_paths`).  Blocks share
    level subsets, so each distinct subset of a level is ORed once.
    Every vertex must lie on its level of the layer; the caller bounds
    the volume.
    """
    per_level = level_paths(layer)
    unions: list[dict[tuple[int, ...], int]] = [{} for _ in per_level]
    masks = []
    for block in blocks:
        mask = -1  # every block has a level, so the ANDs leave it nonnegative
        for level, (_, stride, first), union in zip(block.levels, per_level, unions):
            paths = union.get(level)
            if paths is None:
                paths = 0
                for v in level:
                    paths |= first << (v - 1) * stride
                union[level] = paths
            mask &= paths
        masks.append(mask)
    return masks


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unwind(root: Iterator) -> Iterator:
    """Run a recursion written as generators on one explicit stack, so its
    depth is bounded by memory, not by the recursion limit.  A generator
    calls by yielding the sub-call's generator, and the yield evaluates to
    the list of what the sub-call yielded; the root's output streams out.
    A sub-call ends before its caller resumes, so they may share state."""
    stack = [(root, None)]  # open calls, root first, each with its output list
    sent = None
    while stack:
        call, made = stack[-1]
        try:
            item = call.send(sent)
        except StopIteration:
            stack.pop()
            sent = made
            continue
        sent = None
        if type(item) is GeneratorType:
            stack.append((item, []))
        elif made is None:
            yield item
        else:
            made.append(item)


def _fitting_tails(sizes: tuple[int, ...], left: Counter, level: int, ways: int,
                   tally) -> Iterator:
    """Under `_unwind`: the entries from `level` up, in sorted order, of
    the vectors that place the values `left` (keys ascending) one per
    level, none above its level's size.  Values are tried smallest first up
    to the first too large, so a layer where few orderings fit costs about
    as many steps as those orderings, not m!.  `ways` is the product of
    C(size, value) over the levels below, and each whole vector's product
    is handed to `tally`, which may stop the walk by raising."""
    for value, count in left.items():
        if value > sizes[level]:
            break
        if count:
            here = ways * comb(sizes[level], value)
            if level + 1 == len(sizes):
                tally(here)
                yield (value,)
                continue
            left[value] -= 1
            for tail in (yield _fitting_tails(sizes, left, level + 1, here, tally)):
                yield (value, *tail)
            left[value] += 1


def family_size(layer: Layer, family: ShapeFamily, *,
                block_cap: int = DEFAULT_BLOCK_CAP) -> tuple[list[tuple[int, ...]], int, int]:
    """The fitting cardinality vectors of a shape family (no entry above
    its level's size), sorted, and its numbers of (sigma, subsets) pairs
    and of distinct blocks, refused with CapExceeded over `block_cap`
    pairs as soon as the vectors walked so far pass it.  A vector has
    prod C(size, want) subset choices; a block's level sizes are its
    vector, so the distinct blocks are the choices summed over the
    vectors.  Every vector arises from the same number of sigmas, the
    product of the factorials of the values' multiplicities, so the pair
    count is that weight times the distinct count."""
    values = Counter(sorted(shape_values(layer, family)))
    weight = prod(map(factorial, values.values()))
    distinct = 0

    def tally(ways: int) -> None:
        nonlocal distinct
        distinct += ways
        if weight * distinct > block_cap:
            raise CapExceeded(f"at least {weight * distinct} (sigma, subsets) pairs "
                              f"exceed cap {block_cap}")

    vectors = list(_unwind(_fitting_tails(layer.level_sizes(), values, 0, 1, tally)))
    return vectors, weight * distinct, distinct


# A block under construction: its vertex tuples, one per level of the
# (virtual) layer it tiles, bottom to top.
Levels = tuple[tuple[int, ...], ...]


def assemble_blocks(layer: Layer, shape: ShapeFamily, raw: list[Levels]) -> tuple[Block, ...]:
    """Blocks from level tuples in physical order, sorted, each with its
    canonical sigma over the shape's base vector, found once per distinct
    cardinality vector.  It decides no block: the constructions and
    `block_family` hand it theirs."""
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


class BlockFamily(Record):
    __slots__ = _fields = ("blocks", "pair_count")

    def __init__(self, blocks: tuple[Block, ...], pair_count: int):
        self._init(blocks, pair_count)


def block_family(
    layer: Layer, family: ShapeFamily, *, block_cap: int = DEFAULT_BLOCK_CAP
) -> BlockFamily:
    """All blocks of the family, sorted by level subsets: per fitting
    cardinality vector, the products of its level-subset combinations.
    No block arises twice (see `family_size`), so none is deduplicated;
    the pair count records how many (sigma, subsets) pairs give them."""
    vectors, pairs, _ = family_size(layer, family, block_cap=block_cap)
    ranges = [range(1, size + 1) for size in layer.level_sizes()]
    raw = [subsets for vector in vectors
           for subsets in itertools.product(*map(itertools.combinations, ranges, vector))]
    return BlockFamily(assemble_blocks(layer, family, raw), pairs)
