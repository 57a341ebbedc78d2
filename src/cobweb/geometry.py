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
do materialise paths), with `bits` as the one set-bit walk.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from math import comb, factorial, prod
from operator import itemgetter

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

    def level_size(self, s: int) -> int:
        if not self.k <= s <= self.n:
            raise ValueError(f"level {s} outside span {self.k}..{self.n}")
        return term(self.F, s)

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


def point_to_path(layer: Layer, point) -> tuple[int, ...]:
    """Box point (v_1..v_m) -> maximal path (v_k..v_n); identity on
    coordinates, so it is its own inverse."""
    point = tuple(point)
    if len(point) != layer.m:
        raise ValueError(f"point needs {layer.m} coordinates")
    for i, v in enumerate(point):
        size = layer.level_size(layer.k + i)
        if not 1 <= v <= size:
            raise ValueError(f"coordinate {i + 1} = {v} outside 1..{size}")
    return point


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

    A level-incidence index maps, per level position, each vertex to the
    bitmask of blocks holding it there.  The blocks meeting block i on a
    level are the OR of its vertices' masks, so the blocks sharing a path
    with it are the AND of those over its levels.  Levels are matched by
    position from the bottom and only positions both blocks have are
    compared; on equal spans bit j of mask i is `not blocks_disjoint`.
    """
    depth = max((len(block.levels) for block in blocks), default=0)
    holders: list[dict[int, int]] = [{} for _ in range(depth)]
    absent = [0] * depth  # blocks with fewer levels than the position
    for i, block in enumerate(blocks):
        bit = 1 << i
        for pos, level in enumerate(block.levels):
            index = holders[pos]
            for v in level:
                index[v] = index.get(v, 0) | bit
        for pos in range(len(block.levels), depth):
            absent[pos] |= bit
    everyone = (1 << len(blocks)) - 1
    hits: list[dict[tuple[int, ...], int]] = [{} for _ in range(depth)]
    masks = []
    for i, block in enumerate(blocks):
        meet = everyone ^ (1 << i)
        for pos, level in enumerate(block.levels):
            if not meet:
                break
            hit = hits[pos].get(level)
            if hit is None:  # blocks often share a level subset
                hit = absent[pos]
                index = holders[pos]
                for v in level:
                    hit |= index[v]
                hits[pos][level] = hit
            meet &= hit
        masks.append(meet)
    return masks


def overlapping_pairs(blocks) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j), i < j, of blocks that share a maximal path, in
    order; read off `overlap_masks`."""
    for i, meet in enumerate(overlap_masks(blocks)):
        for j in bits(meet >> i + 1):
            yield i, i + 1 + j


def path_masks(layer: Layer, blocks) -> list[int]:
    """For each block, the bitmask of its maximal paths: bit r is the r-th
    path of `iter_max_paths(layer)`.

    Path (v_k, ..., v_n) has the mixed-radix index sum (v_s - 1) * stride_s,
    where stride_s is the product of the level sizes above s, so a block's
    mask is built from the top level down, one shifted copy of the mask so
    far per vertex.  Every vertex must lie on its level of the layer; the
    caller bounds the volume.
    """
    sizes = layer.level_sizes()[::-1]
    masks = []
    for block in blocks:
        mask, stride = 1, 1
        for level, size in zip(block.levels[::-1], sizes):
            shifted = 0
            for v in level:
                shifted |= mask << (v - 1) * stride
            mask = shifted
            stride *= size
        masks.append(mask)
    return masks


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cardinality_vectors(layer: Layer, family: ShapeFamily) -> list[tuple[tuple[int, ...], int]]:
    """Distinct level-cardinality vectors of a shape family that fit the
    layer (no entry above its level's size), in sorted order, each with
    the number of permutations sigma that produce it.

    A backtracking walk places the distinct values level by level, smallest
    first, and prunes a value too large for its level, so a layer where
    few orderings fit costs about as many steps as those orderings, not
    m!.  It keeps its own stack, so m is not bounded by the recursion
    limit."""
    values = shape_values(layer, family)
    remaining = Counter(values)
    weight = 1
    for count in remaining.values():
        weight *= factorial(count)
    sizes = layer.level_sizes()
    distinct = sorted(remaining)
    vectors: list[tuple[tuple[int, ...], int]] = []
    prefix: list[int] = []
    nexts = [0]  # per open level, the index in `distinct` to try next
    while nexts:
        level, i = len(prefix), nexts[-1]
        while i < len(distinct) and distinct[i] <= sizes[level] and not remaining[distinct[i]]:
            i += 1
        if i == len(distinct) or distinct[i] > sizes[level]:
            nexts.pop()
            if prefix:
                remaining[prefix.pop()] += 1
            continue
        nexts[-1] = i + 1
        remaining[distinct[i]] -= 1
        prefix.append(distinct[i])
        if len(prefix) < len(sizes):
            nexts.append(0)
        else:
            vectors.append((tuple(prefix), weight))
            remaining[prefix.pop()] += 1
    return vectors


def pair_count(layer: Layer, family: ShapeFamily) -> int:
    """Number of (sigma, subsets) pairs, counting duplicate vertex data."""
    total = 0
    sizes = layer.level_sizes()
    for vector, weight in _cardinality_vectors(layer, family):
        product = 1
        for size, want in zip(sizes, vector):
            product *= comb(size, want)
        total += weight * product
    return total


class BlockFamily(Record):
    __slots__ = _fields = ("blocks", "pair_count")

    def __init__(self, blocks: tuple[Block, ...], pair_count: int):
        self._init(blocks, pair_count)


def block_family(
    layer: Layer, family: ShapeFamily, *, block_cap: int = DEFAULT_BLOCK_CAP
) -> BlockFamily:
    """All distinct blocks of the family, canonically ordered.

    Distinctness is by level subsets; the pair count records how many
    (sigma, subsets) pairs collapsed onto them.
    """
    pairs = pair_count(layer, family)
    if pairs > block_cap:
        raise CapExceeded(f"{pairs} (sigma, subsets) pairs exceed cap {block_cap}")
    sizes = layer.level_sizes()
    index_values = shape_values(layer, family)
    seen: dict[tuple, Block] = {}
    for vector, _ in _cardinality_vectors(layer, family):
        sigma = canonical_sigma(index_values, vector)
        choices = [
            itertools.combinations(range(1, size + 1), want)
            for size, want in zip(sizes, vector)
        ]
        for subsets in itertools.product(*choices):
            key = subsets
            if key not in seen:
                seen[key] = Block((layer.k, layer.n), subsets, sigma)
    blocks = tuple(seen[key] for key in sorted(seen))
    return BlockFamily(blocks, pairs)
