"""Layers, boxes, blocks, disjointness, and block enumeration."""

import itertools
import math

import pytest

from cobweb import (
    CapExceeded,
    CustomTable,
    Fp,
    Gaussian,
    Natural,
    PlainShape,
    MultiShape,
    block_family,
    blocks_disjoint,
    build_layer,
    iter_max_paths,
    make_block,
    term,
)
from cobweb import geometry
from cobweb.geometry import Block, _unwind, family_size, path_masks, shape_values
from cobweb.tiling import Seeded, Tiling, construct_multi_tiling, construct_tiling, verify_tiling
from conftest import TABLE_B, TABLE_C, TABLE_E, cyclic_garbage, lambda_families


class TestLayer:
    def test_level_sizes(self):
        layer = build_layer(Natural(), 2, 4)
        assert layer.level_sizes() == (2, 3, 4)
        assert layer.m == 3

    def test_single_level(self):
        layer = build_layer(Gaussian(2), 4, 4)
        assert layer.level_sizes() == (15,)
        assert layer.volume() == 15

    def test_fibonacci_levels(self):
        layer = build_layer(Fp(1), 1, 5)
        assert layer.level_sizes() == (1, 1, 2, 3, 5)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            build_layer(Natural(), 3, 2)
        with pytest.raises(ValueError):
            build_layer(Natural(), 0, 2)


class TestVolume:
    def test_box_volume(self):
        assert build_layer(Natural(), 2, 4).volume() == 24

    def test_whole_box_is_factorial(self):
        # <1 -> 4> over the naturals holds 4! maximal paths
        assert build_layer(Natural(), 1, 4).volume() == 24

    def test_stream_agrees_with_formula(self):
        for F in lambda_families():
            for k in range(1, 6):
                for n in range(k, 7):
                    layer = build_layer(F, k, n)
                    if layer.volume() > 5000:
                        continue
                    assert sum(1 for _ in iter_max_paths(layer)) == layer.volume()

    def test_stream_refuses_over_cap(self):
        layer = build_layer(Natural(), 1, 8)
        with pytest.raises(CapExceeded):
            iter_max_paths(layer, cap=100)


class TestPointPathBijection:
    # a maximal path (v_k..v_n) is the box point (v_1..v_m) with the same
    # coordinates, so the paths are the product of the level ranges
    def test_round_trip_exhaustive(self):
        layer = build_layer(Natural(), 2, 4)
        box = list(itertools.product(*[range(1, s + 1) for s in layer.level_sizes()]))
        assert list(iter_max_paths(layer)) == box
        assert len(box) == layer.volume()

    def test_single_level(self):
        layer = build_layer(Natural(), 3, 3)
        assert list(iter_max_paths(layer)) == [(1,), (2,), (3,)]


class TestMakeBlock:
    def test_identity_orientation(self):
        layer = build_layer(Natural(), 3, 4)
        block = make_block(layer, PlainShape(2, (1, 2)), [(1,), (2, 4)])
        assert block.level_cardinalities() == (1, 2)

    def test_swapped_orientation(self):
        layer = build_layer(Natural(), 3, 4)
        block = make_block(layer, PlainShape(2, (2, 1)), [(1, 3), (2,)])
        assert block.level_cardinalities() == (2, 1)
        assert block.sigma == (2, 1)

    def test_multi_block_level_vector(self):
        layer = build_layer(Natural(), 1, 4)
        block = make_block(layer, MultiShape((2, 2)), [(1,), (1, 2), (1,), (2, 4)])
        assert block.level_cardinalities() == (1, 2, 1, 2)

    def test_cardinality_mismatch_rejected(self):
        layer = build_layer(Natural(), 3, 4)
        with pytest.raises(ValueError):
            make_block(layer, PlainShape(2, (1, 2)), [(1, 2), (2, 4)])

    def test_subset_outside_level_rejected(self):
        layer = build_layer(Natural(), 3, 4)
        with pytest.raises(ValueError):
            make_block(layer, PlainShape(2, (1, 2)), [(4,), (2, 4)])

    def test_no_sigma_takes_any_orientation(self):
        # sigma=None is the whole family of orientations, so cardinalities
        # (2, 1) are oriented by (2, 1), not refused against (1, 2)
        block = make_block(build_layer(Natural(), 2, 3), PlainShape(2), [(1, 2), (3,)])
        assert block.sigma == (2, 1)

    @pytest.mark.parametrize("sigma", [(1, 2), (1, 1), (1, 2, 3)])
    def test_concrete_sigma_must_fit_by_position(self, sigma):
        layer = build_layer(Natural(), 2, 3)
        with pytest.raises(ValueError, match="does not orient"):
            make_block(layer, PlainShape(2, sigma), [(1, 2), (3,)])


class TestDisjointness:
    def _block(self, layer, subsets):
        # disjointness is shape-agnostic, so build raw blocks directly
        from cobweb.geometry import Block
        subsets = tuple(tuple(sorted(s)) for s in subsets)
        return Block((layer.k, layer.n), subsets, tuple(range(1, layer.m + 1)))

    def test_identical_blocks_intersect(self):
        layer = build_layer(Natural(), 2, 3)
        a = self._block(layer, [(1,), (1, 2)])
        assert not blocks_disjoint(a, a)

    def test_disjoint_top_levels(self):
        layer = build_layer(Natural(), 2, 3)
        a = self._block(layer, [(1,), (1, 2)])
        b = self._block(layer, [(1,), (3,)])
        assert blocks_disjoint(a, b)

    def test_span_mismatch_rejected(self):
        a = self._block(build_layer(Natural(), 2, 3), [(1,), (1, 2)])
        b = self._block(build_layer(Natural(), 3, 4), [(1,), (1, 2)])
        with pytest.raises(ValueError):
            blocks_disjoint(a, b)

    def test_levelwise_equals_pathwise(self):
        layer = build_layer(Natural(), 2, 4)
        blocks = block_family(layer, PlainShape(3)).blocks
        for a, b in itertools.combinations(blocks[:40], 2):
            explicit = not (set(itertools.product(*a.levels))
                            & set(itertools.product(*b.levels)))
            assert blocks_disjoint(a, b) == explicit

    def test_incidence_index_equals_pairwise(self):
        # the level-incidence index finds exactly the non-disjoint pairs
        from cobweb.geometry import overlapping_pairs

        cases = [
            (build_layer(Natural(), 2, 4), PlainShape(3)),
            (build_layer(Fp(1), 3, 5), PlainShape(3)),
            (build_layer(Gaussian(2), 2, 3), PlainShape(2)),
            (build_layer(Natural(), 1, 4), MultiShape((2, 2))),
        ]
        for layer, family in cases:
            blocks = block_family(layer, family).blocks
            pairwise = [
                (i, j)
                for i, j in itertools.combinations(range(len(blocks)), 2)
                if not blocks_disjoint(blocks[i], blocks[j])
            ]
            assert list(overlapping_pairs(blocks)) == pairwise

    @pytest.mark.parametrize("F, k, n", [
        (Natural(), 2, 4),
        (Fp(1), 3, 5),
        (CustomTable((1, 2, 2, 1, 4, 3)), 4, 6),
    ])
    def test_overlap_masks_equal_pairwise(self, F, k, n):
        # bit j of mask i is set exactly when blocks i != j share a path
        from cobweb.geometry import overlap_masks

        layer = build_layer(F, k, n)
        blocks = block_family(layer, PlainShape(layer.m)).blocks
        masks = overlap_masks(blocks)
        assert len(masks) == len(blocks)
        for i, a in enumerate(blocks):
            expect = sum(
                1 << j for j, b in enumerate(blocks)
                if j != i and not blocks_disjoint(a, b)
            )
            assert masks[i] == expect, i

    @pytest.mark.parametrize("F, k, n", [
        (Natural(), 2, 4),
        (Fp(1), 3, 5),
        (CustomTable((1, 2, 2, 1, 4, 3)), 4, 6),
    ])
    def test_path_masks_equal_path_index(self, F, k, n):
        layer = build_layer(F, k, n)
        assert_path_masks_explicit(layer, block_family(layer, PlainShape(layer.m)).blocks)

    @pytest.mark.parametrize("F, n, parts", [
        (Natural(), 4, (2, 2)), (Natural(), 5, (2, 1, 2)), (Fp(1), 5, (1, 3, 1)),
    ], ids=["natural-4-2-2", "natural-5-2-1-2", "fp1-5-1-3-1"])
    def test_path_masks_equal_path_index_multi(self, F, n, parts):
        layer = build_layer(F, 1, n)
        assert_path_masks_explicit(layer, block_family(layer, MultiShape(parts)).blocks)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_path_masks_equal_path_index_of_constructions(self, seed):
        # blocks in construction order, not family order, each a tiling
        for tiling in (construct_tiling(Natural(), 3, 5, Seeded(seed)),
                       construct_tiling(Fp(1), 3, 5, Seeded(seed)),
                       construct_tiling(Natural(), 2, 5, Seeded(seed)),
                       construct_multi_tiling(Natural(), 5, (2, 1, 2), Seeded(seed))):
            assert_path_masks_explicit(tiling.layer, tiling.blocks)

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_path_masks_of_a_repeated_vertex(self, pos):
        # fp:p=1 <2->4> has levels of 1, 2 and 3 vertices; a level that
        # repeats a vertex leaves the block's mask as it was but raises its
        # path count, so the explicit cover reports an overlap
        tiling = construct_tiling(Fp(1), 2, 4)
        first = tiling.blocks[0]
        levels = list(first.levels)
        levels[pos] = (levels[pos][0],) + levels[pos]
        bad = Block(first.span, tuple(levels), first.sigma)
        assert bad.path_count() > first.path_count()
        assert path_masks(tiling.layer, [bad]) == path_masks(tiling.layer, [first])
        report = verify_tiling(Tiling(tiling.layer, (bad,) + tiling.blocks[1:], tiling.kind,
                                      "tampered"))
        assert "explicit path sets overlap" in report.violations


def assert_path_masks_explicit(layer, blocks):
    # bit r of a block's mask is set exactly when the r-th path of
    # iter_max_paths lies in the block's product of level subsets
    index_of = {path: r for r, path in enumerate(iter_max_paths(layer))}
    expect = [
        sum(1 << index_of[path] for path in set(itertools.product(*block.levels)))
        for block in blocks
    ]
    assert path_masks(layer, blocks) == expect


class TestEnumerateBlocks:
    def test_pair_count_example(self):
        fam = block_family(build_layer(Natural(), 3, 4), PlainShape(2))
        assert fam.pair_count == 30
        assert len(fam.blocks) == 30

    def test_single_level_blocks(self):
        fam = block_family(build_layer(Natural(), 4, 4), PlainShape(1))
        assert len(fam.blocks) == 4

    def test_duplicate_shapes_collapse_for_fibonacci(self):
        # 1_F = 2_F means two orientations describe each block
        fam = block_family(build_layer(Fp(1), 1, 3), PlainShape(3))
        assert fam.pair_count == 2
        assert len(fam.blocks) == 1

    def test_pair_count_matches_literal_enumeration(self):
        for F in (Natural(), Fp(1), Gaussian(2)):
            for k in range(1, 4):
                for n in range(k, k + 3):
                    layer = build_layer(F, k, n)
                    if max(layer.level_sizes()) > 8:
                        continue
                    count = 0
                    for sigma in itertools.permutations(range(1, layer.m + 1)):
                        cards = [term(F, s) for s in sigma]
                        pools = [
                            list(itertools.combinations(range(1, size + 1), c))
                            for size, c in zip(layer.level_sizes(), cards)
                        ]
                        for _ in itertools.product(*pools):
                            count += 1
                    assert block_family(layer, PlainShape(layer.m)).pair_count == count

    @pytest.mark.parametrize("F", [Natural(), Fp(1), Gaussian(2), TABLE_B, TABLE_C, TABLE_E],
                             ids=["natural", "fp1", "gaussian2", "tableB", "tableC", "tableE"])
    def test_cardinality_vectors_match_permutation_walk(self, F):
        # the backtracking walk gives the fitting vectors of the full m! walk,
        # in the same order; the pair-count test checks their weights
        cases = [(build_layer(F, k, n), PlainShape(n - k + 1))
                 for k in range(1, 5) for n in range(k, min(k + 4, 7))]
        cases += [(build_layer(F, 1, sum(parts)), MultiShape(parts))
                  for parts in ((2, 2), (1, 2, 1), (3, 2), (2, 1, 2, 1))]
        for layer, shape in cases:
            values = shape_values(layer, shape)
            sizes = layer.level_sizes()
            walked = [vector for vector in sorted(set(itertools.permutations(values)))
                      if all(want <= size for size, want in zip(sizes, vector))]
            assert family_size(layer, shape, block_cap=10**40)[0] == walked

    def test_one_fitting_orientation_costs_no_permutation_walk(self):
        # natural <1->10>: only the identity orientation fits (m! = 3628800)
        layer = build_layer(Natural(), 1, 10)
        assert family_size(layer, PlainShape(10)) == ([tuple(range(1, 11))], 1, 1)
        # the walk runs under `_unwind`, so m beyond the recursion limit works
        deep = build_layer(Natural(), 1, 1500)
        assert family_size(deep, PlainShape(1500))[1:] == (1, 1)

    def test_multi_family_example(self):
        layer = build_layer(Natural(), 1, 4)
        fam = block_family(layer, MultiShape((2, 2)))
        # every block realises a permutation of the vector (1, 2, 1, 2)
        for block in fam.blocks:
            assert sorted(block.level_cardinalities()) == [1, 1, 2, 2]

    def test_cap_refuses(self):
        with pytest.raises(CapExceeded):
            block_family(build_layer(Natural(), 2, 7), PlainShape(6), block_cap=100)

    def test_cap_refuses_inside_the_walk(self, monkeypatch):
        # natural <9->17> has 9! fitting vectors of 9 comb calls each; the
        # walk stops at the first vector whose pairs pass the cap
        layer = build_layer(Natural(), 9, 17)
        calls = 0

        def counted(n, r):
            nonlocal calls
            calls += 1
            return math.comb(n, r)

        def refuse():
            try:
                family_size(layer, PlainShape(9))
            except CapExceeded:
                return
            raise AssertionError("natural <9->17> not refused")

        monkeypatch.setattr(geometry, "comb", counted)
        assert cyclic_garbage(refuse) == 0
        assert 0 < calls <= 100
        with pytest.raises(CapExceeded, match=r"^at least \d+ \(sigma, subsets\) pairs "
                                              r"exceed cap 200000$"):
            family_size(layer, PlainShape(9))

    def test_deterministic_order(self):
        layer = build_layer(Natural(), 3, 4)
        first = block_family(layer, PlainShape(2)).blocks
        second = block_family(layer, PlainShape(2)).blocks
        assert first == second
        assert list(first) == sorted(first, key=lambda b: b.levels)


def _echo(items):
    yield from items


def _call_echo(items):
    got = yield _echo(items)
    yield got


def _logged(log, name):
    log.append(name)
    yield name


def _two_siblings(log):
    for name in ("first", "second"):
        got = yield _logged(log, name)
        yield got


def _depth(n):
    if not n:
        yield 0
        return
    below = yield _depth(n - 1)
    yield below[0] + 1


def _fail_at(n):
    if not n:
        raise ValueError("bottom")
    yield _fail_at(n - 1)


def _error_from(depth):
    try:
        list(_unwind(_fail_at(depth)))
    except ValueError as exc:
        return str(exc)
    return None


class TestUnwind:
    def test_sub_call_receives_its_list(self):
        assert list(_unwind(_call_echo([3, 1, 2]))) == [[3, 1, 2]]
        assert list(_unwind(_call_echo([]))) == [[]]

    def test_root_output_streams_before_a_later_sibling_runs(self):
        log = []
        run = _unwind(_two_siblings(log))
        assert next(run) == ["first"]
        assert log == ["first"]
        assert list(run) == [["second"]]
        assert log == ["first", "second"]

    def test_recursion_deeper_than_recursion_limit(self):
        assert list(_unwind(_depth(10**5))) == [10**5]

    def test_deep_error_propagates(self):
        assert _error_from(5000) == "bottom"

    def test_deep_walks_leave_no_cyclic_garbage(self):
        deep = build_layer(Natural(), 1, 1500)
        walks = {
            "error 5000 calls deep": lambda: _error_from(5000),
            "family size of natural <1->1500>": lambda: family_size(deep, PlainShape(1500)),
        }
        for name, walk in walks.items():
            assert cyclic_garbage(walk) == 0, name


class TestShapeValues:
    def test_plain_is_the_one_part_composition(self):
        layer = build_layer(Fp(1), 1, 5)
        assert PlainShape(5).base_vector() == MultiShape((5,)).base_vector()
        assert shape_values(layer, PlainShape(5)) == (1, 1, 2, 3, 5)
        assert shape_values(layer, MultiShape((5,))) == (1, 1, 2, 3, 5)
        assert shape_values(layer, MultiShape((2, 3))) == (1, 1, 1, 1, 2)

    def test_plain_values_do_not_depend_on_span(self):
        # a plain block's sizes are 1_F..m_F wherever the layer sits
        assert shape_values(build_layer(Natural(), 3, 5), PlainShape(3)) == (1, 2, 3)

    @pytest.mark.parametrize("span, shape", [
        ((2, 4), PlainShape(2)),
        ((2, 4), MultiShape((2, 1))),
        ((1, 4), MultiShape((2, 1))),
    ])
    def test_shape_must_fit_layer(self, span, shape):
        with pytest.raises(ValueError):
            shape_values(build_layer(Natural(), *span), shape)


class TestBlockJson:
    def test_round_trip(self):
        from cobweb.geometry import block_from_json

        layer = build_layer(Natural(), 3, 4)
        block = make_block(layer, PlainShape(2, (2, 1)), [(1, 3), (2,)])
        again = block_from_json(block.to_json_obj())
        assert again == block
        assert again.sigma == block.sigma


class TestRecords:
    """Layers, shapes, blocks and the result records are immutable values."""

    def test_block_identity_ignores_sigma(self):
        from cobweb import Block

        a = Block((1, 2), ((1,), (1, 2)), (1, 2))
        b = Block((1, 2), ((1,), (1, 2)), (2, 1))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Block((1, 2), ((1,), (2, 1)), (1, 2))
        assert a != Block((2, 3), ((1,), (1, 2)), (1, 2))

    def test_equality_within_one_class(self):
        assert build_layer(Natural(), 2, 3) == build_layer(Natural(), 2, 3)
        assert build_layer(Natural(), 2, 3) != build_layer(Gaussian(1), 2, 3)
        assert PlainShape(2) == PlainShape(2) and hash(PlainShape(2)) == hash(PlainShape(2))
        assert PlainShape(2) != MultiShape((2,))

    def test_fields_cannot_be_assigned_or_deleted(self):
        from cobweb import (
            block_count_formula, build_block_graph, construct_tiling, construction_census,
            count_size_d_cliques, enumerate_all_tilings, enumerate_size_d_cliques,
            verify_tiling,
        )
        from cobweb.render import RenderStyle

        layer = build_layer(Natural(), 2, 3)
        family = block_family(layer, PlainShape(2))
        tiling = construct_tiling(Natural(), 2, 3)
        graph = build_block_graph(layer)
        for record, name in (
            (layer, "k"), (PlainShape(2), "m"), (MultiShape((2, 1)), "parts"),
            (family.blocks[0], "levels"), (family, "pair_count"), (tiling, "blocks"),
            (construction_census(Natural(), 2, 3), "distinct"),
            (verify_tiling(tiling), "valid"),
            (enumerate_all_tilings(layer, PlainShape(2), limit=1), "total"),
            (block_count_formula(Natural(), 2, 3), "pair_count"), (graph, "d"),
            (enumerate_size_d_cliques(graph), "cliques"),
            (count_size_d_cliques(graph), "total"), (RenderStyle(), "dx"),
        ):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_constructor_defaults(self):
        from cobweb.blockgraph import CliqueCountResult, CliqueSearchResult
        from cobweb.render import RenderStyle
        from cobweb.tiling import TilingSearchResult

        assert PlainShape(3).sigma is None and MultiShape((2, 1)).sigma is None
        assert TilingSearchResult((), 0, True, 1).states == 0
        assert CliqueSearchResult((), True, 1).states == 0
        assert CliqueCountResult(0, True, 1).states == 0
        style = RenderStyle()
        assert (style.dx, style.dy, style.radius) == (40, 60, 6)
        assert RenderStyle(dx=10).dx == 10 and RenderStyle(dx=10) != style

    def test_multi_shape_parts_are_normalised(self):
        shape = MultiShape([2, "1"])
        assert shape.parts == (2, 1) and shape == MultiShape((2, 1))
        with pytest.raises(ValueError, match="composition parts must be >= 1"):
            MultiShape((2, 0))
