"""Constructive tiler, verifier, counting, and the exact-cover oracle."""

import hashlib
import itertools
import json
import math
import random

import pytest

from cobweb import (
    CapExceeded,
    CustomTable,
    Exhaustive,
    Fp,
    Gaussian,
    LowestLabels,
    Natural,
    PlainShape,
    MultiShape,
    Powers,
    Seeded,
    Tiling,
    TilingFormatError,
    build_layer,
    construct_multi_tiling,
    construct_tiling,
    construction_census,
    count_construction_tilings,
    enumerate_all_tilings,
    enumerate_construction_tilings,
    fnomial,
    lambda_split,
    make_block,
    multi_fnomial,
    parse_family_spec,
    term,
    tiling_from_json,
    verify_tiling,
)
from cobweb import tiling as tiling_module
from cobweb.tiling import VerificationReport, parse_strategy
from cobweb.geometry import Block, block_family, blocks_disjoint, path_masks
from conftest import TABLE_B, compositions_of, cyclic_garbage, lambda_families


def pairwise_overlaps(tiling):
    """The pair violations by the pairwise definition, each block read on
    the layer's span so that blocks_disjoint accepts a mismatched one."""
    span = (tiling.layer.k, tiling.layer.n)
    blocks = [Block(span, b.levels, b.sigma) for b in tiling.blocks]
    return {
        f"blocks {i} and {j} share a maximal path"
        for i, j in itertools.combinations(range(len(blocks)), 2)
        if not blocks_disjoint(blocks[i], blocks[j])
    }


def always_paired_report(tiling, cap):
    """The report of a verifier that always runs the pair pass: the report
    of `verify_tiling` with its pair violations replaced by those of the
    pairwise definition."""
    report = verify_tiling(tiling, volume_cap=cap)
    rest = {v for v in report.violations if not v.endswith("share a maximal path")}
    violations = tuple(sorted(rest | pairwise_overlaps(tiling)))
    return VerificationReport(not violations, violations)


def with_level(tiling, b_idx, pos, level):
    """Copy of the tiling with one block level replaced as given."""
    block = tiling.blocks[b_idx]
    levels = block.levels[:pos] + (level,) + block.levels[pos + 1:]
    blocks = list(tiling.blocks)
    blocks[b_idx] = Block(block.span, levels, block.sigma)
    return Tiling(tiling.layer, tuple(blocks), tiling.kind, "tampered")


def with_vertex(tiling, b_idx, pos, old, new):
    """Copy of the tiling with vertex `old` of one block level replaced."""
    block = tiling.blocks[b_idx]
    level = tuple(sorted(set(block.levels[pos]) - {old} | {new}))
    levels = block.levels[:pos] + (level,) + block.levels[pos + 1:]
    blocks = list(tiling.blocks)
    blocks[b_idx] = Block(block.span, levels, block.sigma)
    return Tiling(tiling.layer, tuple(blocks), tiling.kind, "tampered")


def lowest_path_tilings(layer, family):
    """Reference exact cover: plain backtracking over `path_masks` that
    branches on the lowest uncovered path, with no memo.  Returns the
    block tuples of every tiling, in the order `Tiling.blocks` keeps."""
    blocks = block_family(layer, family).blocks
    masks = path_masks(layer, blocks)
    full = (1 << layer.volume()) - 1
    every = []

    def search(covered, chosen):
        if covered == full:
            every.append(tuple(sorted((blocks[i] for i in chosen), key=lambda b: b.levels)))
            return
        lowest = (~covered & full & -(~covered & full)).bit_length() - 1
        for i, mask in enumerate(masks):
            if mask >> lowest & 1 and not mask & covered:
                search(covered | mask, chosen + [i])

    search(0, [])
    return every


class TestConstructTiling:
    def test_natural_three_four(self):
        tiling = construct_tiling(Natural(), 3, 4)
        assert len(tiling.blocks) == fnomial(Natural(), 4, 2) == 6
        assert verify_tiling(tiling).valid

    def test_single_level_base_case(self):
        tiling = construct_tiling(Natural(), 4, 4)
        assert len(tiling.blocks) == 4
        assert all(b.path_count() == 1 for b in tiling.blocks)

    def test_fibonacci_five_seven(self):
        tiling = construct_tiling(Fp(1), 5, 7)
        assert len(tiling.blocks) == fnomial(Fp(1), 7, 3) == 260
        assert verify_tiling(tiling).valid

    def test_gaussian_batches(self):
        # lambda_M = q^k > 1 exercises repeated batch handling
        tiling = construct_tiling(Gaussian(2), 2, 3)
        assert len(tiling.blocks) == fnomial(Gaussian(2), 3, 2) == 7
        assert verify_tiling(tiling).valid

    def test_all_families_all_small_layers(self):
        for F in lambda_families():
            for n in range(1, 8):
                for k in range(1, n + 1):
                    layer = build_layer(F, k, n)
                    if layer.m > 4 or layer.volume() > 5000:
                        continue
                    tiling = construct_tiling(F, k, n)
                    report = verify_tiling(tiling)
                    assert report.valid, (F.spec_string(), k, n, report.violations[:3])
                    assert len(tiling.blocks) == fnomial(F, n, layer.m)

    def test_outputs_pinned_across_criterion_3_roster(self):
        # SHA-256 over the JSON of every construction of criterion 3's
        # roster under three strategies; a change in the blocks, their
        # order, their sigmas or the draw order of a seeded strategy moves it
        digest = hashlib.sha256()
        count = 0
        for spec in ("lowest", "seed:1", "seed:42"):
            for F in lambda_families():
                for n in range(1, 8):
                    for k in range(1, n + 1):
                        layer = build_layer(F, k, n)
                        if layer.m > 4 or layer.volume() > 5000:
                            continue
                        tiling = construct_tiling(F, k, n, parse_strategy(spec))
                        digest.update(json.dumps(tiling.to_json_obj(), sort_keys=True).encode())
                        count += 1
                for n in range(1, 6):
                    if build_layer(F, 1, n).volume() > 5000:
                        continue
                    for parts in compositions_of(n):
                        tiling = construct_multi_tiling(F, n, parts, parse_strategy(spec))
                        digest.update(json.dumps(tiling.to_json_obj(), sort_keys=True).encode())
                        count += 1
        assert count == 1668
        assert digest.hexdigest() == (
            "b71681c36ed3e06f434d04f88fa1143b54c65a4666a5157c0cc870a7c9702663")

    def test_lambda_rule_required(self):
        from cobweb import LambdaRuleError

        with pytest.raises(LambdaRuleError):
            construct_tiling(CustomTable((1, 2, 3)), 2, 3)


class TestStrategies:
    def test_lowest_labels_deterministic(self):
        a = construct_tiling(Natural(), 2, 4)
        b = construct_tiling(Natural(), 2, 4, LowestLabels())
        assert a.key() == b.key()

    def test_seeded_reproducible_and_valid(self):
        for seed in (0, 7, 123):
            a = construct_tiling(Natural(), 2, 4, Seeded(seed))
            b = construct_tiling(Natural(), 2, 4, Seeded(seed))
            assert a.key() == b.key()
            assert verify_tiling(a).valid

    def test_seeds_vary_output(self):
        keys = {construct_tiling(Natural(), 3, 5, Seeded(s)).key() for s in range(6)}
        assert len(keys) > 1

    def test_every_exhaustive_choice_is_valid(self):
        for F in (Natural(), Fp(1)):
            for tiling in enumerate_construction_tilings(F, 2, 4):
                assert verify_tiling(tiling).valid

    def test_exhaustive_first_matches_lowest(self):
        first = next(iter(enumerate_construction_tilings(Natural(), 3, 4)))
        assert first.key() == construct_tiling(Natural(), 3, 4, Exhaustive()).key()

    def test_exhaustive_enumeration_pinned(self):
        # SHA-256 over the JSON of every exhaustive construction of the small
        # layers of six families; a change in the tilings, their blocks or
        # the order the choice sequences come in moves it
        digest = hashlib.sha256()
        count = 0
        for spec in ("natural", "fp:p=1", "fp:p=2", "powers:q=2", "gaussian:q=2",
                     "modgauss:q=2"):
            F = parse_family_spec(spec)
            for n in range(1, 7):
                for k in range(1, n + 1):
                    if count_construction_tilings(F, k, n) > 3000:
                        continue
                    for tiling in enumerate_construction_tilings(F, k, n):
                        digest.update(json.dumps(tiling.to_json_obj(), sort_keys=True).encode())
                        count += 1
        assert count == 9109
        assert digest.hexdigest() == (
            "982dad1086749702523dbf1bf378b434ca5986772f26876fe75dd5e3e411df4f")

    def test_exhaustive_deals_deeper_than_recursion_limit(self):
        # the top level of powers:q=2 <2->11> is dealt into 1024 batches
        tiling = next(enumerate_construction_tilings(Powers(2), 2, 11))
        assert len(tiling.blocks) == 1024
        assert verify_tiling(tiling).valid

    def test_exhaustive_deals_every_assignment_once_in_order(self):
        # every way to deal the vertices into sorted batches of the sizes,
        # each once, in lexicographic order
        verts = (2, 3, 5, 7, 11, 13, 17, 19)
        for sizes, count in [((2, 2, 2, 2), 2520), ((3, 1, 4), 280)]:
            deals = list(Exhaustive().assignments(verts, sizes))
            assert len(deals) == count
            assert deals == sorted(set(deals))
            for deal in deals:
                assert tuple(map(len, deal)) == sizes
                assert all(batch == tuple(sorted(batch)) for batch in deal)
                assert sorted(v for batch in deal for v in batch) == list(verts)


    def test_constructions_leave_no_cyclic_garbage(self):
        constructions = {
            "census": lambda: construction_census(Natural(), 3, 5),
            "seeded plain": lambda: construct_tiling(Natural(), 3, 5, Seeded(1)),
            "seeded multi": lambda: construct_multi_tiling(Fp(1), 5, (2, 1, 2), Seeded(1)),
            "exhaustive deals": lambda: list(Exhaustive().assignments(tuple(range(8)),
                                                                       (2, 2, 2, 2))),
        }
        for name, construction in constructions.items():
            assert cyclic_garbage(construction) == 0, name


class TestMultiTiling:
    def test_example_two_two(self):
        tiling = construct_multi_tiling(Natural(), 4, (2, 2))
        assert len(tiling.blocks) == multi_fnomial(Natural(), (2, 2)) == 6
        assert verify_tiling(tiling).valid

    def test_whole_layer_single_block(self):
        tiling = construct_multi_tiling(Natural(), 4, (4,))
        assert len(tiling.blocks) == 1
        assert verify_tiling(tiling).valid

    def test_two_one(self):
        tiling = construct_multi_tiling(Natural(), 3, (2, 1))
        assert len(tiling.blocks) == multi_fnomial(Natural(), (2, 1)) == 3
        assert verify_tiling(tiling).valid

    def test_all_families_all_compositions(self):
        for F in lambda_families():
            for n in range(1, 6):
                if build_layer(F, 1, n).volume() > 5000:
                    continue
                for parts in compositions_of(n):
                    tiling = construct_multi_tiling(F, n, parts)
                    report = verify_tiling(tiling)
                    assert report.valid, (F.spec_string(), parts, report.violations[:3])
                    assert len(tiling.blocks) == multi_fnomial(F, parts)

    def test_composition_must_sum(self):
        with pytest.raises(ValueError):
            construct_multi_tiling(Natural(), 4, (2, 3))


class TestVerify:
    def test_duplicated_block_invalid(self):
        tiling = construct_tiling(Natural(), 3, 4)
        doubled = Tiling(
            tiling.layer,
            tiling.blocks[:1] + tiling.blocks,
            tiling.kind,
            "tampered",
        )
        report = verify_tiling(doubled)
        assert not report.valid
        assert any("share a maximal path" in v for v in report.violations)
        assert "blocks 0 and 1 share a maximal path" in report.violations

    def test_missing_block_invalid(self):
        tiling = construct_tiling(Natural(), 3, 4)
        short = Tiling(tiling.layer, tiling.blocks[1:], tiling.kind, "tampered")
        report = verify_tiling(short)
        assert not report.valid
        assert any("cover" in v for v in report.violations)

    def test_wrong_shape_invalid(self):
        from cobweb.geometry import Block

        layer = build_layer(Natural(), 2, 3)
        full = Block((2, 3), ((1, 2), (1, 2, 3)), (1, 2))
        report = verify_tiling(Tiling(layer, (full,), PlainShape(2), "tampered"))
        assert not report.valid
        assert any("shape" in v for v in report.violations)

    def test_pair_violations_match_pairwise_definition(self):
        for tiling in (
            construct_tiling(Natural(), 3, 4),
            construct_tiling(Fp(1), 2, 4),
            construct_multi_tiling(Natural(), 4, (2, 2)),
        ):
            k, n = tiling.layer.k, tiling.layer.n
            first = tiling.blocks[0]
            level = first.levels[-1]
            outsider = min(set(range(1, tiling.layer.level_size(n) + 1)) - set(level))
            tampered = {
                "duplicate": Tiling(tiling.layer, tiling.blocks + (first,),
                                    tiling.kind, "tampered"),
                "move": with_vertex(tiling, 0, len(first.levels) - 1, level[0], outsider),
                "span": Tiling(tiling.layer,
                               tiling.blocks + (Block((k, n + 1), first.levels, first.sigma),),
                               tiling.kind, "tampered"),
                # compared with the others over its levels only
                "short": Tiling(tiling.layer,
                                tiling.blocks + (Block((k, n - 1), first.levels[:-1],
                                                       first.sigma),),
                                tiling.kind, "tampered"),
            }
            for name, bad in tampered.items():
                report = verify_tiling(bad)
                pairs = {v for v in report.violations if "share a maximal path" in v}
                assert pairs, name
                assert pairs == pairwise_overlaps(bad), name
                assert not report.valid
            last = len(tiling.blocks)
            assert f"block {last}: span {(k, n + 1)} mismatches layer" in (
                verify_tiling(tampered["span"]).violations)

    @pytest.mark.parametrize("cap", [5000, 0])
    def test_reports_equal_an_always_paired_reference(self, cap):
        # every corruption of seeded constructions from five families: the
        # pair pass is skipped only where it finds nothing
        tilings = [
            construct_tiling(Natural(), 3, 5, Seeded(1)),
            construct_tiling(Fp(1), 2, 5, Seeded(2)),
            construct_tiling(Powers(2), 2, 4, Seeded(3)),
            construct_tiling(Gaussian(2), 2, 3, Seeded(4)),
            construct_multi_tiling(Natural(), 5, (2, 1, 2), Seeded(5)),
            construct_multi_tiling(Fp(2), 4, (1, 3), Seeded(6)),
        ]
        rng = random.Random(0)
        checked = 0
        for tiling in tilings:
            k, n = tiling.layer.k, tiling.layer.n
            sizes = tiling.layer.level_sizes()
            for i in rng.sample(range(len(tiling.blocks)), min(3, len(tiling.blocks))):
                block = tiling.blocks[i]
                blocks = tiling.blocks
                pos = rng.randrange(len(block.levels))
                level = block.levels[pos]
                bad = {
                    "valid": tiling,
                    "duplicate": Tiling(tiling.layer, blocks + (block,), tiling.kind, "bad"),
                    "missing": Tiling(tiling.layer, blocks[:i] + blocks[i + 1:],
                                      tiling.kind, "bad"),
                    "repeated vertex": with_level(tiling, i, pos, (level[0],) + level),
                    "empty level": with_level(tiling, i, pos, ()),
                    "off-level vertex": with_vertex(tiling, i, pos, level[-1], sizes[pos] + 1),
                    "re-spanned": Tiling(tiling.layer, blocks[:i] + (
                        Block((k, n + 1), block.levels, block.sigma),) + blocks[i + 1:],
                        tiling.kind, "bad"),
                    "re-spanned copy": Tiling(tiling.layer, blocks + (
                        Block((k, n + 1), block.levels, block.sigma),), tiling.kind, "bad"),
                }
                outside = [v for v in range(1, sizes[pos] + 1) if v not in level]
                if outside:
                    bad["moved vertex"] = with_vertex(tiling, i, pos, level[0],
                                                      rng.choice(outside))
                for name, corrupted in bad.items():
                    report = verify_tiling(corrupted, volume_cap=cap)
                    assert report == always_paired_report(corrupted, cap), name
                    assert report.valid == (name == "valid"), name
                    checked += 1
        assert checked > 100

    @pytest.mark.parametrize("cap", [5000, 0])
    def test_vertex_off_level_reported_not_raised(self, cap):
        # vertex 0 and a vertex above the level size, with and without the
        # explicit path cover
        tiling = construct_tiling(Natural(), 2, 3)
        top = tiling.blocks[0].levels[-1]
        for vertex in (0, 9):
            bad = with_vertex(tiling, 0, 1, top[-1], vertex)
            report = verify_tiling(bad, volume_cap=cap)
            assert not report.valid
            assert "block 0: level 3 outside layer" in report.violations


    @pytest.mark.parametrize("cap", [5000, 0])
    def test_repeated_vertex_reported(self, cap):
        # (1, 1) in place of (1, 2): the path count counts the repeat, so
        # beyond the volume cap only this check sees it
        tiling = construct_tiling(Natural(), 3, 4)
        first = tiling.blocks[0]
        assert first.levels[-1] == (1, 2)
        bad = Tiling(tiling.layer,
                     (Block(first.span, first.levels[:-1] + ((1, 1),), first.sigma),)
                     + tiling.blocks[1:], tiling.kind, "tampered")
        report = verify_tiling(bad, volume_cap=cap)
        assert not report.valid
        assert "block 0: level 4 repeats a vertex" in report.violations

    def test_repeated_vertex_counts_its_paths_twice(self):
        # the top level (1, 1) holds each of the block's paths twice; the
        # explicit cover reports that as it reports a duplicated block
        tiling = construct_tiling(Natural(), 3, 4)
        first = tiling.blocks[0]
        bad = Tiling(tiling.layer,
                     (Block(first.span, first.levels[:-1] + ((1, 1),), first.sigma),)
                     + tiling.blocks[1:], tiling.kind, "tampered")
        assert "explicit path sets overlap" in verify_tiling(bad).violations

    @pytest.mark.parametrize("cap", [5000, 0])
    def test_level_count_mismatch_reported(self, cap):
        # a one-level block on fp:p=1 <1->2>, and a three-level block with
        # the span of natural <2->3>; neither raises
        short = tiling_from_json({"family": "fp:p=1", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1]], "sigma": [1]}]})
        report = verify_tiling(short, volume_cap=cap)
        assert not report.valid
        assert "block 0: 1 levels, layer has 2" in report.violations
        tiling = construct_tiling(Natural(), 2, 3)
        first = tiling.blocks[0]
        long = Tiling(tiling.layer,
                      (Block(first.span, first.levels + ((1,),), first.sigma),)
                      + tiling.blocks[1:], tiling.kind, "tampered")
        report = verify_tiling(long, volume_cap=cap)
        assert not report.valid
        assert "block 0: 3 levels, layer has 2" in report.violations


    @pytest.mark.parametrize("shape, span, subsets, phrase, others", [
        (PlainShape(2), (2, 3), [(1,)], "1 levels, layer has 2", ()),
        (PlainShape(2), (2, 3), [(1,), (1, 2), (1,)], "3 levels, layer has 2", ()),
        (PlainShape(2), (2, 3), [(), (1, 2)], "level 2 empty",
         ("cardinalities (0, 2) do not realise the shape",)),
        (PlainShape(2), (2, 3), [(3,), (1, 2)], "level 2 outside layer", ()),
        (PlainShape(2), (2, 3), [(1,), (2, 2)], "level 3 repeats a vertex", ()),
        (PlainShape(2), (2, 3), [(1, 2), (1, 2)],
         "cardinalities (2, 2) do not realise the shape", ()),
        (MultiShape((2, 2)), (1, 4), [(1,), (1, 2), (1, 2), (1, 2)],
         "cardinalities (1, 2, 2, 2) do not realise the shape", ()),
    ], ids=["short", "long", "empty", "outside", "repeat", "cardinalities", "multi"])
    def test_make_block_raises_the_phrase_verify_reports(self, shape, span, subsets,
                                                        phrase, others):
        # one block check: make_block raises the first defect, verify_tiling
        # reports each one for the block
        layer = build_layer(Natural(), *span)
        with pytest.raises(ValueError) as info:
            make_block(layer, shape, subsets)
        assert str(info.value) == phrase
        block = Block(span, tuple(tuple(sorted(level)) for level in subsets), ())
        report = verify_tiling(Tiling(layer, (block,), shape, "tampered"))
        lines = [v.removeprefix("block 0: ") for v in report.violations
                 if v.startswith("block 0: ")]
        assert sorted(lines) == sorted((phrase,) + others)

    @pytest.mark.parametrize("cap", [5000, 0])
    def test_block_without_levels_covers_no_path(self, cap):
        # the empty product is 1, but a block off the layer covers nothing
        tiling = tiling_from_json({"family": "natural", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [], "sigma": []}]})
        report = verify_tiling(tiling, volume_cap=cap)
        assert "block 0: 0 levels, layer has 2" in report.violations
        assert "blocks cover 0 paths, layer has 2" in report.violations
        assert "blocks cover 1 paths, layer has 2" not in report.violations

    @pytest.mark.parametrize("cap", [5000, 0])
    def test_off_layer_blocks_leave_the_path_total(self, cap):
        # a re-spanned and a vertex-off-level copy of block 0 are reported
        # for their defect, not as extra covered paths
        tiling = construct_tiling(Natural(), 2, 3)
        first = tiling.blocks[0]
        for extra in (Block((2, 4), first.levels, first.sigma),
                      Block(first.span, first.levels[:-1] + ((9,) * len(first.levels[-1]),),
                            first.sigma)):
            bad = Tiling(tiling.layer, tiling.blocks + (extra,), tiling.kind, "tampered")
            report = verify_tiling(bad, volume_cap=cap)
            assert not report.valid
            assert not any(v.startswith("blocks cover") for v in report.violations)


class TestConstructionCount:
    def test_bases(self):
        for F in lambda_families():
            assert count_construction_tilings(F, 5, 5) == 1
            assert count_construction_tilings(F, 1, 4) == 1

    def test_natural_two_three(self):
        assert count_construction_tilings(Natural(), 2, 3) == 3

    def test_formula_equals_choice_sequence_enumeration(self):
        # the closed recurrence must reproduce the literal tree size
        cases = [
            (Natural(), 2, 3), (Natural(), 2, 4), (Natural(), 3, 4),
            (Natural(), 4, 5), (Fp(1), 2, 4), (Fp(1), 3, 4),
            (Gaussian(2), 2, 3), (Fp(2), 2, 3),
        ]
        for F, k, n in cases:
            census = construction_census(F, k, n, limit=50_000)
            assert census.sequences == count_construction_tilings(F, k, n)

    def test_deep_layer_counts_without_recursion(self):
        # count(2, n) = n * count(2, n - 1): n vertices dealt into one
        # batch of n-1 and one of 1, so count(2, n) = n!/2
        assert count_construction_tilings(Natural(), 2, 1200) == math.factorial(1200) // 2

    def test_equals_the_top_down_recurrence(self):
        def reference(F, lo, hi):
            if lo == hi or lo == 1:
                return 1
            m = hi - lo + 1
            lam = lambda_split(F, lo - 1, m)
            ways = math.factorial(term(F, hi)) // (
                math.factorial(term(F, m)) ** lam.lambda_m
                * math.factorial(term(F, lo - 1)) ** lam.lambda_k)
            return (ways * reference(F, lo, hi - 1) ** lam.lambda_m
                    * reference(F, lo - 1, hi - 1) ** lam.lambda_k)

        for F in lambda_families():
            for n in range(1, 7):
                for k in range(1, n + 1):
                    if build_layer(F, k, n).volume() <= 5000:
                        assert count_construction_tilings(F, k, n) == reference(F, k, n)

    def test_single_level_not_split_by_one_is_refused(self):
        # table:[2,3] <2->2>: three vertices are no groups of 1_F = 2, so
        # the layer has no tiling, as the exact cover certifies
        F = CustomTable((2, 3))
        for build in (construct_tiling, construction_census, count_construction_tilings,
                      lambda *a: list(enumerate_construction_tilings(*a))):
            with pytest.raises(ValueError) as info:
                build(F, 2, 2)
            assert str(info.value) == (
                "level 2 has 3 vertices, not a multiple of 1_F = 2, so the layer has no tiling")
        result = enumerate_all_tilings(build_layer(F, 2, 2), PlainShape(1))
        assert result.total == 0 and result.complete

    def test_census_cap(self):
        with pytest.raises(CapExceeded):
            construction_census(Fp(1), 5, 6, limit=100)


class TestExhaustiveOracle:
    def test_single_level_unique(self):
        layer = build_layer(Natural(), 3, 3)
        res = enumerate_all_tilings(layer, PlainShape(1))
        assert res.total == 1 and res.complete

    def test_natural_two_three_total(self):
        # 2x3 grid covered by full columns or same-row pairs: 4 covers
        layer = build_layer(Natural(), 2, 3)
        res = enumerate_all_tilings(layer, PlainShape(2))
        assert res.total == 4 and res.complete
        assert res.total >= count_construction_tilings(Natural(), 2, 3)
        for tiling in res.tilings:
            assert verify_tiling(tiling).valid

    def test_construction_outputs_are_found_by_oracle(self):
        layer = build_layer(Natural(), 3, 4)
        oracle_keys = {t.key() for t in enumerate_all_tilings(layer, PlainShape(2)).tilings}
        for tiling in enumerate_construction_tilings(Natural(), 3, 4):
            assert tiling.key() in oracle_keys

    def test_natural_dominance(self):
        # construction count <= exhaustive total, strict somewhere
        strict = False
        for (k, n) in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]:
            layer = build_layer(Natural(), k, n)
            res = enumerate_all_tilings(layer, PlainShape(layer.m))
            assert res.complete
            eq3 = count_construction_tilings(Natural(), k, n)
            census = construction_census(Natural(), k, n, limit=100_000)
            assert census.distinct == eq3
            assert eq3 <= res.total
            strict = strict or eq3 < res.total
        assert strict

    def test_fibonacci_formula_overcounts_distinct_tilings(self):
        # Pinned behaviour: with repeated terms (1_F = 2_F) distinct
        # choice sequences assemble identical block sets, so the
        # construction count exceeds both the distinct-output count and
        # even the total number of tilings.
        layer = build_layer(Fp(1), 2, 3)
        res = enumerate_all_tilings(layer, PlainShape(2))
        census = construction_census(Fp(1), 2, 3)
        assert count_construction_tilings(Fp(1), 2, 3) == 2
        assert census.distinct == 1
        assert res.total == 1 and res.complete

    def test_zero_tilings_with_certificate_vacuous(self):
        # admissible table whose blocks cannot fit the layer at all
        T = CustomTable((1, 4, 2, 2))
        from cobweb import is_cobweb_admissible

        assert is_cobweb_admissible(T, 4).admissible_up_to_bound
        layer = build_layer(T, 3, 4)
        res = enumerate_all_tilings(layer, PlainShape(2))
        assert res.total == 0 and res.complete

    def test_zero_tilings_with_certificate_nonvacuous(self):
        # admissible table with 18 candidate blocks and no exact cover:
        # every block covers an even number of cells in each middle-level
        # row, but rows hold 3 cells
        from cobweb import block_family, is_cobweb_admissible

        T = CustomTable((1, 2, 2, 1, 4, 3))
        assert is_cobweb_admissible(T, 6).admissible_up_to_bound
        layer = build_layer(T, 4, 6)
        assert len(block_family(layer, PlainShape(3)).blocks) == 18
        res = enumerate_all_tilings(layer, PlainShape(3))
        assert res.total == 0 and res.complete

    def test_budget_marks_incomplete(self):
        layer = build_layer(Natural(), 3, 5)
        res = enumerate_all_tilings(layer, PlainShape(3), node_budget=1000)
        assert not res.complete

    def test_volume_cap_refuses(self):
        layer = build_layer(Natural(), 1, 8)
        with pytest.raises(CapExceeded):
            enumerate_all_tilings(layer, PlainShape(8))

    @pytest.mark.parametrize("F,k,n,scan_words,total,nodes,states", [
        (Natural(), 2, 6, tiling_module.SCAN_WORDS, 12142, 11_743, 8_714),
        (Natural(), 4, 5, tiling_module.SCAN_WORDS, 44928, 7_471, 3_202),
        (Fp(1), 3, 5, tiling_module.SCAN_WORDS, 7176824, 111_580, 54_756),
        # 70 blocks take 2 words: windows of 2 and 3 paths
        (Natural(), 4, 5, 4, 44928, 9_977, 4_093),
        (Natural(), 4, 5, 6, 44928, 9_902, 4_107),
    ], ids=["natural-2-6", "natural-4-5", "fp1-3-5", "natural-4-5-two-paths",
            "natural-4-5-three-paths"])
    def test_branching_rule_pinned(self, monkeypatch, F, k, n, scan_words, total, nodes,
                                   states):
        # the work of a count pins the branch path of every node, chosen
        # as the first window path with at most 2 live blocks, else the
        # lowest with the fewest: another path, cutoff, tie-break or scan
        # window changes the nodes or the states
        monkeypatch.setattr(tiling_module, "SCAN_WORDS", scan_words)
        layer = build_layer(F, k, n)
        res = enumerate_all_tilings(layer, PlainShape(layer.m), limit=0)
        assert res.complete and res.total == total
        assert (res.nodes, res.states) == (nodes, states)

    def test_search_deeper_than_recursion_limit(self):
        # one level of 1200 vertices: 1200 singleton blocks, one tiling,
        # found 1200 blocks deep
        layer = build_layer(Natural(), 1200, 1200)
        res = enumerate_all_tilings(layer, PlainShape(1), limit=0)
        assert res.complete and res.total == 1
        assert (res.nodes, res.states) == (1201, 1200)

    @pytest.mark.parametrize("budget", [1, 10])
    def test_budget_stop_keeps_a_prefix(self, budget):
        # the search stops at the first node over the budget, and what it
        # collected is the start of the complete run's list
        layer = build_layer(Natural(), 3, 4)
        whole = enumerate_all_tilings(layer, PlainShape(2))
        cut = enumerate_all_tilings(layer, PlainShape(2), node_budget=budget)
        assert whole.complete and whole.total == 132
        assert not cut.complete
        assert cut.nodes == budget + 1
        assert cut.tilings == whole.tilings[:len(cut.tilings)]
        assert cut.total == len(cut.tilings)


    @pytest.mark.parametrize("F,k,n,parts", [
        (Natural(), 2, 5, None), (Natural(), 4, 5, None), (Powers(2), 2, 3, None),
        (Fp(1), 2, 5, None), (CustomTable((1, 2, 2, 1, 4, 3)), 4, 6, None),
        (Natural(), 1, 4, (2, 2)),
    ], ids=["natural-2-5", "natural-4-5", "powers-2-3", "fp1-2-5", "certificate",
            "natural-1-4-multi-2-2"])
    def test_agrees_with_lowest_path_reference(self, F, k, n, parts):
        # the branching rule and the memo give the reference's
        # total, and every collected tiling is one of the reference's
        layer = build_layer(F, k, n)
        family = PlainShape(layer.m) if parts is None else MultiShape(parts)
        every = lowest_path_tilings(layer, family)
        res = enumerate_all_tilings(layer, family, limit=0)
        assert res.complete and res.total == len(every)
        assert res.tilings == () and res.states > 0
        for limit in (1, 7, len(every) + 1):
            res = enumerate_all_tilings(layer, family, limit=limit)
            assert res.complete and res.total == len(every)
            collected = [t.blocks for t in res.tilings]
            assert len(collected) == min(limit, len(every))
            assert len(set(collected)) == len(collected)
            assert set(collected) <= set(every)

    @pytest.mark.parametrize("F,k,n,parts", [
        (Natural(), 2, 5, None), (Fp(1), 3, 5, None), (Powers(2), 2, 3, None),
        (Gaussian(2), 2, 3, None), (CustomTable((1, 2, 2, 1, 4, 3)), 4, 6, None),
        (Natural(), 1, 4, (2, 2)),
    ], ids=["natural-2-5", "fp1-3-5", "powers-2-3", "gaussian-2-3", "certificate",
            "natural-1-4-multi-2-2"])
    def test_path_index_and_clash_masks_match_path_masks(self, F, k, n, parts):
        # bit b of on_path[p] is bit p of block b's path mask, and a clash
        # mask holds exactly the blocks whose path masks meet the block's
        layer = build_layer(F, k, n)
        family = PlainShape(layer.m) if parts is None else MultiShape(parts)
        blocks = block_family(layer, family).blocks
        masks = path_masks(layer, blocks)
        on_path = tiling_module._blocks_on_paths(layer, blocks)
        assert len(on_path) == layer.volume()
        for p, through in enumerate(on_path):
            assert through == sum(1 << b for b, mask in enumerate(masks) if mask >> p & 1)
        for mask in masks:
            clash = sum(1 << b for b, other in enumerate(masks) if mask & other)
            assert tiling_module._clash_mask(on_path, mask) == clash

    @pytest.mark.parametrize("scan_words,memo_bytes,states", [
        (1, tiling_module.MEMO_BYTES, None), (tiling_module.SCAN_WORDS, 0, 0),
        (tiling_module.SCAN_WORDS, 256, 1),
    ], ids=["lowest-path-only", "no-memo", "memo-of-one"])
    def test_narrow_scan_and_full_memo_keep_the_total(self, monkeypatch, scan_words,
                                                      memo_bytes, states):
        # looking at one path per node, or a memo with no room left, changes
        # the work but not the count
        monkeypatch.setattr(tiling_module, "SCAN_WORDS", scan_words)
        monkeypatch.setattr(tiling_module, "MEMO_BYTES", memo_bytes)
        layer = build_layer(Natural(), 4, 5)
        res = enumerate_all_tilings(layer, PlainShape(layer.m), limit=0)
        assert res.complete and res.total == 44928
        assert states is None or res.states == states

    def test_searches_leave_no_cyclic_garbage(self):
        # each search holds its memo in plain locals, so it is freed when
        # the search returns, not at the next cycle collection
        layer = build_layer(Natural(), 2, 5)
        family = PlainShape(layer.m)
        searches = {
            "count": lambda: enumerate_all_tilings(layer, family, limit=0),
            "collecting": lambda: enumerate_all_tilings(layer, family, limit=3),
            "to a budget": lambda: enumerate_all_tilings(layer, family, node_budget=100),
            "construction count": lambda: count_construction_tilings(Natural(), 3, 6),
            "shape inference": lambda: tiling_module._parts_from_cardinalities(
                Natural(), 4, [1, 2, 1, 3, 1, 2]),
        }
        for name, search in searches.items():
            assert cyclic_garbage(search) == 0, name

    @pytest.mark.parametrize("budget", [1, 10])
    def test_counting_budget_stop_keeps_a_lower_bound(self, budget):
        layer = build_layer(Natural(), 3, 4)
        cut = enumerate_all_tilings(layer, PlainShape(2), limit=0, node_budget=budget)
        assert not cut.complete
        assert cut.nodes == budget + 1
        assert 0 <= cut.total <= 132


class TestTilingJson:
    def test_round_trip_plain(self):
        tiling = construct_tiling(Natural(), 3, 4)
        again = tiling_from_json(tiling.to_json_obj())
        assert again.key() == tiling.key()
        assert isinstance(again.kind, PlainShape)
        assert verify_tiling(again).valid

    def test_round_trip_multi(self):
        tiling = construct_multi_tiling(Natural(), 4, (2, 2))
        again = tiling_from_json(tiling.to_json_obj())
        assert again.key() == tiling.key()
        assert isinstance(again.kind, MultiShape)
        assert sorted(again.kind.parts) == [2, 2]
        assert verify_tiling(again).valid

    def test_two_by_two_shape_inferred(self):
        # the level sizes 1, 2, 1, 4 realise (2, 2) with base values
        # [1, 1, 2, 2]; taking the longest run 1, 2, 1 first fits nothing
        T = CustomTable((1, 2, 1, 4))
        tiling = tiling_from_json({"family": T.spec_string(), "span": [1, 4], "blocks": [
            {"span": [1, 4], "levels": [[1], [1, 2], [1], [1, 2]], "sigma": [1, 2, 3, 4]},
            {"span": [1, 4], "levels": [[1], [1, 2], [1], [3, 4]], "sigma": [1, 2, 3, 4]},
        ]})
        assert tiling.kind == MultiShape((2, 2))
        assert verify_tiling(tiling).valid

    def test_blocks_keep_file_order(self):
        # violations name blocks by their position in the file
        obj = construct_tiling(Natural(), 3, 4).to_json_obj()
        obj["blocks"].reverse()
        obj["blocks"][0]["levels"][-1][-1] = 9
        tiling = tiling_from_json(obj)
        assert [list(map(list, b.levels)) for b in tiling.blocks] == [
            b["levels"] for b in obj["blocks"]]
        report = verify_tiling(tiling)
        assert "block 0: level 4 outside layer" in report.violations
        assert not any(v.startswith("block 5") for v in report.violations)

    @pytest.mark.parametrize("F", [Fp(1), Natural(), TABLE_B],
                             ids=lambda F: F.spec_string())
    def test_inferred_parts_realise_every_composition(self, F):
        # the inferred composition has the same multiset of base term values
        # as the one the cardinalities came from
        from cobweb.tiling import _parts_from_cardinalities

        def values(parts):
            return sorted(term(F, v) for v in MultiShape(parts).base_vector())

        for n in range(1, 7):
            for parts in compositions_of(n):
                found = _parts_from_cardinalities(F, n, values(parts))
                assert values(found) == values(parts), parts
                assert list(found) == sorted(found, reverse=True)

    @pytest.mark.parametrize("obj", [
        [],
        {"span": [1, 2], "blocks": []},
        {"family": 7, "span": [1, 2], "blocks": []},
        {"family": "natural", "span": [1], "blocks": []},
        {"family": "natural", "span": [1, "2"], "blocks": []},
        {"family": "natural", "span": [1, 2], "blocks": {}},
        {"family": "natural", "span": [1, 2], "blocks": [[1]]},
        {"family": "natural", "span": [1, 2], "blocks": [
            {"levels": [[1], [1, 2]], "sigma": [1, 2]}]},
        {"family": "natural", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1], [1, "2"]], "sigma": [1, 2]}]},
        {"family": "natural", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1], [1, True]], "sigma": [1, 2]}]},
        {"family": "natural", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1], 2], "sigma": [1, 2]}]},
        {"family": "natural", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1], [1, 2]]}]},
    ])
    def test_malformed_json_refused(self, obj):
        with pytest.raises(TilingFormatError, match="^malformed tiling: "):
            tiling_from_json(obj)
