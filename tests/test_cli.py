"""CLI behaviour: output, exit codes, files, determinism."""

import contextlib
import copy
import functools
import io
import json
import math
from pathlib import PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import Fp, Natural, construct_multi_tiling, construct_tiling, fnomial
from cobweb import blockgraph as blockgraph_module
from cobweb.cli import _fs_path, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSeq:
    def test_fp2_prefix(self, capsys):
        rc, out, _ = run(capsys, "seq", "fp:p=2", "--count", "6")
        assert rc == 0
        assert out.strip() == "1 2 5 12 29 70"

    def test_json_mode(self, capsys):
        rc, out, _ = run(capsys, "seq", "natural", "--count", "3", "--json")
        assert rc == 0
        assert json.loads(out) == {"family": "natural", "terms": [1, 2, 3]}


class TestCoeff:
    def test_value(self, capsys):
        rc, out, _ = run(capsys, "coeff", "natural", "4", "2")
        assert rc == 0 and out.strip() == "6"

    def test_check_recurrence_prints_both_sides(self, capsys):
        rc, out, _ = run(capsys, "coeff", "gaussian:q=2", "5", "2",
                         "--check-recurrence", "--json")
        data = json.loads(out)
        assert rc == 0
        assert data["recurrence_holds"]
        assert data["recurrence_lhs"] == data["recurrence_rhs"] == data["value"]

    def test_value_beyond_default_digit_limit(self, capsys):
        # 300 over 150 for the Fibonacci numbers has more than 4300 digits
        rc, out, err = run(capsys, "coeff", "fp:p=1", "300", "150", "--json")
        assert rc == 0 and err == ""
        value = json.loads(out)["value"]
        assert value == fnomial(Fp(1), 300, 150)
        assert len(str(value)) > 4300

    @pytest.mark.parametrize("k", ["7", "0", "9"])
    def test_check_recurrence_refuses_k_outside_the_split(self, capsys, k):
        # the recurrence splits n = k + (n - k) with both parts at least 1
        rc, out, err = run(capsys, "coeff", "natural", "7", k, "--check-recurrence")
        assert (rc, out) == (1, "")
        assert err == f"error: --check-recurrence needs 1 <= k <= n-1, got k={k}, n=7\n"
        rc, out, err = run(capsys, "coeff", "natural", "7", k)
        assert (rc, err) == (0, "")
        assert out == f"{fnomial(Natural(), 7, int(k))}\n"

    def test_multicoeff(self, capsys):
        rc, out, _ = run(capsys, "multicoeff", "natural", "4", "2,2")
        assert rc == 0 and out.strip() == "6"

    def test_multicoeff_check_recurrence(self, capsys):
        rc, out, err = run(capsys, "multicoeff", "natural", "6", "2,2,2", "--check-recurrence")
        assert (rc, out, err) == (0, "90\nrecurrence holds=True\n", "")
        rc, out, _ = run(capsys, "multicoeff", "natural", "6", "2,2,2", "--check-recurrence",
                         "--json")
        assert rc == 0 and '"recurrence_holds":true' in out

    @pytest.mark.parametrize("parts, message", [
        ("2,x", "bad composition '2,x'"),
        ("2,2", "composition (2, 2) does not sum to 5"),
    ])
    def test_multicoeff_bad_composition(self, capsys, parts, message):
        rc, out, err = run(capsys, "multicoeff", "natural", "5", parts)
        assert (rc, out, err) == (1, "", f"error: {message}\n")


class TestAdmissible:
    def test_admissible_family(self, capsys):
        rc, out, _ = run(capsys, "admissible", "fp:p=1", "--max", "10")
        assert rc == 0
        assert "bounded" in out

    def test_witness_gives_domain_failure_exit(self, capsys):
        rc, out, _ = run(capsys, "admissible", "table:[1,2,4,5,7]", "--max", "5")
        assert rc == 1
        assert "(5, 2)" in out

    def test_max_over_cap_refused(self, capsys):
        # n + 1 F-nomials for each n <= max: 5000150000 for --max 100000
        rc, out, err = run(capsys, "admissible", "natural", "--max", "100000")
        assert (rc, out) == (1, "")
        assert err == "error: --max 100000 checks 5000150000 F-nomials, over the cap 200000\n"
        rc, out, err = run(capsys, "admissible", "natural", "--max", "12", "--cap-vertices", "89")
        assert (rc, out, err) == (1, "", "error: --max 12 checks 90 F-nomials, over the cap 89\n")
        rc, out, _ = run(capsys, "admissible", "natural", "--max", "12", "--cap-vertices", "90")
        assert rc == 0 and "admissible up to n = 12" in out


class TestPaths:
    def test_count_and_list(self, capsys):
        rc, out, _ = run(capsys, "paths", "natural", "2", "3", "--list", "--json")
        data = json.loads(out)
        assert rc == 0
        assert data["volume"] == 6
        assert len(data["paths"]) == 6


class TestTileVerifyRender:
    def test_tile_verify_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "t.json"
        rc, out, _ = run(capsys, "tile", "natural", "3", "4", "--out", str(out_file))
        assert rc == 0
        assert "6 blocks" in out
        rc, out, _ = run(capsys, "verify", str(out_file))
        assert rc == 0
        assert "valid=True" in out

    def test_tampered_tiling_fails_verify(self, capsys, tmp_path):
        out_file = tmp_path / "t.json"
        run(capsys, "tile", "natural", "3", "4", "--out", str(out_file))
        data = json.loads(out_file.read_text())
        data["blocks"] = data["blocks"][1:]
        out_file.write_text(json.dumps(data))
        rc, out, _ = run(capsys, "verify", str(out_file))
        assert rc == 1
        assert "valid=False" in out

    @pytest.mark.parametrize("vertex", [0, 9])
    def test_vertex_off_level_fails_verify(self, capsys, tmp_path, vertex):
        # natural <1->2> with vertex 0, or vertex 9 on the 2-vertex level
        out_file = tmp_path / "t.json"
        out_file.write_text(json.dumps({"family": "natural", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1], [1, vertex]], "sigma": [1, 2]}]}))
        rc, out, err = run(capsys, "verify", str(out_file))
        assert rc == 1
        assert "valid=False" in out
        assert "violation: block 0: level 2 outside layer" in out
        assert err == ""

    def test_short_block_fails_verify(self, capsys, tmp_path):
        # a one-level block on the two-level layer fp:p=1 <1->2>, beyond
        # the explicit path cover
        out_file = tmp_path / "t.json"
        out_file.write_text(json.dumps({"family": "fp:p=1", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1]], "sigma": [1]}]}))
        rc, out, err = run(capsys, "verify", str(out_file), "--cap-volume", "0")
        assert rc == 1
        assert "violation: block 0: 1 levels, layer has 2" in out
        assert err == ""

    @pytest.mark.parametrize("command", ["verify", "render"])
    @pytest.mark.parametrize("obj", [
        {"span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1], [1, 2]], "sigma": [1, 2]}]},
        {"family": "natural", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1], [1, "2"]], "sigma": [1, 2]}]},
    ], ids=["no-family", "string-vertex"])
    def test_malformed_tiling_is_one_line_error(self, capsys, tmp_path, command, obj):
        in_file = tmp_path / "bad.json"
        in_file.write_text(json.dumps(obj))
        extra = ("--out", str(tmp_path / "bad.svg")) if command == "render" else ()
        rc, out, err = run(capsys, command, str(in_file), *extra)
        assert rc == 1 and out == ""
        assert err.startswith("error: malformed tiling: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_nested_past_parser_depth_is_one_line_error(self, capsys, tmp_path, command):
        in_file = tmp_path / "nested.json"
        in_file.write_text("[" * 100000 + "]" * 100000)
        svg = tmp_path / "nested.svg"
        extra = ("--out", str(svg)) if command == "render" else ()
        rc, out, err = run(capsys, command, str(in_file), *extra)
        assert rc == 1 and out == ""
        assert err.startswith("error: malformed tiling: ")
        assert err.count("\n") == 1
        assert not svg.exists()

    def test_render_vertex_off_layer_is_one_line_error(self, capsys, tmp_path):
        in_file = tmp_path / "bad.json"
        in_file.write_text(json.dumps({"family": "natural", "span": [1, 2], "blocks": [
            {"span": [1, 2], "levels": [[1], [1, 9]], "sigma": [1, 2]}]}))
        rc, _, err = run(capsys, "render", str(in_file), "--out", str(tmp_path / "b.svg"))
        assert rc == 1
        assert err == "error: vertex 9 of level 2 is not on the layer\n"

    @pytest.mark.parametrize("span", [[1, 2], [2, 3]], ids=["1-2", "2-3"])
    def test_cardinalities_fitting_no_composition_fail_verify(self, capsys, tmp_path, span):
        # natural <1->2> reads the block as a plain shape, as <2->3> does
        out_file = tmp_path / "t.json"
        out_file.write_text(json.dumps({"family": "natural", "span": span, "blocks": [
            {"span": span, "levels": [[1], [1, 2, 3]], "sigma": [1, 2]}]}))
        rc, out, err = run(capsys, "verify", str(out_file))
        assert rc == 1
        assert "violation: block 0: cardinalities (1, 3) do not realise the shape" in out
        assert err == ""

    @pytest.mark.parametrize("argv, blocks", [
        (("tile", "natural", "3", "5"), 10),
        (("multitile", "natural", "4", "2,2"), 6),
    ], ids=["tile", "multitile"])
    def test_construction_over_cap_refused(self, capsys, tmp_path, argv, blocks):
        out_file = tmp_path / "t.json"
        rc, out, err = run(capsys, *argv, "--cap-vertices", str(blocks - 1),
                           "--out", str(out_file))
        assert rc == 1 and out == ""
        assert err == f"error: tiling has {blocks} blocks, over the cap {blocks - 1}\n"
        assert not out_file.exists()
        rc, out, _ = run(capsys, *argv, "--cap-vertices", str(blocks))
        assert rc == 0
        assert f"{blocks} blocks, valid=True" in out

    @pytest.mark.parametrize("argv, message", [
        (("tile", "natural", "3", "2"), "layer needs 1 <= k <= n, got (3, 2)"),
        (("tile", "table:[1,2,3]", "2", "5"), "index 4 outside table of length 3"),
        (("multitile", "natural", "4", "2,3"), "composition (2, 3) does not sum to 4"),
        (("multitile", "natural", "4", "0,4"), "composition parts must be >= 1, got (0, 4)"),
    ], ids=["bad-span", "short-table", "parts-sum", "zero-part"])
    def test_cap_keeps_input_errors(self, capsys, argv, message):
        rc, _, err = run(capsys, *argv, "--cap-vertices", "0")
        assert rc == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("tile", "tlab:a=0,b=1", "2", "1200"),
        ("multitile", "tlab:a=0,b=1", "1200", "600,600"),
    ], ids=["tile", "multitile"])
    def test_construction_deeper_than_recursion_limit(self, capsys, argv):
        # every term is 1, so the one block of <2->1200> is built 1199
        # splits deep, and that over (600, 600) at least 600 splits deep
        rc, out, err = run(capsys, *argv, "--json")
        data = json.loads(out)
        assert rc == 0 and err == ""
        assert data["blocks"] == 1 and data["valid"] is True

    def test_shape_inference_deeper_than_recursion_limit(self, capsys, tmp_path):
        # one block of 1200 one-vertex levels on natural <1->1200> is read as
        # the composition of 1200 ones, found 1200 parts deep; it covers one
        # path of the layer
        tiling_file = tmp_path / "t.json"
        tiling_file.write_text(json.dumps({"family": "natural", "span": [1, 1200], "blocks": [
            {"span": [1, 1200], "levels": [[1]] * 1200, "sigma": list(range(1, 1201))}]}))
        rc, out, err = run(capsys, "verify", str(tiling_file), "--json")
        data = json.loads(out)
        assert rc == 1 and err == ""
        assert data["valid"] is False
        assert any(v.startswith("blocks cover 1 paths") for v in data["violations"])

    def test_multitile(self, capsys, tmp_path):
        out_file = tmp_path / "m.json"
        rc, out, _ = run(capsys, "multitile", "natural", "4", "2,2",
                         "--out", str(out_file))
        assert rc == 0 and "6 blocks" in out
        rc, _, _ = run(capsys, "verify", str(out_file))
        assert rc == 0

    def test_json_emit_parse_emit_is_stable(self, capsys, tmp_path):
        from cobweb.cli import canonical_json

        out_file = tmp_path / "t.json"
        run(capsys, "tile", "fp:p=1", "2", "4", "--out", str(out_file))
        first = out_file.read_text()
        assert canonical_json(json.loads(first)) == first

    def test_render_deterministic(self, capsys, tmp_path):
        tiling_file = tmp_path / "t.json"
        run(capsys, "tile", "natural", "2", "4", "--out", str(tiling_file))
        svg_a = tmp_path / "a.svg"
        svg_b = tmp_path / "b.svg"
        rc, _, _ = run(capsys, "render", str(tiling_file), "--out", str(svg_a))
        assert rc == 0
        run(capsys, "render", str(tiling_file), "--out", str(svg_b))
        assert svg_a.read_bytes() == svg_b.read_bytes()

    def test_render_vertex_count(self, capsys, tmp_path):
        tiling_file = tmp_path / "layer.json"
        tiling_file.write_text(json.dumps(
            {"family": "natural", "span": [2, 4], "blocks": [], "provenance": "skeleton"}
        ))
        svg = tmp_path / "layer.svg"
        run(capsys, "render", str(tiling_file), "--out", str(svg))
        body = svg.read_text()
        assert body.count("<circle") == 9  # rows of 2, 3, 4

    def test_render_over_vertex_cap_refused(self, capsys, tmp_path):
        # natural <2->4> has 2 + 3 + 4 = 9 vertices
        tiling_file = tmp_path / "layer.json"
        tiling_file.write_text(json.dumps({"family": "natural", "span": [2, 4], "blocks": []}))
        svg = tmp_path / "layer.svg"
        rc, out, err = run(capsys, "render", str(tiling_file), "--out", str(svg),
                           "--cap-vertices", "8")
        assert rc == 1 and out == ""
        assert err == "error: layer has 9 vertices by level 4, over the cap 8\n"
        assert not svg.exists()
        rc, _, _ = run(capsys, "render", str(tiling_file), "--out", str(svg),
                       "--cap-vertices", "9")
        assert rc == 0 and svg.read_text().count("<circle") == 9

    def test_render_over_element_cap_refused(self, capsys, tmp_path):
        # one block on natural <1000->1001> has 2001 vertices but 1001000
        # vertex pairs on consecutive levels, a line each
        tiling_file = tmp_path / "block.json"
        tiling_file.write_text(json.dumps({"family": "natural", "span": [1000, 1001], "blocks": [
            {"span": [1000, 1001], "levels": [list(range(1, 1001)), list(range(1, 1002))],
             "sigma": [1, 2]}]}))
        svg = tmp_path / "block.svg"
        rc, out, err = run(capsys, "render", str(tiling_file), "--out", str(svg))
        assert rc == 1 and out == ""
        assert err == "error: picture has 1003001 elements, over the cap 200000\n"
        assert not svg.exists()

    def test_render_element_cap_is_exact(self, capsys, tmp_path):
        # natural <3->4>: 7 vertices and 6 blocks of levels sized 1 and 2,
        # each drawn as 2 lines
        tiling_file = tmp_path / "t.json"
        tiling_file.write_text(json.dumps(construct_tiling(Natural(), 3, 4).to_json_obj()))
        svg = tmp_path / "t.svg"
        rc, out, err = run(capsys, "render", str(tiling_file), "--out", str(svg),
                           "--cap-vertices", "18")
        assert rc == 1 and out == ""
        assert err == "error: picture has 19 elements, over the cap 18\n"
        assert not svg.exists()
        rc, _, _ = run(capsys, "render", str(tiling_file), "--out", str(svg),
                       "--cap-vertices", "19")
        body = svg.read_text()
        assert rc == 0 and body.count("<circle") + body.count("<line") == 19

    @pytest.mark.parametrize("blocks", [
        [], [{"span": [1, 10**9], "levels": [[1]], "sigma": [1]}],
    ], ids=["skeleton", "short-block"])
    def test_render_long_span_refused_at_once(self, capsys, tmp_path, blocks):
        # natural <1->10^9> passes the default cap of 200000 vertices at
        # level 632; neither the level sizes of the whole span nor the term
        # values of a 10^9-level shape are computed
        tiling_file = tmp_path / "layer.json"
        tiling_file.write_text(json.dumps(
            {"family": "natural", "span": [1, 10**9], "blocks": blocks}))
        svg = tmp_path / "layer.svg"
        rc, out, err = run(capsys, "render", str(tiling_file), "--out", str(svg))
        assert rc == 1 and out == ""
        assert err == "error: layer has 200028 vertices by level 632, over the cap 200000\n"
        assert not svg.exists()


class TestCountTilings:
    def test_formula_mode(self, capsys):
        rc, out, _ = run(capsys, "count-tilings", "natural", "2", "3")
        assert rc == 0 and out.strip() == "3"

    def test_construction_mode(self, capsys):
        rc, out, _ = run(capsys, "count-tilings", "natural", "2", "3",
                         "--mode", "construction", "--json")
        data = json.loads(out)
        assert rc == 0
        assert data["distinct"] == 3 and data["choice_sequences"] == 3

    def test_exhaustive_mode(self, capsys):
        rc, out, _ = run(capsys, "count-tilings", "natural", "2", "3",
                         "--mode", "exhaustive", "--json")
        data = json.loads(out)
        assert rc == 0
        assert data["count"] == 4 and data["complete"]

    def test_exhaustive_completes_natural_three_five(self, capsys):
        # 411168 tilings within the default node budget
        rc, out, _ = run(capsys, "count-tilings", "natural", "3", "5",
                         "--mode", "exhaustive", "--json")
        data = json.loads(out)
        assert rc == 0
        assert data["count"] == 411168 and data["complete"] is True

    def test_exhaustive_past_the_recursion_limit(self, capsys):
        # one level of 1200 vertices: the one tiling is 1200 blocks deep
        rc, out, err = run(capsys, "count-tilings", "natural", "1200", "1200",
                           "--mode", "exhaustive", "--json")
        data = json.loads(out)
        assert rc == 0 and err == ""
        assert data["count"] == 1 and data["complete"] is True

    def test_formula_past_the_recursion_limit(self, capsys):
        # <2 -> 1200> is 1199 splits deep; the count is 1200!/2
        rc, out, err = run(capsys, "count-tilings", "natural", "2", "1200", "--json")
        assert rc == 0 and err == ""
        assert json.loads(out)["count"] == math.factorial(1200) // 2

    def test_single_level_not_split_by_one(self, capsys):
        # table:[2,3] <2->2> has no tiling: the construction modes refuse it
        # up front and the exact cover certifies that none exists
        refusal = ("error: level 2 has 3 vertices, not a multiple of 1_F = 2, "
                   "so the layer has no tiling\n")
        layer = ("table:[2,3]", "2", "2")
        assert run(capsys, "tile", *layer) == (1, "", refusal)
        for mode in ("formula", "construction"):
            assert run(capsys, "count-tilings", *layer, "--mode", mode) == (1, "", refusal)
        assert run(capsys, "count-tilings", *layer, "--mode", "exhaustive") == (
            0, "0 tilings (complete)\n", "")


class TestGraph:
    def test_summary_and_dot(self, capsys, tmp_path):
        dot_file = tmp_path / "g.dot"
        rc, out, _ = run(capsys, "graph", "natural", "3", "4",
                         "--dot", str(dot_file), "--find-clique", "--json")
        data = json.loads(out)
        assert rc == 0
        assert data["vertices"] == 30 and data["d"] == 6
        assert len(data["clique"]) == 6
        assert dot_file.read_text().startswith("graph blockgraph {")

    def test_dot_over_cap_refused(self, capsys, tmp_path):
        # natural <3->4> has 30 vertices and 315 edges, one DOT line each
        dot_file = tmp_path / "g.dot"
        argv = ("graph", "natural", "3", "4", "--dot", str(dot_file))
        rc, out, err = run(capsys, *argv, "--cap-vertices", "344")
        assert (rc, out) == (1, "")
        assert err == "error: DOT has 345 vertex and edge lines, over the cap 344\n"
        assert not dot_file.exists()
        rc, out, err = run(capsys, *argv, "--cap-vertices", "345")
        assert (rc, err) == (0, "")
        assert out == f"30 vertices, 315 edges, d=6\nwrote {dot_file}\n"
        assert len(dot_file.read_text().splitlines()) == 345 + 2

    def test_count_max_cliques(self, capsys):
        rc, out, _ = run(capsys, "graph", "natural", "4", "4",
                         "--count-max-cliques", "--json")
        data = json.loads(out)
        assert rc == 0 and data["maximal_cliques"] == 1

    def test_truncated_max_clique_count_exits_1(self, capsys, monkeypatch):
        # a count stopped by its budget is a lower bound, as in count-tilings
        argv = ("graph", "natural", "3", "4", "--count-max-cliques", "--json")
        rc, out, _ = run(capsys, *argv)
        data = json.loads(out)
        assert (rc, data["maximal_cliques"], data["complete"]) == (0, 852, True)
        monkeypatch.setattr(blockgraph_module, "count_maximal_cliques", functools.partial(
            blockgraph_module.count_maximal_cliques, node_budget=10))
        rc, out, err = run(capsys, *argv)
        data = json.loads(out)
        assert (rc, data["complete"], err) == (1, False, "")
        assert data["maximal_cliques"] < 852

    @pytest.mark.parametrize("flag", ["--find-clique", "--count-max-cliques"])
    def test_search_deeper_than_recursion_limit(self, capsys, flag):
        # one level of 1200 vertices: V = d = 1200 single-vertex blocks, all
        # pairwise adjacent, so the one clique, and the one maximal clique,
        # is every vertex, 1200 deep
        rc, out, err = run(capsys, "graph", "natural", "1200", "1200", flag, "--json")
        data = json.loads(out)
        assert rc == 0 and err == ""
        assert data["vertices"] == data["d"] == 1200
        if flag == "--find-clique":
            assert data["clique"] == list(range(1200))
        else:
            assert data["maximal_cliques"] == 1 and data["complete"] is True


class TestErrorsAndConfig:
    def test_bad_family_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "seq", "bogus:family")
        assert rc == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv, message", [
        (("admissible", "natural", "--max", "-5"), "--max needs a bound >= 1, got -5"),
        (("seq", "natural", "--count", "-3"), "--count needs a count >= 0, got -3"),
        (("tile", "natural", "2", "3", "--strategy", "seed:x"), "unknown strategy 'seed:x'"),
        (("render", "t.json", "--out", "t.svg", "--dx", "0"), "--dx needs a value >= 1, got 0"),
        (("render", "t.json", "--out", "t.svg", "--dy", "-60"), "--dy needs a value >= 1, got -60"),
        (("render", "t.json", "--out", "t.svg", "--radius", "-3"),
         "--radius needs a value >= 1, got -3"),
    ])
    def test_out_of_range_flag_is_one_line_error(self, capsys, tmp_path, monkeypatch,
                                                 argv, message):
        # a render flag is refused before the file is read, so the missing
        # t.json is never opened, and no picture is written
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "t.svg").exists()

    @pytest.mark.parametrize("spelling", [
        "", ".", "/", "//", "///a", "./t.json", "a//b/./c/", "a/../b", "~/x", ".hidden/",
    ])
    def test_file_paths_spelt_as_pathlib_spells_them(self, spelling):
        assert _fs_path(spelling) == str(PurePosixPath(spelling))

    def test_file_errors_quote_the_pathlib_spelling(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, "verify", ".//missing.json")
        assert (rc, out) == (1, "")
        assert err == "error: [Errno 2] No such file or directory: 'missing.json'\n"
        rc, _, _ = run(capsys, "tile", "natural", "2", "3", "--out", "./t.json/")
        assert rc == 0 and (tmp_path / "t.json").exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "natural"])  # missing arguments
        assert exc.value.code == 2

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cobweb.cfg"
        cfg.write_text("count = 4\n")
        rc, out, _ = run(capsys, "seq", "natural", "--config", str(cfg))
        assert rc == 0
        assert out.strip() == "1 2 3 4"

    def test_bad_config_line_is_one_line_error(self, capsys, tmp_path):
        # comments and blank lines are skipped; a line with no `=` is not
        cfg = tmp_path / "cobweb.cfg"
        cfg.write_text("# defaults\n\noops\n")
        rc, out, err = run(capsys, "seq", "natural", "--config", str(cfg))
        assert (rc, out, err) == (1, "", "error: bad config line 'oops'\n")

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cobweb.cfg"
        cfg.write_text("count = 4\n")
        rc, out, _ = run(capsys, "seq", "natural", "--count", "2",
                         "--config", str(cfg))
        assert rc == 0
        assert out.strip() == "1 2"


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["all", "lowest"])
    def test_strategy_all_and_lowest_are_the_default(self, capsys, strategy):
        # `all` reduces to `lowest`, the default strategy
        argv = ("tile", "natural", "3", "4", "--json")
        default = run(capsys, *argv)
        assert default[0] == 0
        assert run(capsys, *argv, "--strategy", strategy) == default

    @pytest.mark.parametrize("argv", [
        ("seq", "fp:p=3", "--count", "8", "--json"),
        ("coeff", "modgauss:q=2", "6", "3", "--json"),
        ("multicoeff", "fp:p=1", "5", "2,2,1", "--json"),
        ("tile", "natural", "2", "4", "--strategy", "seed:42", "--json"),
        ("multitile", "gaussian:q=2", "3", "2,1", "--json"),
        ("count-tilings", "natural", "3", "4", "--mode", "exhaustive", "--json"),
        ("graph", "natural", "2", "3", "--find-clique", "--json"),
    ])
    def test_repeated_runs_identical(self, capsys, argv):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from _slots(child)


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False),
    st.sampled_from(["", "2", "natural", "fp:p=1", "table:[1,2", "bogus"]),
    st.lists(st.integers(-1, 4), max_size=3), st.dictionaries(st.just("span"), st.none()),
)


class TestVerifyFuzz:
    """`cobweb verify` on mutated tiling files: keys dropped, values of
    other types, vertices off their level, other spans."""

    BASES = [
        construct_tiling(Natural(), 2, 3).to_json_obj(),
        construct_tiling(Fp(1), 1, 4).to_json_obj(),
        construct_multi_tiling(Natural(), 3, (2, 1)).to_json_obj(),
    ]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_one_line_error(self, tmp_path_factory, data):
        doc = {"root": copy.deepcopy(data.draw(st.sampled_from(self.BASES)))}
        for _ in range(data.draw(st.integers(1, 3))):
            container, key = data.draw(st.sampled_from(list(_slots(doc))))
            if data.draw(st.booleans()) and container is not doc:
                del container[key]
            else:
                container[key] = data.draw(JUNK)
        path = tmp_path_factory.mktemp("fuzz") / "t.json"
        path.write_text(json.dumps(doc["root"]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", str(path)])
        assert rc in (0, 1, 2)
        if err.getvalue():
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
