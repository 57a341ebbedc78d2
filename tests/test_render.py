"""SVG rendering: determinism and basic structure."""

import pytest

from cobweb import Natural, construct_tiling, term
from cobweb.render import RenderStyle, render_tiling_svg


def _sizes(F, k, n):
    return [term(F, s) for s in range(k, n + 1)]


def test_skeleton_has_one_circle_per_vertex():
    obj = {"family": "natural", "span": [2, 4], "blocks": [], "provenance": ""}
    svg = render_tiling_svg(obj, _sizes(Natural(), 2, 4))
    assert svg.count("<circle") == 2 + 3 + 4
    assert "<line" not in svg


def test_blocks_draw_edges():
    tiling = construct_tiling(Natural(), 3, 4)
    svg = render_tiling_svg(tiling.to_json_obj(), _sizes(Natural(), 3, 4))
    # every block contributes |bottom| * |top| coloured edges
    expected = sum(len(b["levels"][0]) * len(b["levels"][1])
                   for b in tiling.to_json_obj()["blocks"])
    assert svg.count("<line") == expected


def test_single_level_blocks_get_rings():
    tiling = construct_tiling(Natural(), 3, 3)
    svg = render_tiling_svg(tiling.to_json_obj(), _sizes(Natural(), 3, 3))
    assert svg.count('fill="none"') == 3  # one ring per singleton block


def test_byte_identical_for_identical_input():
    tiling = construct_tiling(Natural(), 2, 4)
    obj = tiling.to_json_obj()
    sizes = _sizes(Natural(), 2, 4)
    assert render_tiling_svg(obj, sizes) == render_tiling_svg(obj, sizes)


def test_style_is_honoured():
    obj = {"family": "natural", "span": [1, 2], "blocks": [], "provenance": ""}
    small = render_tiling_svg(obj, [1, 2], RenderStyle(radius=3))
    assert 'r="3"' in small


@pytest.mark.parametrize("levels, message", [
    ([[1], [1, 2], [1]], "vertex 1 of level 3 is not on the layer"),
    ([[0], [1, 2]], "vertex 0 of level 1 is not on the layer"),
], ids=["above-the-top", "vertex-0"])
def test_vertex_off_layer_refused(levels, message):
    obj = {"family": "natural", "span": [1, 2], "blocks": [
        {"span": [1, 2], "levels": levels, "sigma": [1, 2]}]}
    with pytest.raises(ValueError, match=f"^{message}$"):
        render_tiling_svg(obj, _sizes(Natural(), 1, 2))
