"""Static SVG pictures of layers and tilings.

Rendering is a pure function of the tiling JSON object and the style, so
identical inputs give byte-identical SVG.  Levels are drawn as horizontal
vertex rows, bottom level first; each block contributes coloured edges
between its member vertices on consecutive levels (and a coloured ring
for single-level blocks).  `picture_sizes` counts those elements before
anything is drawn.
"""

from __future__ import annotations

from operator import mul

from .errors import CapExceeded
from .fsequence import term
from .record import Record


MARGIN = 40
PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
    "#f032e6", "#bcf60c", "#008080", "#9a6324", "#800000", "#808000",
)


class RenderStyle(Record):
    __slots__ = _fields = ("dx", "dy", "radius")

    def __init__(self, dx: int = 40, dy: int = 60, radius: int = 6):
        self._init(dx, dy, radius)


def picture_sizes(obj: dict, layer, cap: int) -> list[int]:
    """The level sizes of `layer`, refused with CapExceeded when the
    picture of `obj` holds more than `cap` elements.  The vertex circles
    are counted level by level, so a long span is refused at its first
    level past the cap; then come a ring per vertex of a one-level block
    and a line per vertex pair on a block's consecutive levels."""
    sizes, total = [], 0
    for s in range(layer.k, layer.n + 1):
        sizes.append(term(layer.F, s))
        total += sizes[-1]
        if total > cap:
            raise CapExceeded(f"layer has {total} vertices by level {s}, over the cap {cap}")
    for block in obj["blocks"]:
        lengths = [len(level) for level in block["levels"]]
        total += lengths[0] if len(lengths) == 1 else sum(map(mul, lengths, lengths[1:]))
    if total > cap:
        raise CapExceeded(f"picture has {total} elements, over the cap {cap}")
    return sizes


def render_tiling_svg(obj: dict, level_sizes, style: RenderStyle = RenderStyle()) -> str:
    """SVG for a tiling JSON object (blocks may be empty: layer skeleton)."""
    k, n = obj["span"]
    dx, dy = style.dx, style.dy
    widest = max(level_sizes)
    width = 2 * MARGIN + (widest - 1) * dx
    height = 2 * MARGIN + (n - k) * dy

    def at(i: int, v: int):
        """Integer pixel centre of vertex v on level k + i, rows centred."""
        if i >= len(level_sizes) or not 1 <= v <= level_sizes[i]:
            raise ValueError(f"vertex {v} of level {k + i} is not on the layer")
        return MARGIN + (widest - level_sizes[i]) * dx // 2 + (v - 1) * dx, height - MARGIN - i * dy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for b_idx, block in enumerate(obj.get("blocks", [])):
        color = PALETTE[b_idx % len(PALETTE)]
        levels = [sorted(level) for level in block["levels"]]
        if len(levels) == 1:
            for v in levels[0]:
                x, y = at(0, v)
                parts.append(
                    f'<circle cx="{x}" cy="{y}" r="{style.radius + 4}" '
                    f'fill="none" stroke="{color}" stroke-width="2"/>'
                )
        for i in range(len(levels) - 1):
            for u in levels[i]:
                for v in levels[i + 1]:
                    x1, y1 = at(i, u)
                    x2, y2 = at(i + 1, v)
                    parts.append(
                        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                        f'stroke="{color}" stroke-width="2"/>'
                    )
    for i in range(n - k + 1):
        for v in range(1, level_sizes[i] + 1):
            x, y = at(i, v)
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="{style.radius}" fill="#222222"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
