"""Static SVG pictures of layers and tilings.

Rendering is a pure function of the tiling JSON object and the style, so
identical inputs give byte-identical SVG.  Levels are drawn as horizontal
vertex rows, bottom level first; each block contributes coloured edges
between its member vertices on consecutive levels (and a coloured ring
for single-level blocks).
"""

from __future__ import annotations

from dataclasses import dataclass


PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
    "#f032e6", "#bcf60c", "#008080", "#9a6324", "#800000", "#808000",
)


@dataclass(frozen=True)
class RenderStyle:
    dx: int = 40
    dy: int = 60
    radius: int = 6
    margin: int = 40
    palette: tuple[str, ...] = PALETTE


def _positions(span, level_sizes, style):
    """Integer pixel centre per (level, vertex)."""
    k, n = span
    max_size = max(level_sizes)
    width = 2 * style.margin + (max_size - 1) * style.dx
    height = 2 * style.margin + (n - k) * style.dy
    pos = {}
    for i, size in enumerate(level_sizes):
        s = k + i
        y = height - style.margin - i * style.dy
        offset = ((max_size - size) * style.dx) // 2
        for v in range(1, size + 1):
            pos[(s, v)] = (style.margin + offset + (v - 1) * style.dx, y)
    return pos, width, height


def _at(pos, s: int, v: int):
    if (s, v) not in pos:
        raise ValueError(f"vertex {v} of level {s} is not on the layer")
    return pos[(s, v)]


def render_tiling_svg(obj: dict, level_sizes, style: RenderStyle = RenderStyle()) -> str:
    """SVG for a tiling JSON object (blocks may be empty: layer skeleton)."""
    span = tuple(obj["span"])
    k, n = span
    pos, width, height = _positions(span, tuple(level_sizes), style)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for b_idx, block in enumerate(obj.get("blocks", [])):
        color = style.palette[b_idx % len(style.palette)]
        levels = [sorted(level) for level in block["levels"]]
        if len(levels) == 1:
            for v in levels[0]:
                x, y = _at(pos, k, v)
                parts.append(
                    f'<circle cx="{x}" cy="{y}" r="{style.radius + 4}" '
                    f'fill="none" stroke="{color}" stroke-width="2"/>'
                )
        for i in range(len(levels) - 1):
            s = k + i
            for u in levels[i]:
                for v in levels[i + 1]:
                    x1, y1 = _at(pos, s, u)
                    x2, y2 = _at(pos, s + 1, v)
                    parts.append(
                        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                        f'stroke="{color}" stroke-width="2"/>'
                    )
    for s in range(k, n + 1):
        size = level_sizes[s - k]
        for v in range(1, size + 1):
            x, y = pos[(s, v)]
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="{style.radius}" fill="#222222"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
