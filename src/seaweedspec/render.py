"""Hand-emitted SVG pictures of oriented meanders.

Vertices sit on a horizontal line and every arc of `orient` is drawn in
its own direction, ending in an arrowhead: an arc that runs right to left
(a top arc) bows upward, one that runs left to right (a bottom arc) bows
downward. Arc height grows with endpoint distance so nested arcs nest
visually. Output is a deterministic function of the seaweed.
"""

from __future__ import annotations

from .core import SeaweedSpec
from .spectrum import orient

_STROKE = "#1c1c1c"
_SPACING = 48
_MARGIN = 36


def _arc_height(dx: float) -> float:
    return 0.42 * dx + 12.0


def render_svg(g: SeaweedSpec) -> str:
    edges = orient(g).edges
    n = g.n
    xs = {v: _MARGIN + _SPACING * (v - 1) for v in range(1, n + 1)}

    top_h = max((_arc_height(_SPACING * (u - v)) for u, v in edges if u > v), default=0.0)
    bot_h = max((_arc_height(_SPACING * (v - u)) for u, v in edges if u < v), default=0.0)
    pad = 24.0
    ymid = pad + top_h
    width = 2 * _MARGIN + _SPACING * (n - 1)
    height = ymid + bot_h + pad + 18.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<title>{g}</title>",
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="8.5" refY="5" '
        'markerWidth="6.5" markerHeight="6.5" orient="auto">'
        f'<path d="M 0 1 L 9 5 L 0 9 z" fill="{_STROKE}"/></marker></defs>',
    ]

    def arc(x_from: float, x_to: float, above: bool) -> str:
        h = _arc_height(abs(x_to - x_from))
        cy = ymid - h if above else ymid + h
        cx = (x_from + x_to) / 2
        return (
            f'<path d="M {x_from:.1f} {ymid:.1f} Q {cx:.1f} {cy:.1f} '
            f'{x_to:.1f} {ymid:.1f}" fill="none" stroke="{_STROKE}" '
            f'stroke-width="1.6" marker-end="url(#arrow)"/>'
        )

    for u, v in edges:
        parts.append(arc(xs[u], xs[v], above=u > v))

    for v in range(1, n + 1):
        parts.append(f'<circle cx="{xs[v]:.1f}" cy="{ymid:.1f}" r="3.2" fill="{_STROKE}"/>')
    for v in range(1, n + 1):
        parts.append(
            f'<text x="{xs[v]:.1f}" y="{height - 8:.1f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" fill="#555">{v}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
