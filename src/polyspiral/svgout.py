"""SVG rendering of the polygon chain with an optional spiral overlay.

Output is plain SVG 1.1 with the y axis flipped to mathematical
orientation and fixed six-significant-digit coordinates, so identical
scenes serialize to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MARGIN = 1.0  # blank border around the drawing, in polygon side lengths

_STYLE = {
    "polygon": 'fill="none" stroke="#1f3a5f" stroke-width="0.03"',
    "center": 'fill="#b3412f"',
    "spiral": 'fill="none" stroke="#b3412f" stroke-width="0.05" stroke-dasharray="0.2,0.12"',
}


@dataclass
class SvgScene:
    polygons: list[np.ndarray]
    centers: list[complex]
    spiral: np.ndarray | None

    def viewport(self) -> tuple[float, float, float, float]:
        xs, ys = [], []
        for ring in self.polygons:
            xs.append(ring.real)
            ys.append(-ring.imag)
        if self.spiral is not None:
            xs.append(self.spiral.real)
            ys.append(-self.spiral.imag)
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("scene contains non-finite coordinates")
        return (
            float(x.min() - MARGIN),
            float(y.min() - MARGIN),
            float(x.max() - x.min() + 2 * MARGIN),
            float(y.max() - y.min() + 2 * MARGIN),
        )

    def to_svg(self) -> str:
        x0, y0, width, height = self.viewport()
        dot = max(width, height) / 250.0
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_num(x0)} {_num(y0)} {_num(width)} {_num(height)}">',
        ]
        for ring in self.polygons:
            points = " ".join(f"{_num(v.real)},{_num(-v.imag)}" for v in ring)
            lines.append(f'  <polygon points="{points}" {_STYLE["polygon"]}/>')
        if self.spiral is not None:
            points = " ".join(f"{_num(v.real)},{_num(-v.imag)}" for v in self.spiral)
            lines.append(f'  <polyline points="{points}" {_STYLE["spiral"]}/>')
        for c in self.centers:
            lines.append(
                f'  <circle cx="{_num(c.real)}" cy="{_num(-c.imag)}" r="{_num(dot)}" {_STYLE["center"]}/>'
            )
        lines.append("</svg>")
        return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so a coordinate negated from 0 is spelled "0", as the CSV writer spells it
    return f"{x + 0.0:.6g}"


def scene_from_chain(chain: list[np.ndarray]) -> SvgScene:
    """The chain's polygons and a dot at each vertex mean; a caller may set the spiral after."""
    return SvgScene(polygons=chain, centers=[complex(v.mean()) for v in chain], spiral=None)
