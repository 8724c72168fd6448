"""Terminal rendering of 2-D fields.

Examples and benchmarks print solution fields as ASCII shade maps —
good enough to eyeball a rotating heat source or a standing wave
without any plotting dependency.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require

#: Shade ramp from empty to full.
SHADES = " .:-=+*#%@"


def heatmap(
    field: np.ndarray,
    width: int = 48,
    height: int = 24,
    vmin: float | None = None,
    vmax: float | None = None,
) -> str:
    """Render a 2-D array as an ASCII shade map.

    Parameters
    ----------
    field:
        The 2-D values to render.
    width, height:
        Maximum output size in characters; the field is strided down
        to fit (no interpolation — this is a debugging aid).
    vmin, vmax:
        Optional fixed color range (defaults to the field's min/max);
        values outside are clamped.  A flat field renders as all-blank.
    """
    field = np.asarray(field)
    require(field.ndim == 2, "heatmap expects a 2-D array")
    require(width > 0 and height > 0, "width/height must be positive")
    lo = float(field.min()) if vmin is None else float(vmin)
    hi = float(field.max()) if vmax is None else float(vmax)
    span = hi - lo
    if span <= 0:
        span = 1.0
    row_step = max(1, -(-field.shape[0] // height))  # ceil division
    col_step = max(1, -(-field.shape[1] // width))
    lines = []
    for i in range(0, field.shape[0], row_step):
        row = field[i, ::col_step]
        scaled = np.clip((row - lo) / span, 0.0, 1.0)
        idx = np.minimum((scaled * len(SHADES)).astype(int), len(SHADES) - 1)
        lines.append("".join(SHADES[j] for j in idx))
    return "\n".join(lines)
