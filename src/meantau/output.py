"""Deterministic artifact writers.

Every file is produced from values alone: floats are rendered with
repr-exact %.17g, JSON keys are sorted, SVG coordinates are rounded to a
fixed number of decimals, and nothing records timestamps, hostnames, or
library versions.  Writers stage into a temporary file in the target
directory and rename it into place, so readers never observe a partial
artifact.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Sequence

import numpy as np

__all__ = [
    "fmt_float",
    "write_text_atomic",
    "write_csv",
    "write_json",
    "svg_line_chart",
    "json_sanitize",
]


def fmt_float(x) -> str:
    """Round-trip decimal form of a float (17 significant digits).

    %g already spells the non-finite values "nan", "inf" and "-inf".
    """
    return "%.17g" % float(x)


def write_text_atomic(path: str, text: str):
    """Write text to `path` via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], columns: Sequence):
    """Columns of equal length to CSV; floats as fmt_float writes them, the rest via str.

    The body is one % operation over the row-major cells, with %.17g for a
    float column and %s for any other.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(cols)} columns")
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")
    row = ",".join("%.17g" if np.issubdtype(c.dtype, np.floating) else "%s" for c in cols)
    n_rows = lengths.pop() if lengths else 0
    cells = [None] * (n_rows * len(cols))
    for i, c in enumerate(cols):
        cells[i :: len(cols)] = c.tolist()
    write_text_atomic(path, ",".join(header) + "\n" + (row + "\n") * n_rows % tuple(cells))


def json_sanitize(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats.

    Non-finite floats become the strings "nan" / "inf" / "-inf" so the
    output stays strict JSON.
    """
    if isinstance(obj, dict):
        return {str(k): json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return fmt_float(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: str, obj):
    text = json.dumps(json_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)
    write_text_atomic(path, text + "\n")


# ---------------------------------------------------------------------------
# SVG line charts (hand-rolled: fixed coordinate rounding, no drawing library)

_PALETTE = ("#1f6fb2", "#c4401f", "#2a8a4a", "#7344a0", "#946200")


def _ticks(lo: float, hi: float, n: int = 6):
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 0.5 * step:
        if t >= lo - 0.5 * step:
            ticks.append(round(t, 12))
        t += step
    return ticks


def _num(x: float) -> str:
    s = f"{x:.3f}".rstrip("0").rstrip(".")
    return s if s not in ("-0", "") else "0"


def _label(x: float) -> str:
    s = f"{x:.6g}"
    return s if s != "-0" else "0"


def svg_line_chart(
    x: np.ndarray,
    series: Sequence,
    labels: Sequence[str],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    markers: Sequence[float] = (),
) -> str:
    """Deterministic standalone 860 x 520 SVG with one polyline per series.

    `markers` draws dashed vertical rules at the given x positions.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(s, dtype=float) for s in series]
    width, height = 860, 520
    left, right, top, bottom = 64, 16, 34, 46
    pw, ph = width - left - right, height - top - bottom
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = min(float(s.min()) for s in ys)
    y_hi = max(float(s.max()) for s in ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return left + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return top + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g font-family="Helvetica,Arial,sans-serif" font-size="12" fill="#333">',
    ]
    if title:
        out.append(
            f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        px = _num(sx(t))
        out.append(
            f'<line x1="{px}" y1="{top}" x2="{px}" y2="{top + ph}" stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px}" y="{top + ph + 16}" text-anchor="middle">{_label(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = _num(sy(t))
        out.append(
            f'<line x1="{left}" y1="{py}" x2="{left + pw}" y2="{py}" stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 6}" y="{py}" text-anchor="end" dominant-baseline="middle">{_label(t)}</text>'
        )
    for mx in markers:
        px = _num(sx(float(mx)))
        out.append(
            f'<line x1="{px}" y1="{top}" x2="{px}" y2="{top + ph}" '
            'stroke="#888" stroke-width="1" stroke-dasharray="4,3"/>'
        )
    out.append(
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>'
    )
    if x_label:
        out.append(
            f'<text x="{left + pw // 2}" y="{height - 10}" text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{top + ph // 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {top + ph // 2})">{y_label}</text>'
        )
    for i, (s, name) in enumerate(zip(ys, labels)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_num(sx(a))},{_num(sy(b))}" for a, b in zip(x, s))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = top + 16 + 16 * i
        out.append(
            f'<line x1="{left + pw - 130}" y1="{ly - 4}" x2="{left + pw - 106}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{left + pw - 100}" y="{ly}">{name}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
