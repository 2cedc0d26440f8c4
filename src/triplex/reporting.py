"""Deterministic report files: canonical JSON, CSV dumps and plain SVG plots.

Every number is formatted through repr of a Python float, and JSON keys are
sorted, so identical inputs give byte-identical files (the determinism
invariant the acceptance suite checks).  Plots are self-contained SVG
line/scatter drawings; no plotting dependency, no external assets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .evolution import EnergyTrace, LossReport, MarginReport, SweepReport

__all__ = [
    "write_text",
    "json_text",
    "csv_text",
    "energy_csv_text",
    "operator_csv_text",
    "Series",
    "line_plot",
    "emit_plot",
]


def write_text(path, text):
    """Write a report file as UTF-8 with newline line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# canonical JSON

def _plain(obj):
    """Recursively convert to JSON-serializable plain data.

    numpy scalars and arrays become Python numbers and lists; non-finite
    floats become the strings "nan"/"inf"/"-inf" so the output stays valid
    JSON and stable across serializers.
    """
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isfinite(v):
            return v
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def json_text(obj):
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV

def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = str(v)
    if "," in s or "\n" in s or '"' in s:
        raise ValueError(f"CSV cell needs quoting, not supported: {s!r}")
    return s


def csv_text(header, rows):
    lines = [",".join(header)]
    ncol = len(header)
    for row in rows:
        row = tuple(row)
        if len(row) != ncol:
            raise ValueError(f"row has {len(row)} cells, header has {ncol}")
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def energy_csv_text(trace: EnergyTrace):
    header = ("t", "E", "dE_dt", "rhs_bound", "margin", "n1sq", "n2sq", "aU3U3", "norm")
    return csv_text(header, trace.csv_rows())


def operator_csv_text(matrix):
    """Row-major dump of a complex matrix as re,im pairs, one entry per line."""
    m = np.asarray(getattr(matrix, "matrix", matrix))
    if m.ndim != 2:
        raise ValueError("operator dump needs a 2-d matrix")
    rows = (
        (i, j, float(m[i, j].real), float(m[i, j].imag))
        for i in range(m.shape[0])
        for j in range(m.shape[1])
    )
    return csv_text(("row", "col", "re", "im"), rows)


# ---------------------------------------------------------------------------
# SVG plots

_PALETTE = ("#1f6fb2", "#c23b22", "#3a7d44", "#8a5fbf", "#b8860b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 66, 18, 30, 46


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    marker: bool = False


def _finite_pairs(x, y):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("series x and y lengths differ")
    keep = np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep]


def _transform(vals, log, axis):
    if not log:
        return vals
    if np.any(vals <= 0):
        raise ValueError(f"log {axis}-axis needs positive data")
    return np.log10(vals)


def _span(lo, hi):
    if hi > lo:
        return lo, hi
    pad = 0.5 * max(1.0, abs(lo))
    return lo - pad, hi + pad


def _tick_label(v, log):
    return f"{10.0 ** v:.3g}" if log else f"{v:.4g}"


def line_plot(series, title="", xlabel="", ylabel="",
              logx=False, logy=False, annotations=()):
    """Self-contained SVG line/scatter plot; returns the SVG text.

    series is an iterable of Series; empty or all-non-finite input raises.
    Coordinates are formatted with fixed precision, keeping the output
    byte-identical for identical inputs.
    """
    cleaned = []
    for s in series:
        x, y = _finite_pairs(s.x, s.y)
        if len(x):
            cleaned.append((_transform(x, logx, "x"), _transform(y, logy, "y"),
                            s.label, s.marker))
    if not cleaned:
        raise ValueError("nothing to plot: no finite data points")

    xlo, xhi = _span(min(float(np.min(c[0])) for c in cleaned),
                     max(float(np.max(c[0])) for c in cleaned))
    ylo, yhi = _span(min(float(np.min(c[1])) for c in cleaned),
                     max(float(np.max(c[1])) for c in cleaned))
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + (v - xlo) / (xhi - xlo) * pw

    def sy(v):
        return _MT + (yhi - v) / (yhi - ylo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    font = 'font-family="monospace" font-size="11" fill="#333"'
    for i in range(5):
        fx = xlo + (xhi - xlo) * i / 4
        fy = ylo + (yhi - ylo) * i / 4
        px, py = sx(fx), sy(fy)
        out.append(f'<line x1="{px:.2f}" y1="{_MT + ph}" x2="{px:.2f}" '
                   f'y2="{_MT + ph + 4}" stroke="#333"/>')
        out.append(f'<text x="{px:.2f}" y="{_MT + ph + 16}" text-anchor="middle" '
                   f'{font}>{_tick_label(fx, logx)}</text>')
        out.append(f'<line x1="{_ML - 4}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
                   f'stroke="#333"/>')
        out.append(f'<text x="{_ML - 7}" y="{py + 4:.2f}" text-anchor="end" '
                   f'{font}>{_tick_label(fy, logy)}</text>')

    for idx, (x, y, label, marker) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(u):.2f},{sy(v):.2f}" for u, v in zip(x, y))
        if len(x) > 1:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        if marker or len(x) == 1:
            for u, v in zip(x, y):
                out.append(f'<circle cx="{sx(u):.2f}" cy="{sy(v):.2f}" r="3" '
                           f'fill="{color}"/>')
        if label:
            ly = _MT + 14 + 14 * idx
            out.append(f'<text x="{_W - _MR - 6}" y="{ly}" text-anchor="end" '
                       f'font-family="monospace" font-size="11" '
                       f'fill="{color}">{label}</text>')

    if title:
        out.append(f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" '
                   f'font-family="monospace" font-size="13" fill="#111">{title}</text>')
    if xlabel:
        out.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 10}" text-anchor="middle" '
                   f'{font}>{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
                   f'{font} transform="rotate(-90 14 {_MT + ph / 2:.0f})">{ylabel}</text>')
    base = _MT + 14 + 14 * len(cleaned)
    for k, note in enumerate(annotations):
        out.append(f'<text x="{_W - _MR - 6}" y="{base + 14 * k}" text-anchor="end" '
                   f'{font}>{note}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plot(obj, path):
    """Render a report object as SVG; returns the text, also written to path unless it is None."""
    if isinstance(obj, EnergyTrace):
        if len(obj.t) == 0 or len(obj.E) == 0:
            raise ValueError("energy trace is empty")
        svg = line_plot([Series(obj.t, obj.E, "E(t)")],
                        title="weighted energy", xlabel="t", ylabel="E")
    elif isinstance(obj, MarginReport):
        if len(obj.midpoints) == 0:
            raise ValueError("margin report is empty")
        svg = line_plot([Series(obj.midpoints, obj.margins, "margin")],
                        title="energy inequality margins", xlabel="t",
                        ylabel="normalized margin",
                        annotations=(f"min = {obj.min_margin:.3e}",))
    elif isinstance(obj, LossReport):
        ks = np.asarray(obj.modes, dtype=float)
        sup = np.asarray(obj.growth, dtype=float)
        if len(ks) == 0:
            raise ValueError("loss report is empty")
        fit = sup[0] * (ks / ks[0]) ** obj.exponent if math.isfinite(obj.exponent) else None
        series = [Series(ks, sup, "sup growth", marker=True)]
        if fit is not None:
            series.append(Series(ks, fit, "power fit"))
        svg = line_plot(series, title="derivative-loss probe",
                        xlabel="mode k", ylabel="sup |U| / |U(eps)|",
                        logx=True, logy=True,
                        annotations=(f"slope = {obj.exponent:.3f}",))
    elif isinstance(obj, SweepReport):
        if not obj.rows:
            raise ValueError("sweep report is empty")
        eps = np.array([r.eps for r in obj.rows])
        vals = np.array([r.delta_best_E for r in obj.rows])
        svg = line_plot([Series(eps, vals, "delta_best", marker=True)],
                        title="regularization sweep", xlabel="eps",
                        ylabel="delta_best", logx=True)
    else:
        raise TypeError(f"no plot rendering for {type(obj).__name__}")
    if path is not None:
        write_text(path, svg)
    return svg
