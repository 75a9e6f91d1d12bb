"""Minimal deterministic SVG emitter for trajectory figures.

Two panels: workspace view (trajectories, obstacle disks at snapshot times,
target and shrinking-set circles) and a time-series view of each state
coordinate inside its center +/- r_c band. Only circles, polylines, and
text are needed, so the file is written directly without a plotting
library; identical inputs produce byte-identical output.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario
from .simulator import SimTrace

_TRAJ = "#1f77b4"
_CENTER = "#ff7f0e"
_OBSTACLE = "#7f7f7f"
_TARGET = "#2ca02c"
_SHRINK = "#9467bd"
_BAND = "#c7dcef"

_MAX_POLYLINE_POINTS = 1200


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0, dash=""):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>'
        )

    def polyline(self, xs, ys, color, width=1.5, dash=""):
        """xs, ys: pixel coordinate arrays, formatted as _fmt does."""
        coords = " ".join(["%.3f,%.3f"] * len(xs)) % tuple(np.column_stack([xs, ys]).ravel().tolist())
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"{d}/>'
        )

    def circle(self, cx, cy, r, stroke, fill="none", width=1.5, dash="", opacity=1.0):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        o = f' fill-opacity="{opacity}"' if fill != "none" else ""
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" stroke="{stroke}" '
            f'stroke-width="{width}" fill="{fill}"{o}{d}/>'
        )

    def text(self, x, y, s, size=11, color="#000000", anchor="start"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" fill="{color}" '
            f'text-anchor="{anchor}" font-family="sans-serif">{s}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


class _WorldMap:
    """World -> pixel transform preserving aspect ratio (y flipped); maps one
    point, or every row of an array of points at once."""

    def __init__(self, lo, hi, px0, py0, pw, ph):
        span = np.maximum(hi - lo, 1e-9)
        scale = min(pw / span[0], ph / span[1])
        self.scale = scale
        self.lo = lo
        self.px0 = px0 + 0.5 * (pw - scale * span[0])
        self.py1 = py0 + ph - 0.5 * (ph - scale * span[1])

    def __call__(self, p):
        p = p.T
        return (
            self.px0 + self.scale * (p[0] - self.lo[0]),
            self.py1 - self.scale * (p[1] - self.lo[1]),
        )


def _decimate(arr: np.ndarray) -> np.ndarray:
    if len(arr) <= _MAX_POLYLINE_POINTS:
        return arr
    stride = int(np.ceil(len(arr) / _MAX_POLYLINE_POINTS))
    idx = sorted(set(range(0, len(arr), stride)) | {len(arr) - 1})
    return arr[idx]


def render_figure(trace: SimTrace, scenario: Scenario, out_path, snapshot_times=None) -> None:
    """Write the two-panel trajectory figure as a standalone SVG."""
    if snapshot_times is None:
        snapshot_times = [0.0, scenario.t_f / 2.0, scenario.t_f]
    canvas = SvgCanvas(1060, 540)
    _draw_workspace(canvas, trace, scenario, snapshot_times, 40, 30, 460, 460)
    _draw_timeseries(canvas, trace, scenario, 570, 30, 450, 460)
    with open(out_path, "w") as fh:
        fh.write(canvas.render())


def _draw_workspace(canvas, trace, scenario, snapshot_times, px, py, pw, ph):
    pts = [trace.x, trace.c, scenario.target.center[None, :]]
    radii = [scenario.target.radius, scenario.shrink.r_start, scenario.shrink.r_end]
    lo = np.min([p.min(axis=0) for p in pts], axis=0)
    hi = np.max([p.max(axis=0) for p in pts], axis=0)
    lo = np.minimum(lo, scenario.target.center - max(radii))
    hi = np.maximum(hi, scenario.target.center + max(radii))
    snapshots = [obs.centers(snapshot_times) for obs in scenario.obstacles]
    for obs, centers in zip(scenario.obstacles, snapshots):
        for c in centers:
            lo = np.minimum(lo, c - obs.radius)
            hi = np.maximum(hi, c + obs.radius)
    world = _WorldMap(lo - 0.5, hi + 0.5, px, py, pw, ph)

    canvas.text(px + pw / 2, py - 8, "workspace trajectory", size=13, anchor="middle")
    for r, dash in ((scenario.shrink.r_start, "6,4"), (scenario.shrink.r_end, "2,3")):
        cx, cy = world(scenario.target.center)
        canvas.circle(cx, cy, world.scale * r, _SHRINK, dash=dash, width=1.0)
    cx, cy = world(scenario.target.center)
    canvas.circle(cx, cy, world.scale * scenario.target.radius, _TARGET, fill=_TARGET, opacity=0.15)
    canvas.text(cx, cy - 6, "target", size=10, color=_TARGET, anchor="middle")
    for obs, centers in zip(scenario.obstacles, snapshots):
        for t, c in zip(snapshot_times, centers):
            bx, by = world(c)
            canvas.circle(bx, by, world.scale * obs.radius, _OBSTACLE, fill=_OBSTACLE, opacity=0.25)
            canvas.text(bx, by, f"t={t:g}", size=9, color="#404040", anchor="middle")
    canvas.polyline(*world(_decimate(trace.c)), _CENTER, dash="5,3")
    canvas.polyline(*world(_decimate(trace.x)), _TRAJ)
    sx, sy = world(trace.x[0])
    canvas.circle(sx, sy, 3.0, _TRAJ, fill=_TRAJ)
    canvas.text(sx + 5, sy, "start", size=10, color=_TRAJ)
    canvas.text(px, py + ph + 18, "state (solid), center (dashed)", size=10, color="#404040")


def _draw_timeseries(canvas, trace, scenario, px, py, pw, ph):
    n = trace.x.shape[1]
    t = _decimate(trace.t)
    keep = np.searchsorted(trace.t, t)
    lo = float(np.min(trace.c - scenario.r_c))
    hi = float(np.max(trace.c + scenario.r_c))
    lo = min(lo, float(trace.x.min())) - 0.3
    hi = max(hi, float(trace.x.max())) + 0.3

    def to_px(tk, v):
        fx = px + pw * (tk / max(trace.t[-1], 1e-9))
        fy = py + ph * (1.0 - (v - lo) / max(hi - lo, 1e-9))
        return fx, fy

    canvas.text(px + pw / 2, py - 8, "state vs center band", size=13, anchor="middle")
    canvas.line(px, py + ph, px + pw, py + ph, "#303030")
    canvas.line(px, py, px, py + ph, "#303030")
    for frac in (0.0, 0.5, 1.0):
        tk = frac * trace.t[-1]
        fx, fy = to_px(tk, lo)
        canvas.line(fx, fy, fx, fy + 4, "#303030")
        canvas.text(fx, fy + 16, f"{tk:g}", size=9, anchor="middle")
        v = lo + frac * (hi - lo)
        fx, fy = to_px(0.0, v)
        canvas.line(fx - 4, fy, fx, fy, "#303030")
        canvas.text(fx - 6, fy + 3, f"{v:.1f}", size=9, anchor="end")
    canvas.text(px + pw / 2, py + ph + 30, "time (s)", size=10, anchor="middle")
    shades = ["", "4,3"]
    for i in range(n):
        canvas.polyline(*to_px(t, trace.c[keep, i] + scenario.r_c), _BAND, width=1.0)
        canvas.polyline(*to_px(t, trace.c[keep, i] - scenario.r_c), _BAND, width=1.0)
        canvas.polyline(*to_px(t, trace.x[keep, i]), _TRAJ if i == 0 else _CENTER, dash=shades[i % 2])
        fx, fy = to_px(trace.t[-1], trace.x[-1, i])
        canvas.text(fx + 4, fy, f"x{i + 1}", size=10, color=_TRAJ if i == 0 else _CENTER)
