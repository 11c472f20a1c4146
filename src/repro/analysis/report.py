"""Plain-text rendering: aligned tables, log-log series charts, contours.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers render them readably in a terminal and in the
captured benchmark output files.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Align columns; numbers right-aligned, text left-aligned."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for j, c in enumerate(row):
            widths[j] = max(widths[j], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(
                c.rjust(widths[j]) if _is_num(row, j) else c.ljust(widths[j])
                for j, c in enumerate(row)
            )
        )
    return "\n".join(lines)


def render_components(bd, where: str) -> str:
    """The paper's Figure-5 table of a
    :class:`~repro.analysis.metrics.ComponentBreakdown`: computation,
    message-startup and data-transfer seconds per rank and in the mean.
    ``where`` heads the title (a file name, a platform)."""
    rows = [
        [label, *(f"{x:.4f}" for x in (c.computation, c.startup, c.transfer, c.total))]
        for label, c in (*bd.per_rank, ("mean", bd))  # bd's own fields are the means
    ]
    fc, fs, ft = bd.fractions()
    return format_table(
        ["rank", "computation s", "startup s", "transfer s", "total s"],
        rows,
        title=(
            f"{where}: {bd.source} components — computation {100 * fc:.1f}%, "
            f"startup {100 * fs:.1f}%, transfer {100 * ft:.1f}% (paper Fig. 5)"
        ),
    )


def _fmt(c: object) -> str:
    if isinstance(c, float):
        if c == 0:
            return "0"
        if abs(c) >= 1e5 or abs(c) < 1e-2:
            return f"{c:.3g}"
        return f"{c:,.1f}" if abs(c) < 1e4 else f"{c:,.0f}"
    return str(c)


def _is_num(row: Sequence[str], j: int) -> bool:
    s = row[j].replace(",", "").replace(".", "").replace("-", "")
    return s.replace("e", "").replace("+", "").isdigit()


def render_series(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    xlabel: str = "Number of Processors",
    ylabel: str = "Execution Time (sec)",
    width: int = 72,
    height: int = 22,
    loglog: bool = True,
) -> str:
    """ASCII chart of several curves over a shared x grid (log-log like the
    paper's figures by default)."""
    marks = "ox+*#@%&"
    fx = math.log10 if loglog else (lambda v: v)
    fy = math.log10 if loglog else (lambda v: v)
    all_y = [y for ys in series.values() for y in ys if y > 0]
    if not all_y:
        return "(no data)"
    x0, x1 = fx(min(xs)), fx(max(xs))
    y0, y1 = fy(min(all_y)), fy(max(all_y))
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    canvas = [[" "] * width for _ in range(height)]
    for k, (label, ys) in enumerate(series.items()):
        m = marks[k % len(marks)]
        for x, y in zip(xs, ys):
            if y <= 0:
                continue
            col = int((fx(x) - x0) / (x1 - x0) * (width - 1))
            row = int((fy(y) - y0) / (y1 - y0) * (height - 1))
            canvas[height - 1 - row][col] = m
    lines = []
    if title:
        lines.append(title)
    top = f"{10**y1:.0f}" if loglog else f"{y1:.3g}"
    bot = f"{10**y0:.0f}" if loglog else f"{y0:.3g}"
    lines.append(f"{ylabel} [{bot} .. {top}]" + (" (log-log)" if loglog else ""))
    lines.append("+" + "-" * width + "+")
    for row in canvas:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    lines.append(f"  {xlabel}: {min(xs)} .. {max(xs)}")
    for k, label in enumerate(series):
        lines.append(f"  {marks[k % len(marks)]} = {label}")
    return "\n".join(lines)


def render_gantt(
    result,
    t0: float | None = None,
    t1: float | None = None,
    width: int = 96,
    title: str = "",
) -> str:
    """ASCII Gantt chart of a traced simulation window.

    ``result`` is a :class:`repro.simulate.machine.RunResult` from a run
    with ``trace=True``.  Each rank gets one row; ``#`` = compute,
    ``+`` = message-library software, ``.`` = non-overlapped wait,
    space = done/not started.  Defaults to the window around the second
    simulated step (past the startup skew).
    """
    timelines = result.timelines
    if not timelines or timelines[0].segments is None:
        raise ValueError("run the simulation with trace=True first")
    makespan = result.makespan_window
    steps = max(result.steps_window, 1)
    if t0 is None:
        t0 = makespan / steps
    if t1 is None:
        t1 = min(2.5 * makespan / steps, makespan)
    span = max(t1 - t0, 1e-12)
    glyph = {"compute": "#", "library": "+", "wait": "."}
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"window [{t0:.4f}s, {t1:.4f}s] of the simulated run "
        "(# compute, + library, . wait)"
    )
    for t in timelines:
        row = [" "] * width
        for seg in t.segments:
            if seg.end <= t0 or seg.start >= t1:
                continue
            a = int((max(seg.start, t0) - t0) / span * (width - 1))
            b = int((min(seg.end, t1) - t0) / span * (width - 1))
            for k in range(a, max(b, a) + 1):
                row[k] = glyph.get(seg.kind, "?")
        lines.append(f"rank {t.rank:2d} |{''.join(row)}|")
    return "\n".join(lines)


def ascii_contour(
    field: np.ndarray,
    width: int = 100,
    height: int = 24,
    levels: str = " .:-=+*#%@",
    title: str = "",
) -> str:
    """Character contour plot of a 2-D field (the paper's Figure 1 style).

    The field is sampled to ``width x height`` and binned into the level
    ramp.  The first array axis renders horizontally (axial direction).
    """
    f = np.asarray(field, dtype=np.float64)
    nx, nr = f.shape
    xi = np.linspace(0, nx - 1, width).astype(int)
    ri = np.linspace(0, nr - 1, height).astype(int)
    sampled = f[np.ix_(xi, ri)]
    lo, hi = float(sampled.min()), float(sampled.max())
    span = hi - lo if hi > lo else 1.0
    n = len(levels)
    idx = np.clip(((sampled - lo) / span * (n - 1)).astype(int), 0, n - 1)
    lines = []
    if title:
        lines.append(title)
    lines.append(f"range [{lo:.4g}, {hi:.4g}]  (x -> right, r -> up)")
    for j in range(height - 1, -1, -1):
        lines.append("".join(levels[idx[i, j]] for i in range(width)))
    return "\n".join(lines)
