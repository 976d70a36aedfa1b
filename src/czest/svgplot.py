"""Static SVG rendering of trial logs, with no plotting dependency.

Two figure kinds, both derived purely from a TrialLog recorded with full
metrics: a planar trajectory view (truth path plus per-step estimate
rectangles for each algorithm) and per-step hull diameter curves
against the step index.  Scalar-state scenarios get a
time-series variant of the trajectory view.
"""

from html import escape

__all__ = ["ALG_STYLE", "plot_trajectory", "plot_metric"]

# stroke color and dash pattern per algorithm
ALG_STYLE = {
    "centralized": ("#d62728", ""),
    "oit": ("#e377c2", "6,3"),
    "distributed": ("#1f77b4", "2,3"),
}
_TRUTH_COLOR = "#2ca02c"


def _ticks(lo, hi, target=6):
    """Nice tick positions covering [lo, hi] on a 1-2-5 ladder."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(target - 1, 1)
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = step * round(lo / step)
    if first < lo - 1e-12 * max(1.0, abs(lo)):
        first += step
    out = []
    t = first
    while t <= hi + 1e-9 * max(1.0, abs(hi)):
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out or [lo]


def _fmt(v):
    s = f"{v:.6g}"
    return "0" if s in ("-0", "-0.0") else s


class _Canvas:
    """Maps world coordinates into a margined SVG viewport."""

    width, height, margin = 640, 480, 52

    def __init__(self, x_range, y_range):
        x0, x1 = x_range
        y0, y1 = y_range
        padx = 0.05 * (x1 - x0) or 1.0
        pady = 0.05 * (y1 - y0) or 1.0
        self.x0, self.x1 = x0 - padx, x1 + padx
        self.y0, self.y1 = y0 - pady, y1 + pady
        self.parts = []

    def px(self, x):
        inner = self.width - 2 * self.margin
        return self.margin + (x - self.x0) / (self.x1 - self.x0) * inner

    def py(self, y):
        inner = self.height - 2 * self.margin
        return self.height - self.margin - (y - self.y0) / (self.y1 - self.y0) * inner

    def add(self, tag):
        self.parts.append(tag)

    def polyline(self, pts, color, dash="", width=1.5):
        coords = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in pts)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>'
        )

    def rect(self, x_lo, y_lo, x_hi, y_hi, color, dash="", width=1.0):
        x, y = self.px(x_lo), self.py(y_hi)
        w, h = self.px(x_hi) - self.px(x_lo), self.py(y_lo) - self.py(y_hi)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{max(w, 0.5):.2f}" '
            f'height="{max(h, 0.5):.2f}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>'
        )

    def dot(self, x, y, color, r=2.4):
        self.add(
            f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="{r}" '
            f'fill="{color}"/>'
        )

    def text(self, x_pix, y_pix, s, size=12, anchor="middle", color="#333"):
        self.add(
            f'<text x="{x_pix:.2f}" y="{y_pix:.2f}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}" '
            f'font-family="sans-serif">{escape(s)}</text>'
        )

    def axes(self, x_label, y_label, title):
        m, w, h = self.margin, self.width, self.height
        self.add(
            f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
            f'fill="none" stroke="#999" stroke-width="1"/>'
        )
        for t in _ticks(self.x0, self.x1):
            xp = self.px(t)
            if m - 0.5 <= xp <= w - m + 0.5:
                self.add(
                    f'<line x1="{xp:.2f}" y1="{h - m}" x2="{xp:.2f}" '
                    f'y2="{h - m + 5}" stroke="#999"/>'
                )
                self.text(xp, h - m + 18, _fmt(t), size=11)
        for t in _ticks(self.y0, self.y1):
            yp = self.py(t)
            if m - 0.5 <= yp <= h - m + 0.5:
                self.add(
                    f'<line x1="{m - 5}" y1="{yp:.2f}" x2="{m}" '
                    f'y2="{yp:.2f}" stroke="#999"/>'
                )
                self.text(m - 8, yp + 4, _fmt(t), size=11, anchor="end")
        self.text(w / 2, h - 12, x_label)
        self.add(
            f'<text x="14" y="{h / 2:.2f}" font-size="12" text-anchor="middle" '
            f'fill="#333" font-family="sans-serif" '
            f'transform="rotate(-90 14 {h / 2:.2f})">{escape(y_label)}</text>'
        )
        self.text(w / 2, m - 14, title, size=14)

    def legend(self, entries):
        m = self.margin
        x, y = m + 10, m + 16
        for label, color, dash in entries:
            d = f' stroke-dasharray="{dash}"' if dash else ""
            self.add(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 26}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"{d}/>'
            )
            self.text(x + 32, y, label, anchor="start", size=11)
            y += 16

    def render(self):
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )


def _full_steps(log):
    steps = [s for s in log.steps if s.get("algs")]
    if not steps:
        raise ValueError("log has no step records")
    first_alg = next(iter(steps[0]["algs"].values()))
    first_agent = next(iter(first_alg.values()))
    if first_agent.get("hull") is None:
        raise ValueError("log was recorded without hull metrics; rerun with full metrics")
    return steps


def _agent_slice(log, agent):
    """Offset and length of the agent's block in the stacked truth vector."""
    key = str(agent)
    initial = log.header["initial"]
    if key not in initial:
        raise ValueError(f"agent {agent} not in log")
    offset = 0
    for i in sorted(initial, key=int):
        n = len(initial[i][0])
        if i == key:
            return offset, n
        offset += n
    raise AssertionError


def plot_trajectory(log, agent, path, coords=None):
    """Write the truth path and per-step estimate rectangles for one agent.

    coords picks the two plotted state components; scalar states instead
    get a time-series view (step index against the single component).
    """
    steps = _full_steps(log)
    offset, n = _agent_slice(log, agent)
    algs = list(steps[0]["algs"])
    if coords is None:
        coords = (0, 1) if n >= 2 else (0,)
    if len(coords) == 1 or n == 1:
        return _plot_timeseries(log, steps, agent, offset, coords[0], path, algs)
    cx, cy = coords

    truth_pts = [
        (s["truth"][offset + cx], s["truth"][offset + cy]) for s in steps
    ]
    xs, ys = [], []
    for s in steps:
        for alg in algs:
            hull = s["algs"][alg][str(agent)]["hull"]
            xs += [hull[0][cx], hull[1][cx]]
            ys += [hull[0][cy], hull[1][cy]]
    cv = _Canvas((min(xs), max(xs)), (min(ys), max(ys)))
    for s in steps:
        for alg in algs:
            color, dash = ALG_STYLE.get(alg, ("#555", ""))
            hull = s["algs"][alg][str(agent)]["hull"]
            cv.rect(hull[0][cx], hull[0][cy], hull[1][cx], hull[1][cy], color, dash)
    cv.polyline(truth_pts, _TRUTH_COLOR, width=2.0)
    for x, y in truth_pts:
        cv.dot(x, y, _TRUTH_COLOR)
    cv.axes(
        f"state[{cx}]",
        f"state[{cy}]",
        f"agent {agent} trajectory and per-step estimate boxes",
    )
    cv.legend(
        [("truth", _TRUTH_COLOR, "")]
        + [(a, *ALG_STYLE.get(a, ("#555", ""))) for a in algs]
    )
    with open(path, "w") as fh:
        fh.write(cv.render())


def _plot_timeseries(log, steps, agent, offset, coord, path, algs):
    ks = [s["k"] for s in steps]
    truth_vals = [s["truth"][offset + coord] for s in steps]
    vals = []
    for s in steps:
        for alg in algs:
            hull = s["algs"][alg][str(agent)]["hull"]
            vals += [hull[0][coord], hull[1][coord]]
    cv = _Canvas((min(ks) - 1, max(ks)), (min(vals), max(vals)))
    for s in steps:
        for pos, alg in enumerate(algs):
            color, dash = ALG_STYLE.get(alg, ("#555", ""))
            hull = s["algs"][alg][str(agent)]["hull"]
            half = 0.27
            x = s["k"] - half + 2 * half * (pos + 0.5) / len(algs)
            cv.rect(x - 0.1, hull[0][coord], x + 0.1, hull[1][coord], color, dash)
    cv.polyline(list(zip(ks, truth_vals)), _TRUTH_COLOR, width=2.0)
    for k, v in zip(ks, truth_vals):
        cv.dot(k, v, _TRUTH_COLOR)
    cv.axes("step k", f"state[{coord}]", f"agent {agent} estimates over time")
    cv.legend(
        [("truth", _TRUTH_COLOR, "")]
        + [(a, *ALG_STYLE.get(a, ("#555", ""))) for a in algs]
    )
    with open(path, "w") as fh:
        fh.write(cv.render())


def plot_metric(log, agent, path):
    """Write per-algorithm curves of the hull diameter d against the step
    index."""
    steps = _full_steps(log)
    algs = list(steps[0]["algs"])
    ks = [s["k"] for s in steps]
    series = {
        alg: [s["algs"][alg][str(agent)]["d"] for s in steps] for alg in algs
    }
    vals = [v for curve in series.values() for v in curve]
    cv = _Canvas((min(ks), max(ks)), (min(0.0, min(vals)), max(vals)))
    for alg in algs:
        color, dash = ALG_STYLE.get(alg, ("#555", ""))
        cv.polyline(list(zip(ks, series[alg])), color, dash, width=1.8)
    cv.axes("step k", "hull diameter", f"agent {agent} hull diameter per step")
    cv.legend([(a, *ALG_STYLE.get(a, ("#555", ""))) for a in algs])
    with open(path, "w") as fh:
        fh.write(cv.render())
