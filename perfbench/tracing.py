"""Span tracing around czest's public entry points, and the arithmetic on spans.

The tracer wraps functions and methods of the installed czest modules in
place, records one span per call (name, start, end, parent span, trial)
in memory, and puts every original back on ``uninstall``.  Wrappers pass
arguments, results and exceptions through unchanged and draw no random
numbers, so a traced trial produces the same log bytes as an untraced one.

Each wrapped call belongs to a group (``lp.solve``, ``czono.hull``, ...).
A group's self time is the time its spans spend outside any child span;
the self times of all spans add up to the duration of the root spans.
"""

import functools
import json
import math
import time

# Sentinel written in place of a percentile that has fewer than
# MIN_BEYOND samples above it (see ``percentile``).
NOT_REPORTED = -1.0
MIN_BEYOND = 10

ALGORITHMS = ("centralized", "oit", "distributed")

# (module attribute path, attribute, group).  Module-level functions are
# patched on their defining module: czest's own modules call each other
# through module attributes (``czono.interval_hull``, ``sysmodel.measure``)
# or, inside one module, through its globals, so both routes see the wrapper.
_TARGETS = (
    ("lp.LinearProgram", "__init__", "lp.program"),
    ("lp.LinearProgram", "solve", "lp.solve"),
    ("simharness", "linprog", "highs.linprog"),
    ("czono", "interval_hull", "czono.hull"),
    ("czono", "interval_hull_coords", "czono.hull"),
    ("czono", "contains", "czono.contains"),
    ("czono", "is_empty", "czono.contains"),
    ("czono", "linear_map", "czono.build"),
    ("czono", "minkowski_sum", "czono.build"),
    ("czono", "cartesian_product", "czono.build"),
    ("czono", "intersect", "czono.build"),
    ("czono", "intersect_under_map", "czono.build"),
    ("czono", "project", "czono.build"),
    ("czono", "from_box", "czono.build"),
    ("czono", "whole_space", "czono.build"),
    ("sysmodel", "build_centralized", "sysmodel.stack"),
    ("sysmodel", "build_neighborhood", "sysmodel.stack"),
    ("sysmodel", "stack_measurements", "sysmodel.stack"),
    ("sysmodel", "step_truth", "sysmodel.truth"),
    ("sysmodel", "measure", "sysmodel.truth"),
    ("filters.CentralizedFilter", "step", "filters.centralized"),
    ("filters.OitFilter", "step", "filters.oit"),
    ("filters.DistributedFilter", "step", "filters.distributed"),
    ("simharness", "run_trial", "simharness.trial"),
    ("simharness.TrialLog", "dumps", "simharness.serialize"),
    ("simharness", "write_metrics_csv", "simharness.serialize"),
)

# Top-level layer of each group; a layer's share is its self time over
# the self time of all layers.
LAYERS = ("lp", "highs", "czono", "sysmodel", "filters", "simharness")


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def wrap_targets(package):
    """(owner, attribute, group) for every traced entry point of ``package``."""
    return [(_resolve(package, path), attr, group) for path, attr, group in _TARGETS]


class Tracer:
    """In-memory span recorder that patches czest while installed.

    Spans are lists ``[group, start, end, parent, trial]`` with ``parent``
    the index of the enclosing span (or -1).  ``lp_status``, ``lp_sizes``
    and ``highs_calls`` hold counts taken at the same boundaries.
    """

    def __init__(self):
        self.spans = []
        self.trial = None
        self.lp_sizes = []  # (m, n) per LinearProgram built
        self.lp_status = {"infeasible": 0, "unbounded": 0, "errors": 0}
        self.highs_calls = []  # (status, nvar, nnz) per linprog call
        self._stack = []
        self._saved = []
        self._numerical_error = None

    # -- spans ------------------------------------------------------------

    def _open(self, group):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([group, time.perf_counter(), None, parent, self.trial])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def write(self, path):
        """Write the spans as JSON lines, in the order they were opened."""
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "trial": trial}
                fh.write(json.dumps(rec) + "\n")

    # -- patching -----------------------------------------------------------

    def install(self, package):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._numerical_error = package.lp.NumericalError
        for owner, attr, group in wrap_targets(package):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrapper(orig, group))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrapper(self, orig, group):
        hook = {
            "lp.program": self._after_program,
            "lp.solve": self._after_solve,
            "highs.linprog": self._after_linprog,
        }.get(group)
        on_error = self._solve_error if group == "lp.solve" else None

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(group)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _after_program(self, args, kwargs, result):
        prog = args[0]
        self.lp_sizes.append((prog.m, prog.n))

    def _after_solve(self, args, kwargs, result):
        if result.status in ("infeasible", "unbounded"):
            self.lp_status[result.status] += 1

    def _solve_error(self, exc):
        if isinstance(exc, self._numerical_error):
            self.lp_status["errors"] += 1

    def _after_linprog(self, args, kwargs, result):
        c = args[0] if args else kwargs["c"]
        A_eq = kwargs.get("A_eq")
        nnz = 0 if A_eq is None else int(A_eq.nnz)
        self.highs_calls.append((int(result.status), len(c), nnz))


# -- arithmetic on spans -------------------------------------------------------


def percentile(samples, q):
    """Nearest-rank percentile ``q`` (0 < q < 1) and the sample count.

    The value is returned only when at least MIN_BEYOND samples lie above
    its rank; otherwise it is NOT_REPORTED.
    """
    n = len(samples)
    if n == 0:
        return NOT_REPORTED, 0
    rank = max(1, math.ceil(round(q * n, 9)))  # round: 0.9 * 100 is 90.00000000000001
    if n - rank < MIN_BEYOND:
        return NOT_REPORTED, n
    return sorted(samples)[rank - 1], n


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def group_stats(spans):
    """{group: {"calls", "busy_s", "self_s", "durations"}}.

    ``calls`` and ``busy_s`` count only outermost spans of a group (a span
    whose parent is in another group), so a group calling itself, such as
    ``interval_hull`` calling ``interval_hull_coords``, is not counted twice.
    ``durations`` lists every span's duration, outermost or not.
    """
    selfs = self_times(spans)
    stats = {}
    for s, own in zip(spans, selfs):
        st = stats.setdefault(
            s[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
        )
        dur = s[2] - s[1]
        st["self_s"] += own
        st["durations"].append(dur)
        if s[3] < 0 or spans[s[3]][0] != s[0]:
            st["calls"] += 1
            st["busy_s"] += dur
    return stats


def layer_self(stats):
    """Self time per top-level layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for group, st in stats.items():
        out[group.split(".", 1)[0]] += st["self_s"]
    return out
