"""Extended constrained zonotopes.

A set is represented as

    Z = { G @ xi + c : A @ xi = b, |xi_j| <= h_j }

where any h_j may be +inf, in which case generator j is unbounded and the
corresponding column contributes a full line (subject to the equality
constraints).  All closed-form operations (affine maps, Minkowski sums,
Cartesian products, intersections) are exact.  Point membership,
emptiness and the interval hulls of constrained sets are answered by the
LP kernel in :mod:`czest.lp`, on one lifted region per set over (xi, x):
the rows A xi = b and x - G xi = c, xi in [-h, h], x free.  The region is
built at the set's first LP query and kept; membership is a pinned probe
on its x columns (``LinearProgram.feasible_at``), emptiness a solve with
zero objective, and a hull the ``LinearProgram.bounds`` of the x columns.
``EmptySetError`` is ``lp``'s, re-exported here.

Matrices are float64 and frozen after construction; operations return new
objects.
"""

import numpy as np

from .lp import EPS_LP, INFEASIBLE, EmptySetError, LinearProgram

__all__ = [
    "ConstrainedZonotope",
    "Box",
    "EmptySetError",
    "from_box",
    "whole_space",
    "linear_map",
    "minkowski_sum",
    "cartesian_product",
    "intersect",
    "intersect_under_map",
    "project",
    "contains",
    "is_empty",
    "interval_hull",
    "interval_hull_coords",
    "diameter_inf",
]


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class ConstrainedZonotope:
    """Immutable extended constrained zonotope (G, c, A, b, h)."""

    __slots__ = ("G", "c", "A", "b", "h", "_region")

    def __init__(self, G, c, A=None, b=None, h=None):
        G = np.atleast_2d(np.asarray(G, dtype=float))
        c = np.asarray(c, dtype=float).ravel()
        n, ng = G.shape
        if c.shape[0] != n:
            raise ValueError(f"center has dim {c.shape[0]}, G has {n} rows")
        if A is None:
            A = np.zeros((0, ng))
        A = np.asarray(A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, ng)
        if b is None:
            b = np.zeros(A.shape[0])
        b = np.asarray(b, dtype=float).ravel()
        if A.shape[1] != ng:
            raise ValueError(f"A has {A.shape[1]} columns, expected {ng}")
        if b.shape[0] != A.shape[0]:
            raise ValueError(f"b has length {b.shape[0]}, A has {A.shape[0]} rows")
        if h is None:
            h = np.ones(ng)
        h = np.asarray(h, dtype=float).ravel()
        if h.shape[0] != ng:
            raise ValueError(f"h has length {h.shape[0]}, expected {ng}")
        if np.any(np.isnan(h)) or np.any(h < 0):
            raise ValueError("h must be nonnegative (np.inf allowed)")
        for name, arr in (("G", G), ("c", c), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        self.G = _freeze(G)
        self.c = _freeze(c)
        self.A = _freeze(A)
        self.b = _freeze(b)
        self.h = _freeze(h)
        self._region = None  # the lifted LP, built by ``_lifted``

    @property
    def dim(self):
        return self.G.shape[0]

    @property
    def n_generators(self):
        return self.G.shape[1]

    @property
    def n_constraints(self):
        return self.A.shape[0]

    def __repr__(self):
        return (
            f"ConstrainedZonotope(dim={self.dim}, ng={self.n_generators}, "
            f"nc={self.n_constraints})"
        )


class Box:
    """Axis-aligned box [lo, hi], closed, with finite or infinite ends."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same length")
        if not (lo <= hi).all():  # also False at a NaN: then say which
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ValueError("NaN bound")
            raise ValueError("lo > hi")
        self.lo = _freeze(lo)
        self.hi = _freeze(hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    @property
    def center(self):
        return (self.lo + self.hi) / 2.0

    @property
    def radius(self):
        return (self.hi - self.lo) / 2.0

    def contains_point(self, x, tol=EPS_LP):
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise ValueError("point dimension mismatch")
        return bool((x >= self.lo - tol).all() and (x <= self.hi + tol).all())

    def widths(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


def from_box(box):
    """Encode a Box as an unconstrained CZ.

    Finite coordinates get a generator of length radius with h = 1;
    two-sided infinite coordinates get a unit generator with h = inf.
    A coordinate bounded on one side only has no CZ encoding here and
    raises ValueError.
    """
    if not isinstance(box, Box):
        box = Box(*box)
    lo, hi = box.lo, box.hi
    one_sided = np.isfinite(lo) != np.isfinite(hi)
    if np.any(one_sided):
        raise ValueError("one-sided infinite interval has no CZ encoding")
    n = box.dim
    both_inf = ~np.isfinite(lo)
    with np.errstate(invalid="ignore"):
        c = np.where(both_inf, 0.0, (lo + hi) / 2.0)
        rad = np.where(both_inf, 1.0, (hi - lo) / 2.0)
    keep = both_inf | (rad > 0)
    idx = np.where(keep)[0]
    G = np.zeros((n, idx.size))
    h = np.zeros(idx.size)
    for k, j in enumerate(idx):
        G[j, k] = rad[j]
        h[k] = np.inf if both_inf[j] else 1.0
    return ConstrainedZonotope(G, c, None, None, h)


def whole_space(n):
    """R^n as a CZ: identity generators, all h infinite."""
    return ConstrainedZonotope(np.eye(n), np.zeros(n), None, None, np.full(n, np.inf))


def linear_map(M, Z, offset=None):
    """M @ Z (+ offset): maps generators and center, keeps constraints."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != Z.dim:
        raise ValueError(f"map has {M.shape[1]} columns, set has dim {Z.dim}")
    c = M @ Z.c
    if offset is not None:
        c = c + np.asarray(offset, dtype=float).ravel()
    return ConstrainedZonotope(M @ Z.G, c, Z.A, Z.b, Z.h)


def minkowski_sum(Z1, Z2):
    """Z1 + Z2: concatenated generators, block-diagonal constraints."""
    if Z1.dim != Z2.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    G = np.hstack([Z1.G, Z2.G])
    A = _blockdiag(Z1.A, Z2.A)
    b = np.concatenate([Z1.b, Z2.b])
    h = np.concatenate([Z1.h, Z2.h])
    return ConstrainedZonotope(G, Z1.c + Z2.c, A, b, h)


def cartesian_product(parts):
    """Stack sets into one on the product space, in the order given."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty product")
    G = _blockdiag(*[Z.G for Z in parts])
    A = _blockdiag(*[Z.A for Z in parts])
    c = np.concatenate([Z.c for Z in parts])
    b = np.concatenate([Z.b for Z in parts])
    h = np.concatenate([Z.h for Z in parts])
    return ConstrainedZonotope(G, c, A, b, h)


def intersect(Z1, Z2):
    """Z1 ∩ Z2 on a common space.

    Keeps Z1's affine part, appends Z2's generators with zero rows in G,
    and adds the coupling constraint G1 xi1 - G2 xi2 = c2 - c1.
    """
    if Z1.dim != Z2.dim:
        raise ValueError("dimension mismatch in intersection")
    n = Z1.dim
    ng1, ng2 = Z1.n_generators, Z2.n_generators
    G = np.hstack([Z1.G, np.zeros((n, ng2))])
    A = np.vstack(
        [
            _blockdiag(Z1.A, Z2.A),
            np.hstack([Z1.G, -Z2.G]),
        ]
    )
    b = np.concatenate([Z1.b, Z2.b, Z2.c - Z1.c])
    h = np.concatenate([Z1.h, Z2.h])
    return ConstrainedZonotope(G, Z1.c, A, b, h)


def intersect_under_map(Zx, H, Y, Zv):
    """States consistent with the observation Y = H x + v, v in Zv.

    Returns { x in Zx : H x + v = Y for some v in Zv } without any rank
    condition on H: the measurement becomes one more constraint block over
    the joint generator vector (xi_x, xi_v).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Y = np.asarray(Y, dtype=float).ravel()
    if H.shape[1] != Zx.dim:
        raise ValueError(f"H has {H.shape[1]} columns, state dim is {Zx.dim}")
    if H.shape[0] != Y.shape[0] or H.shape[0] != Zv.dim:
        raise ValueError("H rows, Y length and noise dim must agree")
    ngx, ngv = Zx.n_generators, Zv.n_generators
    G = np.hstack([Zx.G, np.zeros((Zx.dim, ngv))])
    A = np.vstack(
        [
            _blockdiag(Zx.A, Zv.A),
            np.hstack([H @ Zx.G, Zv.G]),
        ]
    )
    b = np.concatenate([Zx.b, Zv.b, Y - Zv.c - H @ Zx.c])
    h = np.concatenate([Zx.h, Zv.h])
    return ConstrainedZonotope(G, Zx.c, A, b, h)


def project(Z, coords):
    """Coordinate projection: keep the listed output dimensions."""
    coords = list(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate coordinates in projection")
    for i in coords:
        if not 0 <= i < Z.dim:
            raise ValueError(f"coordinate {i} out of range for dim {Z.dim}")
    return ConstrainedZonotope(Z.G[coords, :], Z.c[coords], Z.A, Z.b, Z.h)


def _lifted_block(Z):
    """Z as one LP block (lo, hi, D, b_lo, b_hi) over its columns (xi, x),
    x the last ``dim``: the rows A xi = b and x - G xi = c, xi in [-h, h]
    and x free."""
    n = Z.dim
    D = np.block([[Z.A, np.zeros((Z.n_constraints, n))], [-Z.G, np.eye(n)]])
    b, free = np.concatenate([Z.b, Z.c]), np.full(n, np.inf)
    return np.concatenate([-Z.h, -free]), np.concatenate([Z.h, free]), D, b, b


def _lifted(Z):
    """Z's lifted LP over (xi, x) (``_lifted_block``), built at the first
    call and kept; x is columns ``ng .. ng + dim - 1``."""
    if Z._region is None:
        lo, hi, D, b, _ = _lifted_block(Z)
        Z._region = LinearProgram(D, b, lo, hi)
    return Z._region


def contains(Z, x):
    """True iff x is in Z (resolved at the kernel tolerance EPS_LP)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != Z.dim:
        raise ValueError("point dimension mismatch")
    return _lifted(Z).feasible_at(Z.n_generators + np.arange(Z.dim), x)


def is_empty(Z):
    """True iff Z has no points."""
    if Z.n_constraints == 0:
        return False
    return _lifted(Z).solve(np.zeros(Z.n_generators + Z.dim)).status == INFEASIBLE


def interval_hull(Z):
    """Smallest axis-aligned Box containing Z.

    Unconstrained sets are handled in closed form (c ± |G| h, with the
    convention 0 * inf = 0); otherwise each bound is one LP on the set's
    lifted region, all minima before all maxima, warm-started across the
    batch and from the region's last query.  Raises
    EmptySetError on an empty set.
    """
    return interval_hull_coords(Z, range(Z.dim))


def interval_hull_coords(Z, coords):
    """Interval hull of the projection onto the listed coordinates."""
    coords = list(coords)
    if Z.n_constraints == 0:
        W = np.abs(Z.G[coords, :])
        with np.errstate(invalid="ignore"):
            contrib = np.where(W > 0.0, W * Z.h, 0.0)
        r = contrib.sum(axis=1)
        c = Z.c[coords]
        return Box(c - r, c + r)
    region = _lifted(Z)
    units = np.zeros((len(coords), region.n))
    units[np.arange(len(coords)), Z.n_generators + np.asarray(coords, dtype=int)] = 1.0
    return Box(*region.bounds(units))


def diameter_inf(Z):
    """Largest side of the interval hull (Chebyshev-style size measure)."""
    widths = interval_hull(Z).widths()
    return float(widths.max()) if widths.size else 0.0


def _blockdiag(*mats):
    """Block diagonal that tolerates 0-row and 0-column blocks."""
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats]
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out

