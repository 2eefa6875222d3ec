"""Finite-dimensional normed spaces and convex segment geometry.

Everything downstream (net construction, graph audits, polyline placement)
funnels through the primitives here: norm evaluation, volume-uniform ball
sampling, distances from points and segments to segments and spheres, and
the certified clearance tests of breakpoint placement.

Point-segment and segment-segment distances come from one kernel per kind
of norm, each returning the distance (attained at a parameter in the box,
hence an upper bound) and an error bound below it:

  l2           closed forms (the segment pair by clamp, project, clamp);
  polyhedral   l1, l-inf and l1 sums of them: t -> ||a + t*(b - a) - p|| and
               (s, t) -> ||w + s*u - t*v|| are convex and piecewise linear,
               linear on each cell of the arrangement of their kink lines
               and the box lines, so the minimum sits at a vertex of that
               arrangement; all vertices are enumerated and evaluated;
  other        nested ternary search, exact up to the parameter tolerance
               because the objectives are convex (a norm composed with an
               affine map), not merely unimodal.

box_near, points_clear and segments_clear certify pairs (point-segment or
segment-segment) at norm distance >= need; the caller hands the pairs
box_near keeps to one of the other two, which pass a candidate only when
every pair it owns is certified, so floating error may reject a clear
candidate but never passes a close one.  Each step runs on the pairs the
steps before it leave open, for the candidates no pair has rejected:

  box test    box_near keeps the pairs whose bounding boxes sit closer than
              the sup-norm gap 2 * need * box_factor; the others are
              certified, in every space, as ||z|| >= ||z||_inf / box_factor;
  l2 screen   the Euclidean closed form d: l2_lower * d >= need certifies
              the pair, l2_upper * d < need rejects it;
  kernels     the exact kernel where the space has one, then ternary
              search (points) or nested search at 22 and then 52
              iterations (segments).  A value under need rejects, being
              attained; value - err >= need certifies; otherwise the
              candidate's open pairs go on, and are rejected after the last.

Randomized brute-force and linear-programming cross-checks live in the test
suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import SamplingError, ValidationError

# Parameter tolerance for the convex searches; distances derived from them
# are then reliable to roughly 1e-8, which leaves headroom below the
# smallest constants used anywhere (strict-mode gamma ~ 1e-11 only enters
# comparisons, never divisions).
PARAM_TOL = 1e-9
_TERNARY_ITERS = 52  # (2/3)**52 < 1e-9
_EPS = float(np.finfo(np.float64).eps)
# Candidate points per block of the polyhedral enumeration: bounds its
# working memory however many pairs are open.
_ENUM_POINTS = 16384
# Pairs whose coordinates points_clear and segments_clear gather at a time:
# bounds the coordinates and kernel temporaries they hold at once.
_CLEAR_PAIRS = 1024
_SAMPLE_BUDGET = 10_000  # box draws per requested ball sample


def as_vector(coords, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite float64 vector, optionally checking the dimension."""
    v = np.asarray(coords, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise ValidationError(f"dimension mismatch: vector has {v.shape[0]}, space has {dim}")
    return v


def as_int(value, what: str) -> int:
    """An integer field read from JSON, as an int: an integral number
    passes; a bool, a string or a non-integral number raises."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class NormedSpace:
    """A finite-dimensional normed space with certified comparison factors.

    kind is one of "lp", "l1sum", "custom".  The factors carried alongside
    the norm are upper/lower bounds used for certified screening:

      box_factor   unit ball sits inside the sup-norm box of this half-width
                   (||x||_inf <= box_factor * ||x||)
      linf_factor  ||x|| <= linf_factor * ||x||_inf
      l2_lower     ||x|| >= l2_lower * ||x||_2   (0.0 when unknown)
      l2_upper     ||x|| <= l2_upper * ||x||_2   (inf when unknown)
    """

    kind: str
    dim: int
    p: float = 2.0
    parts: tuple = ()
    norm_fn: Optional[Callable] = field(default=None, compare=False)
    vectorized: bool = True
    box_factor: float = 1.0
    linf_factor: float = 1.0
    l2_lower: float = 1.0
    l2_upper: float = 1.0


def lp_space(p, dim: int) -> NormedSpace:
    """The space R^dim with the l_p norm, p in [1, inf]."""
    p = float(p)
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    if not (p >= 1.0):
        raise ValidationError("p must be >= 1")
    if math.isinf(p):
        # ||x||_inf <= ||x||_2 <= sqrt(n) ||x||_inf
        return NormedSpace("lp", dim, p=math.inf, linf_factor=1.0,
                           l2_lower=1.0 / math.sqrt(dim), l2_upper=1.0)
    linf = dim ** (1.0 / p)
    if p <= 2.0:
        l2_lo, l2_up = 1.0, dim ** (1.0 / p - 0.5)
    else:
        l2_lo, l2_up = dim ** (1.0 / p - 0.5), 1.0
    return NormedSpace("lp", dim, p=p, linf_factor=linf, l2_lower=l2_lo, l2_upper=l2_up)


def direct_sum_l1(a: NormedSpace, b: NormedSpace) -> NormedSpace:
    """The l1 direct sum: ||(x, y)|| = ||x||_a + ||y||_b."""
    return NormedSpace(
        "l1sum", a.dim + b.dim, parts=(a, b),
        box_factor=max(a.box_factor, b.box_factor),
        linf_factor=a.linf_factor + b.linf_factor,
        l2_lower=min(a.l2_lower, b.l2_lower),
        l2_upper=math.hypot(a.l2_upper, b.l2_upper),
    )


def custom_space(dim: int, norm_fn: Callable, box_factor: float,
                 vectorized: bool = False) -> NormedSpace:
    """Wrap a user norm evaluator.

    box_factor must be supplied: sampling, lattices and box_near need a
    certified enclosing box (one the basis vectors refute is rejected), and
    deriving one for an arbitrary norm is a separate hard problem.  The linf
    factor is certified from the basis vectors via the triangle inequality;
    the l2 comparison factors are left unknown, so the l2 screen is skipped
    for custom norms.
    """
    if box_factor <= 0:
        raise ValidationError("box_factor must be positive")
    space = NormedSpace("custom", dim, norm_fn=norm_fn, vectorized=vectorized,
                        box_factor=float(box_factor), linf_factor=1.0,
                        l2_lower=0.0, l2_upper=math.inf)
    basis_norms = norms(space, np.eye(dim))
    if np.any(basis_norms <= 0):
        raise ValidationError("norm of a basis vector must be positive")
    if np.any(box_factor * basis_norms < 1):
        raise ValidationError(f"box_factor {box_factor} is under 1 / ||e_i|| for some e_i")
    return NormedSpace("custom", dim, norm_fn=norm_fn, vectorized=vectorized,
                       box_factor=float(box_factor),
                       linf_factor=float(np.sum(basis_norms)),
                       l2_lower=0.0, l2_upper=math.inf)


def norms(space: NormedSpace, pts: np.ndarray) -> np.ndarray:
    """Norms of a batch of row vectors, shape (m, dim) -> (m,)."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != space.dim:
        raise ValidationError(
            f"dimension mismatch: points have shape {pts.shape}, space has dim {space.dim}")
    if space.kind == "lp":
        if space.dim == 1 and space.p in (1.0, math.inf):
            return np.abs(pts[:, 0])  # the bits of the one-term sum or max, at a third of the cost
        if math.isinf(space.p):  # over a contiguous |pts|.T: faster, and max is exact
            return np.abs(pts.T, order="C").max(axis=0)
        if space.p == 1.0:
            return np.sum(np.abs(pts), axis=1)
        if space.p == 2.0:
            return np.sqrt(np.einsum("ij,ij->i", pts, pts))
        return np.sum(np.abs(pts) ** space.p, axis=1) ** (1.0 / space.p)
    if space.kind == "l1sum":
        a, b = space.parts
        return norms(a, pts[:, : a.dim]) + norms(b, pts[:, a.dim:])
    if space.vectorized:
        return np.asarray(space.norm_fn(pts), dtype=np.float64)
    return np.array([float(space.norm_fn(row)) for row in pts], dtype=np.float64)


@dataclass(frozen=True)
class Segment:
    """A line segment [a, b]; degenerate (a == b) only when flagged."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))

    def point(self, t: float) -> np.ndarray:
        return self.a + t * (self.b - self.a)


def _norms_nd(space: NormedSpace, x: np.ndarray) -> np.ndarray:
    """Norms over the last axis of an array of any leading shape."""
    return norms(space, x.reshape(-1, space.dim)).reshape(x.shape[:-1])


def _ternary_batch(f, lo: np.ndarray, hi: np.ndarray, iters: int = _TERNARY_ITERS):
    """Vectorized ternary search for a batch of convex scalar functions.

    f maps a parameter array of shape (..., k) to values of the same shape,
    element by element; both probes of a step go to f in one call.  Valid
    for convex f even with flat stretches: when f(m1) <= f(m2) a minimizer
    lies in [lo, m2].
    """
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = f(np.stack([m1, m2]))
        left = f1 <= f2
        hi = np.where(left, m2, hi)
        lo = np.where(left, lo, m1)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


# --- segment kernels -------------------------------------------------------

def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", x, y)


def _l2_point_segment(p, a, b) -> np.ndarray:
    """Euclidean distance from p to the segment [a, b], broadcasting over
    the leading axes."""
    d = b - a
    t = np.clip(_dot(p - a, d) / np.maximum(_dot(d, d), 1e-300), 0.0, 1.0)
    diff = a + t[..., None] * d - p
    return np.sqrt(_dot(diff, diff))


def _l2_segment_segment(a1, b1, a2, b2) -> np.ndarray:
    """Euclidean distance between [a1, b1] and [a2, b2], broadcasting over
    the leading axes.

    The squared objective is a convex quadratic over the unit box: clamp,
    project, clamp (Ericson, Real-Time Collision Detection, 5.1.9) finds its
    minimum, but near parallel a*c - b*b cancels, so there the four box
    edges' minima count too.  The value is one evaluated difference: attained.
    """
    u, v, w0 = b1 - a1, b2 - a2, a1 - a2
    a = np.maximum(_dot(u, u), 1e-300)
    b = _dot(v, u)
    c = np.maximum(_dot(v, v), 1e-300)
    d = _dot(w0, u)
    e = _dot(v, w0)
    den = a * c - b * b
    s = np.clip((b * e - c * d) / np.maximum(den, 1e-300), 0.0, 1.0)
    t = np.clip((b * s + e) / c, 0.0, 1.0)
    s = np.clip((b * t - d) / a, 0.0, 1.0)
    diff = w0 + s[..., None] * u - t[..., None] * v
    best, near = _dot(diff, diff), den < 1e-6 * a * c  # the angle under ~1e-3
    if near.any():
        zero, one = np.zeros_like(b), np.ones_like(b)
        for s, t in ((zero, e / c), (one, (e + b) / c), (-d / a, zero), ((b - d) / a, one)):
            diff = w0 + np.clip(s, 0.0, 1.0)[..., None] * u - np.clip(t, 0.0, 1.0)[..., None] * v
            best = np.where(near, np.minimum(best, _dot(diff, diff)), best)
    return np.sqrt(best)


@functools.lru_cache(maxsize=64)
def _kink_rows(space: NormedSpace) -> Optional[np.ndarray]:
    """Rows c such that the norm is linear on every region where no c.x
    changes sign, or None when the norm is not polyhedral.

    l1: e_i.  l-inf: e_i + e_j and e_i - e_j for i < j, which fix the
    signed coordinate of largest modulus (e_1 in dimension 1).  l1 sums:
    the parts' rows, block-diagonally.
    """
    if space.kind == "lp" and (space.p == 1.0 or space.dim == 1 and math.isinf(space.p)):
        rows = np.eye(space.dim)
    elif space.kind == "lp" and math.isinf(space.p):
        i, j = np.triu_indices(space.dim, 1)
        rows = np.zeros((2 * i.size, space.dim))
        r = np.arange(i.size)
        rows[r, i] = rows[r, j] = rows[i.size + r, i] = 1.0
        rows[i.size + r, j] = -1.0
    elif space.kind == "l1sum":
        a, b = (_kink_rows(part) for part in space.parts)
        if a is None or b is None:
            return None
        rows = np.zeros((len(a) + len(b), space.dim))
        rows[:len(a), :a.shape[1]] = a
        rows[len(a):, a.shape[1]:] = b
    else:
        return None
    rows.setflags(write=False)
    return rows


def _is_l2(space: NormedSpace) -> bool:
    return space.kind == "lp" and space.p == 2.0


def has_exact_kernel(space: NormedSpace) -> bool:
    """True for l2 and the polyhedral norms, whose segment distances are
    computed in closed form or by vertex enumeration rather than searched."""
    return _is_l2(space) or _kink_rows(space) is not None


def _in_blocks(kernel, step: int, *arrays):
    """kernel applied to blocks of at most step rows of the arrays; the
    kernel's output arrays are concatenated."""
    k = arrays[0].shape[0]
    if k <= step:
        return kernel(*arrays)
    outs = [kernel(*(x[lo:lo + step] for x in arrays)) for lo in range(0, k, step)]
    return tuple(np.concatenate(parts) for parts in zip(*outs))


def _polyhedral_points_segment(space: NormedSpace, x0, d):
    """min over t in [0,1] of ||x0 + t*d|| per row, for a polyhedral norm:
    the minimum sits at t = 0, t = 1 or a kink t = -c.x0 / c.d.  Returns
    (vals, ill): ill marks rows whose kink in or near [0, 1] could not be
    located to PARAM_TOL in floating point."""
    rows = _kink_rows(space)
    num, den = -(x0 @ rows.T), d @ rows.T
    scale = (np.abs(x0) + np.abs(d)) @ np.abs(rows).T  # rounding scale of num, den
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = num / den
        est = 4 * _EPS * (2 * scale / np.abs(den) + 1)  # rounding of t if t in [0, 1]
    kink = den != 0
    off = np.maximum(np.maximum(-t, t - 1.0), 0.0)
    ill = np.any(kink & (off <= est) & (est > PARAM_TOL), axis=1)
    k = len(x0)
    cand = np.concatenate([np.where(kink, np.clip(t, 0.0, 1.0), 0.0),
                           np.zeros((k, 1)), np.ones((k, 1))], axis=1)
    vals = _norms_nd(space, x0[:, None] + cand[..., None] * d[:, None]).min(axis=1)
    return vals, ill


# Box lines s = 0, s = 1, t = 0, t = 1 as A*s + B*t = C.
_BOX_A = np.array([1.0, 1.0, 0.0, 0.0])
_BOX_B = np.array([0.0, 0.0, 1.0, 1.0])
_BOX_C = np.array([0.0, 1.0, 0.0, 1.0])


def _polyhedral_segment_pairs(space: NormedSpace, w, u, v):
    """min over (s, t) in [0,1]^2 of ||w + s*u - t*v|| per row, for a
    polyhedral norm.

    The objective is linear on each cell of the arrangement of the kink
    lines c.(w + s*u - t*v) = 0 and the four box lines, so its minimum over
    the box sits at an intersection of two of these lines inside the box.
    Every intersection is solved by Cramer's rule, clipped to the box and
    evaluated.  Lines that are exactly parallel in floating point are
    skipped: lines that close to parallel meet at a kink that barely bends
    the objective along them.  Returns (vals, ill): ill marks rows where an
    intersection in or near the box could not be located to PARAM_TOL, from
    a first-order bound on the rounding of the coefficients and the solve.
    """
    rows = _kink_rows(space)
    k = len(w)
    box = np.ones((k, 1))
    A = np.concatenate([u @ rows.T, box * _BOX_A], axis=1)
    B = np.concatenate([-(v @ rows.T), box * _BOX_B], axis=1)
    C = np.concatenate([-(w @ rows.T), box * _BOX_C], axis=1)
    G = np.concatenate([(np.abs(w) + np.abs(u) + np.abs(v)) @ np.abs(rows).T,
                        np.zeros((k, 4))], axis=1)  # rounding scale; box lines exact
    H = np.abs(A) + np.abs(B)
    i, j = np.triu_indices(A.shape[1], 1)
    det = A[:, i] * B[:, j] - A[:, j] * B[:, i]
    # est bounds how far rounding moves an intersection that lies in the
    # box; a computed point farther than est from the box lies outside it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (C[:, i] * B[:, j] - C[:, j] * B[:, i]) / det
        t = (A[:, i] * C[:, j] - A[:, j] * C[:, i]) / det
        est = (8 * _EPS * (H[:, i] * G[:, j] + H[:, j] * G[:, i] + H[:, i] * H[:, j])
               / np.abs(det))
    meet = det != 0
    off = np.maximum(np.maximum(np.maximum(-s, s - 1.0), np.maximum(-t, t - 1.0)), 0.0)
    ill = np.any(meet & (off <= est) & (est > PARAM_TOL), axis=1)
    s = np.where(meet, np.clip(s, 0.0, 1.0), 0.0)
    t = np.where(meet, np.clip(t, 0.0, 1.0), 0.0)
    x = w[:, None] + s[..., None] * u[:, None] - t[..., None] * v[:, None]
    return _norms_nd(space, x).min(axis=1), ill


def _points_segment_exact(space: NormedSpace, pts, a, b):
    """points_segment_distance by the exact kernel of l2 or a polyhedral
    norm (err = inf where a kink could not be located reliably)."""
    d = b - a
    if _is_l2(space):
        return _l2_point_segment(pts, a, b), norms(space, d) * 4 * PARAM_TOL
    vals, ill = _in_blocks(functools.partial(_polyhedral_points_segment, space),
                           max(1, _ENUM_POINTS // (len(_kink_rows(space)) + 2)), a - pts, d)
    return vals, np.where(ill, np.inf, norms(space, d) * 4 * PARAM_TOL)


def _points_segment_search(space: NormedSpace, pts, a, b):
    """points_segment_distance by ternary search, for any norm."""
    d = b - a

    def f(tvals):
        return _norms_nd(space, a + tvals[..., None] * d - pts)

    m = pts.shape[0]
    _, val = _ternary_batch(f, np.zeros(m), np.ones(m))
    return val, norms(space, d) * 6 * PARAM_TOL


def points_segment_distance(space: NormedSpace, pts: np.ndarray, a, b):
    """min_t ||a + t(b-a) - p|| for each row p of pts.  Returns (dist, err):
    dist is attained, hence an upper bound, and dist - err a lower bound.

    a and b are one segment, or one segment per row of pts.  l2 and the
    polyhedral norms use their exact kernels (a polyhedral row whose kink
    could not be located reliably gets err = inf); other norms use ternary
    search.
    """
    pts, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in (pts, a, b)))
    exact = has_exact_kernel(space)
    return (_points_segment_exact if exact else _points_segment_search)(space, pts, a, b)


def point_segment_distance(space: NormedSpace, p, s: Segment) -> float:
    """Distance from a point to a segment (see points_segment_distance)."""
    p = as_vector(p, space.dim)
    val, _ = points_segment_distance(space, p[None, :], s.a, s.b)
    return float(val[0])


def _segment_pairs_exact(space: NormedSpace, a1, b1, a2, b2):
    """segment_pairs_distance by the exact kernel of l2 or a polyhedral
    norm (err = inf where an intersection could not be located reliably)."""
    lens = norms(space, b1 - a1) + norms(space, b2 - a2)
    if _is_l2(space):
        return _l2_segment_segment(a1, b1, a2, b2), lens * 4 * PARAM_TOL
    lines = len(_kink_rows(space)) + 4
    vals, ill = _in_blocks(functools.partial(_polyhedral_segment_pairs, space),
                           max(1, _ENUM_POINTS // (lines * (lines - 1) // 2)),
                           a1 - a2, b1 - a1, b2 - a2)
    return vals, np.where(ill, np.inf, lens * 4 * PARAM_TOL)


def _segment_pairs_search(space: NormedSpace, a1, b1, a2, b2,
                          iters: int = _TERNARY_ITERS):
    """segment_pairs_distance by nested ternary search, for any norm.

    The objective is jointly convex, so the partial minimum over t is convex
    in s and nested ternary search is exact up to (2/3)**iters in each
    parameter.
    """
    d1 = b1 - a1
    d2 = b2 - a2

    def g(svals):
        pts = a1 + svals[..., None] * d1
        _, val = _ternary_batch(lambda t: _norms_nd(space, a2 + t[..., None] * d2 - pts),
                                np.zeros_like(svals), np.ones_like(svals), iters)
        return val

    k = a1.shape[0]
    _, val = _ternary_batch(g, np.zeros(k), np.ones(k), iters)
    lens = norms(space, d1) + norms(space, d2)
    return val, lens * ((2.0 / 3.0) ** iters + 4 * PARAM_TOL)


def segment_pairs_distance(space: NormedSpace, a1, b1, a2, b2):
    """min over (s, t) in [0,1]^2 of ||a1 + s(b1-a1) - a2 - t(b2-a2)|| row
    by row, for segments given as (k, dim) endpoint arrays, as (dist, err):
    dist is attained, hence an upper bound, and dist - err a lower bound.

    l2 and the polyhedral norms use their exact kernels (a polyhedral pair
    with an intersection that could not be located reliably gets err = inf);
    other norms use nested ternary search.
    """
    exact = has_exact_kernel(space)
    return (_segment_pairs_exact if exact else _segment_pairs_search)(space, a1, b1, a2, b2)


def segment_segment_distance(space: NormedSpace, s1: Segment, s2: Segment) -> float:
    """min over (s, t) in [0,1]^2 of ||s1(s) - s2(t)|| (see
    segment_pairs_distance)."""
    return float(segment_pairs_distance(space, s1.a[None, :], s1.b[None, :],
                                        s2.a[None, :], s2.b[None, :])[0][0])


# --- certified clearance ---------------------------------------------------

def box_near(space: NormedSpace, x: np.ndarray, y: np.ndarray, need: float) -> np.ndarray:
    """(len(x), len(y)) mask, False only where x[i] and y[j] are certified
    at norm distance >= need by their bounding boxes alone: boxes at sup-norm
    gap g hold points at norm distance >= g / box_factor, so the gap
    2 * need * box_factor certifies the pair with a factor 2 to spare for
    rounding.  x and y hold segments (k, 2, dim) or points (k, dim)."""
    def box(z):  # corners as (dim, k) rows, so the tests run along k
        lo, hi = (z, z) if z.ndim == 2 else (np.minimum(z[:, 0], z[:, 1]),
                                             np.maximum(z[:, 0], z[:, 1]))
        return np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)

    reach = 2.0 * need * space.box_factor
    (lo1, hi1), (lo2, hi2) = box(x), box(y)
    hi1, lo1 = (hi1 + reach)[:, :, None], (lo1 - reach)[:, :, None]
    near = lo2[0] < hi1[0]
    for d in range(len(lo2)):  # one axis at a time: the masks stay 2-d
        if d:
            near &= lo2[d] < hi1[d]
        near &= lo1[d] < hi2[d]
    return near


def points_clear(space: NormedSpace, pts: np.ndarray, segs: np.ndarray,
                 i: np.ndarray, j: np.ndarray, owner: np.ndarray, m: int,
                 need: float) -> np.ndarray:
    """(m,) bool, True for the candidates in range(m) whose pairs are all
    certified at norm distance >= need.  Pair r is the point pts[i[r]]
    against the segment segs[j[r]] ((2, dim) rows), of candidate owner[r]."""
    def pairs(k):
        return pts[i[k]], segs[j[k], 0], segs[j[k], 1]

    return _clear(space, pairs, owner, m, need, _l2_point_segment,
                  _points_segment_exact, [_points_segment_search])


def segments_clear(space: NormedSpace, p: np.ndarray, q: np.ndarray,
                   i: np.ndarray, j: np.ndarray, owner: np.ndarray, m: int,
                   need: float) -> np.ndarray:
    """points_clear for pairs of segments: pair r is p[i[r]] against
    q[j[r]], of candidate owner[r]."""
    p, q = p.reshape(-1, space.dim), q.reshape(-1, space.dim)  # segment r's ends: rows 2r, 2r + 1

    def pairs(k):
        a, b = 2 * i[k], 2 * j[k]
        return p.take(a, axis=0), p.take(a + 1, axis=0), q.take(b, axis=0), q.take(b + 1, axis=0)

    return _clear(space, pairs, owner, m, need, _l2_segment_segment, _segment_pairs_exact,
                  [functools.partial(_segment_pairs_search, iters=n) for n in (22, 52)])


def _clear(space: NormedSpace, pairs, owner: np.ndarray, m: int, need: float,
           l2, exact, searches) -> np.ndarray:
    """The steps of points_clear and segments_clear (see the module
    docstring): pairs(k) gathers the coordinates of the pairs k, at most
    _CLEAR_PAIRS at a time, for l2, which gives their Euclidean distances,
    and for the exact kernel and each search, which give (dist, err).  The
    screen keeps only the indices of the pairs it leaves open."""
    ok = np.ones(m, dtype=bool)
    open_ = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, owner.size, _CLEAR_PAIRS):
        k = np.arange(lo, min(lo + _CLEAR_PAIRS, owner.size))
        dist = l2(*pairs(k))
        if space.l2_upper < math.inf:
            ok[owner[k[dist * space.l2_upper < need]]] = False
        open_.append(k[dist * space.l2_lower < need])
    idx = np.concatenate(open_)
    idx = idx[ok[owner[idx]]]
    for search in ([exact] if has_exact_kernel(space) else []) + searches:
        if idx.size == 0:
            break
        vals, err = _in_blocks(lambda k: search(space, *pairs(k)), _CLEAR_PAIRS, idx)
        ok[owner[idx[vals < need]]] = False
        unsure = np.zeros(m, dtype=bool)
        unsure[owner[idx[vals - err < need]]] = True
        idx = idx[(ok & unsure)[owner[idx]]]
    ok[owner[idx]] = False
    return ok


def _sphere_roots(space: NormedSpace, a, b, center, radius: float):
    """Where the segments [a[k], b[k]] cross the spheres ||x - center[k]|| =
    radius, for (k, dim) rows: ((vmin, v0, v1), (left, right)).

    f(t) = ||a + t(b - a) - center|| is convex: a ternary search finds its
    minimum vmin at tmin, then 80 steps bisect [0, tmin] and [tmin, 1] at
    once, one f call per step.  A side holds a root when vmin <= radius and
    its end value, v0 = f(0) or v1 = f(1), is >= radius.  Two roots closer
    than PARAM_TOL (a tangency) both become their midpoint.
    """
    if radius <= 0:
        raise ValidationError("radius must be positive")
    d = b - a

    def f(tvals):
        return _norms_nd(space, a + tvals[..., None] * d - center)

    ends = np.stack([np.zeros(len(a)), np.ones(len(a))])
    tmin, vmin = _ternary_batch(f, *ends)
    lo, hi = np.stack([ends[0], tmin]), np.stack([tmin, ends[1]])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_left, f_right = f(mid)
        up = np.stack([f_left >= radius, f_right <= radius])  # the root lies above mid
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    (left, right), (v0, v1) = 0.5 * (lo + hi), f(ends)
    merge = (v0 >= radius) & (v1 >= radius) & (np.abs(left - right) < PARAM_TOL)
    mid = 0.5 * (left + right)
    return (vmin, v0, v1), (np.where(merge, mid, left), np.where(merge, mid, right))


def ball_cuts(space: NormedSpace, a, b, center, radius: float):
    """The parameter intervals [lo, hi] of the segments [a[k], b[k]] inside
    the closed balls B(center[k], radius), one interval by convexity, and
    meets, False where a segment misses its ball.  lo is 0 when a lies in
    the ball, else the left root; hi is 1 when b does, else the right root.

    Rows the l2 screen proves to miss (Euclidean distance times l2_lower
    over radius * (1 + PARAM_TOL)) skip the root search: meets False.
    """
    if radius <= 0:
        raise ValidationError("radius must be positive")
    center = np.broadcast_to(center, a.shape)
    lo, hi, meets = np.ones(len(a)), np.ones(len(a)), np.zeros(len(a), dtype=bool)
    near = np.flatnonzero(~(_l2_point_segment(center, a, b) * space.l2_lower
                            > radius * (1 + PARAM_TOL)))
    if near.size:
        (vmin, v0, v1), (left, right) = _sphere_roots(space, a[near], b[near],
                                                      center[near], radius)
        lo[near] = np.where(v0 <= radius, 0.0, left)
        hi[near] = np.where(v1 <= radius, 1.0, right)
        meets[near] = vmin <= radius
    return lo, hi, meets


def sample_ball_many(space: NormedSpace, center, radius: float, count: int,
                     rng: np.random.Generator):
    """count points uniform (volume) in the ball, by rejection from the
    enclosing box of half-width radius * box_factor; SamplingError after
    _SAMPLE_BUDGET * count draws."""
    if radius <= 0:
        raise ValidationError("radius must be positive")
    center = as_vector(center, space.dim)
    half = radius * space.box_factor
    out = np.empty((count, space.dim))
    got = 0
    draws = 0
    limit = _SAMPLE_BUDGET * count
    while got < count:
        chunk = max(128, 2 * (count - got))
        if draws + chunk > limit:
            chunk = limit - draws
            if chunk <= 0:
                raise SamplingError(
                    f"rejection budget exceeded after {draws} draws "
                    f"(box_factor {space.box_factor} may be loose)")
        cand = center + rng.uniform(-half, half, size=(chunk, space.dim))
        draws += chunk
        keep = cand[norms(space, cand - center) <= radius]
        take = min(count - got, keep.shape[0])
        out[got:got + take] = keep[:take]
        got += take
    return out


# --- serialization ---------------------------------------------------------

def space_to_json(space: NormedSpace) -> dict:
    if space.kind == "lp":
        return {"kind": "lp", "p": "inf" if math.isinf(space.p) else space.p,
                "dim": space.dim}
    if space.kind == "l1sum":
        return {"kind": "l1sum", "dim": space.dim,
                "parts": [space_to_json(p) for p in space.parts]}
    raise ValidationError("custom spaces do not serialize to JSON")


def space_from_json(obj: dict) -> NormedSpace:
    try:
        kind = obj["kind"]
        if kind == "lp":
            p = math.inf if obj["p"] == "inf" else float(obj["p"])
            return lp_space(p, as_int(obj["dim"], "dim"))
        if kind == "l1sum":
            a, b = (space_from_json(part) for part in obj["parts"])
            return direct_sum_l1(a, b)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed space JSON: missing/invalid field {exc}") from exc
    raise ValidationError(f"unknown space kind {kind!r}")


def parse_space(descriptor: str) -> NormedSpace:
    """Mini-grammar: lp:<p|inf>:<dim> and l1sum:<desc>+<desc>."""
    space, rest = _parse_space(descriptor)
    if rest:
        raise ValidationError(f"trailing characters in space descriptor: {rest!r}")
    return space


def _parse_space(s: str):
    if s.startswith("lp:"):
        body = s[3:]
        sep = body.find(":")
        if sep < 0:
            raise ValidationError(f"bad lp descriptor (want lp:<p|inf>:<dim>): {s!r}")
        p_str = body[:sep]
        rest = body[sep + 1:]
        digits = 0
        while digits < len(rest) and rest[digits].isdigit():
            digits += 1
        if digits == 0:
            raise ValidationError(f"bad lp dimension in descriptor: {s!r}")
        p = math.inf if p_str == "inf" else float(p_str)
        return lp_space(p, int(rest[:digits])), rest[digits:]
    if s.startswith("l1sum:"):
        left, rest = _parse_space(s[6:])
        if not rest.startswith("+"):
            raise ValidationError(f"l1sum descriptor needs '+' between parts: {s!r}")
        right, rest = _parse_space(rest[1:])
        return direct_sum_l1(left, right), rest
    raise ValidationError(f"unknown space descriptor: {s!r}")
