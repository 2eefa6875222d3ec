"""Separated covering point sets (nets) in balls of a normed space.

A net here is a finite subset of the ball r*B(X) that is well separated and
covers the ball to a certified radius rho.  It is built greedily over the
lattice (delta/k) * Z^n, scanning candidates in lexicographic order after a
forced origin.

Scale convention.  The covering certificate is

    rho = delta + (delta/k) * linf_factor(X)

(the lattice rounding error measured in the norm), and the greedy keeps
points at pairwise distance >= rho, the same value.  Running separation and
covering on one scale is what keeps the downstream edge rule (threshold
3*rho) and the inverse-Lipschitz audits consistent: dividing every
coordinate by rho turns the net into a unit-separated, unit-covering net,
which is the normal form the polyline placement works in.  Pairwise
distances are >= rho >= delta, so the delta-separation contract holds a
fortiori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .spaces import (NormedSpace, as_vector, norms, sample_ball_many,
                     space_from_json, space_to_json)

_REL_TOL = 1e-12
_PAIR_BUDGET = 1 << 16  # candidate-point pairs per norms call in the blocked scans
_CANDIDATE_CAP = 1_000_000  # lattice candidates a net may be built from


@dataclass(frozen=True)
class Net:
    """A separated, covering point set in r*B(space).

    points has one row per net point; rho is the certified covering radius
    (max distance from any point of the ball to the net).
    """

    space: NormedSpace
    delta: float
    r: float
    points: np.ndarray
    rho: float

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.delta, self.r, self.rho)):
            raise ValidationError("net delta, r and rho must be finite and positive")
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.space.dim:
            raise ValidationError("net points must be rows of the space's dimension")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("net points must be finite")
        if np.any(norms(self.space, pts) > self.r * (1 + _REL_TOL)):
            raise ValidationError("net point outside the ball of radius r")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def origin_index(self) -> Optional[int]:
        """The first all-zero row, else None; build_net puts the origin first."""
        zero = np.flatnonzero(~np.any(self.points, axis=1))
        return int(zero[0]) if zero.size else None


def _pair_distances(space: NormedSpace, pts: np.ndarray):
    """Yields (i, j, d) over all pairs i < j of the rows of pts, in
    row-major order, with d = norms(space, pts[j] - pts[i]): one norms call
    per block of rows, each block holding about _PAIR_BUDGET pairs."""
    m, a = len(pts), 0
    while a < m - 1:
        b = min(m - 1, a + max(1, _PAIR_BUDGET // (m - 1 - a)))
        i, j = np.nonzero(np.arange(m) > np.arange(a, b)[:, None])
        i += a
        yield i, j, norms(space, pts[j] - pts[i])
        a = b


def _nearest_distances(space: NormedSpace, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """min over j of norms(space, ys[j] - xs[i]) for each row i of xs: one
    norms call per block of rows, each block holding about _PAIR_BUDGET
    pairs."""
    step = max(1, _PAIR_BUDGET // len(ys))
    return np.concatenate([
        norms(space, (ys[None] - xs[a:a + step, None]).reshape(-1, space.dim))
        .reshape(-1, len(ys)).min(axis=1) for a in range(0, len(xs), step)])


def lattice_candidates(space: NormedSpace, delta: float, r: float,
                       mesh_divisor: int) -> np.ndarray:
    """All points of (delta/k) * Z^n inside r*B(X), in lexicographic order."""
    h = delta / mesh_divisor
    half = int(np.floor(r * space.box_factor / h + _REL_TOL))
    per_axis = 2 * half + 1
    # with per_axis >= 2 any dim >= 64 is over the cap; a huge power is never formed
    if per_axis > 1 and (space.dim >= 64 or per_axis ** space.dim > _CANDIDATE_CAP):
        raise ValidationError(
            f"lattice would have {per_axis}^{space.dim} candidates, "
            f"over the cap {_CANDIDATE_CAP}; coarsen the mesh or shrink r/delta")
    axis = h * np.arange(-half, half + 1, dtype=np.float64)
    grids = np.meshgrid(*([axis] * space.dim), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1)
    cand = cand[norms(space, cand) <= r * (1 + _REL_TOL)]
    order = np.lexsort(cand.T[::-1])  # primary key: first coordinate
    return cand[order]


def build_net(space: NormedSpace, delta: float, r: float, mesh_divisor: int = 4) -> Net:
    """Greedy maximal separated subset of the lattice, origin first.

    Deterministic: the origin is kept unconditionally, then candidates are
    scanned lexicographically and kept when at distance >= rho from every
    point kept so far.  The scan goes in blocks of about 2**16 candidate-point
    pairs: one norms call measures a block against the points kept before it,
    then the block's survivors are walked in order, each kept survivor
    dropping the later ones too close to it in one more call.  Every distance
    is norms(space, kept_point - candidate), as in a one-at-a-time scan, so
    the same points are kept in the same order, and no more distances are
    computed than that scan computes.
    """
    if not (0 < delta < r < math.inf):
        raise ValidationError("need 0 < delta < r < inf")
    if mesh_divisor < 2:
        raise ValidationError("mesh_divisor must be >= 2")
    h = delta / mesh_divisor
    rho = delta + h * space.linf_factor
    cand = lattice_candidates(space, delta, r, mesh_divisor)
    cand = cand[np.any(cand, axis=1)]  # the origin goes in first, unconditionally

    kept = np.zeros((cand.shape[0] + 1, space.dim))
    n_kept = 1
    sep = rho * (1 - _REL_TOL)
    a = 0
    while a < cand.shape[0]:
        block = cand[a:a + max(1, _PAIR_BUDGET // n_kept)]
        a += block.shape[0]
        alive = block[_nearest_distances(space, block, kept[:n_kept]) >= sep]
        while alive.shape[0]:
            kept[n_kept] = alive[0]
            n_kept += 1
            alive = alive[1:]
            if alive.shape[0]:
                alive = alive[norms(space, kept[n_kept - 1] - alive) >= sep]
    return Net(space, float(delta), float(r), kept[:n_kept].copy(), float(rho))


def nearest_net_point(net: Net, y) -> np.ndarray:
    """Best approximation of y by net points; the origin when ||y|| > r.

    Ties break to the lowest index in the net's point list.
    """
    y = as_vector(y, net.space.dim)
    if norms(net.space, y[None, :])[0] > net.r:
        if net.origin_index is None:
            raise ValidationError("net has no origin point to fall back to")
        return net.points[net.origin_index].copy()
    dists = norms(net.space, net.points - y)
    return net.points[int(np.argmin(dists))].copy()


@dataclass(frozen=True)
class NetAudit:
    min_separation: float
    max_probe_gap: float
    probes: int


def verify_net(net: Net, probe_count: int, rng: np.random.Generator) -> NetAudit:
    """Exact pairwise separation plus a probe audit of the covering radius."""
    if probe_count < 1:
        raise ValidationError("probe_count must be >= 1")
    min_sep = min((float(np.min(d)) for _, _, d in _pair_distances(net.space, net.points)),
                  default=np.inf)
    probes = sample_ball_many(net.space, np.zeros(net.space.dim), net.r,
                              probe_count, rng)
    gap = float(np.max(_nearest_distances(net.space, probes, net.points)))
    return NetAudit(min_separation=min_sep, max_probe_gap=gap, probes=probe_count)


def verify_maximality(net: Net, mesh_divisor: int = 4) -> bool:
    """No lattice candidate could be added without breaking the separation."""
    cand = lattice_candidates(net.space, net.delta, net.r, mesh_divisor)
    return not np.any(_nearest_distances(net.space, cand, net.points)
                      >= net.rho * (1 + _REL_TOL))


def net_to_json(net: Net) -> dict:
    return {
        "space": space_to_json(net.space),
        "delta": net.delta,
        "r": net.r,
        "rho": net.rho,
        "points": [[float(x) for x in row] for row in net.points],
    }


def net_from_json(obj: dict) -> Net:
    try:
        space = space_from_json(obj["space"])
        pts = np.asarray(obj["points"], dtype=np.float64)
        delta, r, rho = float(obj["delta"]), float(obj["r"]), float(obj["rho"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed net JSON: {exc}") from exc
    net = Net(space, delta, r, pts, rho)
    sep = rho * (1 - _REL_TOL)  # the separation build_net keeps
    for i, j, d in _pair_distances(space, net.points):
        bad = np.flatnonzero(d < sep)
        if bad.size:
            k = bad[0]
            raise ValidationError(f"net points {i[k]} and {j[k]} are {d[k]} apart, "
                                  f"under the separation rho = {rho}")
    return net
