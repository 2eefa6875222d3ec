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


@dataclass(frozen=True)
class Net:
    """A separated, covering point set in r*B(space).

    points has one row per net point; rho is the certified covering radius
    (max distance from any point of the ball to the net).  origin_index is
    the row holding the zero vector when present; building always puts it
    first.
    """

    space: NormedSpace
    delta: float
    r: float
    points: np.ndarray
    rho: float
    origin_index: Optional[int] = 0

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


def lattice_candidates(space: NormedSpace, delta: float, r: float,
                       mesh_divisor: int, candidate_cap: int = 1_000_000) -> np.ndarray:
    """All points of (delta/k) * Z^n inside r*B(X), in lexicographic order."""
    h = delta / mesh_divisor
    half = int(np.floor(r * space.box_factor / h + _REL_TOL))
    per_axis = 2 * half + 1
    if per_axis ** space.dim > candidate_cap:
        raise ValidationError(
            f"lattice would have {per_axis}^{space.dim} candidates, "
            f"over the cap {candidate_cap}; coarsen the mesh or shrink r/delta")
    axis = h * np.arange(-half, half + 1, dtype=np.float64)
    grids = np.meshgrid(*([axis] * space.dim), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1)
    cand = cand[norms(space, cand) <= r * (1 + _REL_TOL)]
    order = np.lexsort(cand.T[::-1])  # primary key: first coordinate
    return cand[order]


def build_net(space: NormedSpace, delta: float, r: float, mesh_divisor: int = 4,
              candidate_cap: int = 1_000_000) -> Net:
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
    cand = lattice_candidates(space, delta, r, mesh_divisor, candidate_cap)
    cand = cand[np.any(cand, axis=1)]  # the origin goes in first, unconditionally

    dim = space.dim
    kept = np.zeros((cand.shape[0] + 1, dim))
    n_kept = 1
    sep = rho * (1 - _REL_TOL)
    a = 0
    while a < cand.shape[0]:
        block = cand[a:a + max(1, _PAIR_BUDGET // n_kept)]
        a += block.shape[0]
        d = norms(space, (kept[None, :n_kept] - block[:, None]).reshape(-1, dim))
        alive = block[np.min(d.reshape(block.shape[0], n_kept), axis=1) >= sep]
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
    m = net.size
    min_sep = np.inf
    for i in range(m - 1):
        d = norms(net.space, net.points[i + 1:] - net.points[i])
        min_sep = min(min_sep, float(np.min(d)))
    probes = sample_ball_many(net.space, np.zeros(net.space.dim), net.r,
                              probe_count, rng)
    gap = 0.0
    for chunk in np.array_split(probes, max(1, probe_count // 512)):
        d = np.stack([norms(net.space, net.points - p) for p in chunk])
        gap = max(gap, float(np.max(np.min(d, axis=1))))
    return NetAudit(min_separation=min_sep, max_probe_gap=gap, probes=probe_count)


def verify_maximality(net: Net, mesh_divisor: int = 4,
                      candidate_cap: int = 1_000_000) -> bool:
    """No lattice candidate could be added without breaking the separation."""
    cand = lattice_candidates(net.space, net.delta, net.r, mesh_divisor, candidate_cap)
    for block in np.array_split(cand, max(1, cand.shape[0] // 1024)):
        d = np.stack([norms(net.space, net.points - c) for c in block])
        if np.any(np.min(d, axis=1) >= net.rho * (1 + _REL_TOL)):
            return False
    return True


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
    origin = None
    zero_rows = np.where(~np.any(pts, axis=1))[0]
    if zero_rows.size:
        origin = int(zero_rows[0])
    net = Net(space, delta, r, pts, rho, origin_index=origin)
    sep = rho * (1 - _REL_TOL)  # the separation build_net keeps
    step = max(1, _PAIR_BUDGET // net.size)
    for a in range(0, net.size, step):
        rows = net.points[a:a + step]
        d = norms(space, (rows[:, None] - net.points[None]).reshape(-1, space.dim))
        d = d.reshape(len(rows), -1)
        i, j = np.nonzero(d < sep)
        later = a + i < j
        if later.any():
            i, j = i[later][0], j[later][0]
            raise ValidationError(f"net points {a + i} and {j} are {d[i, j]} apart, "
                                  f"under the separation rho = {rho}")
    return net
