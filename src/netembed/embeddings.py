"""Randomized polyline embedding of the thickened net graph into its space.

Each graph edge uv (working at the unit scale: separation 1, edge lengths
<= 3) is realized as two line segments [u, w] and [w, v], with the
breakpoint w drawn uniformly from the ball of radius mu around the midpoint
until three avoidance conditions hold against everything placed earlier:

  alpha  where the curve crosses the sphere of radius beta around each of
         its endpoints, the crossing point stays at least alpha away from
         the crossings of previously placed segments on the same sphere;
  beta   the curve stays at least beta away from every other vertex;
  gamma  outside the beta-balls of the vertices, distinct curves stay at
         least gamma apart.

One predicate, check_breakpoints, decides the three conditions for a block
of candidate breakpoints of one edge and returns the first condition each
fails; placement passes it each draw, re-verification each stored
breakpoint, and the Monte Carlo estimate its samples in blocks.  Every
comparison is tolerance inflated (pass needs the constraint plus the
tolerance), and every distance decision is certified in steps: the
Euclidean closed form, screened through the space's l2 comparison factors;
then, only for the pairs the screen leaves open and only for candidates
nothing cheaper has rejected, the space's distance kernel from spaces
(exact vertex enumeration for polyhedral norms, nested ternary search for
the rest and for the rare polyhedral pair whose enumeration was
ill-conditioned).  Each kernel returns an attained distance and an error
bound, so floating error can reject a usable breakpoint but never accept a
bad one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import PlacementError, ValidationError
from .gadgets import SubdividedGraph, subdivide
from .graphs import Graph, bfs_apsp
from .net_graphs import (NetGraph, net_graph_from_json, net_graph_to_json,
                         rescaled_unit)
from .spaces import (NormedSpace, _l2_point_segment, _l2_segment_segment,
                     has_exact_kernel, norms, points_segment_distance,
                     sample_ball_many, segment_ball_clip,
                     segment_pairs_distance)

_Z95 = 1.959963984540054
# Monte Carlo work per predicate call, in candidate-segment and
# candidate-vertex pairs: bounds the working memory of one call.
_MC_PAIRS = 4096


# --- parameters -------------------------------------------------------------

@dataclass(frozen=True)
class EmbedParams:
    """Placement constants.  mu is the breakpoint ball radius; alpha, beta,
    gamma control the three avoidance conditions.  gamma_constant records
    the convention used for the free constant in the strict gamma bound."""

    alpha: float
    beta: float
    gamma: float
    mu: float = 0.25
    mode: str = "practical"
    retry_cap: int = 10_000
    seed: int = 0
    tolerance: float = 1e-9
    gamma_constant: float = 1.0

    def validate(self, dim: int) -> None:
        if dim < 3:
            raise ValidationError("edge placement needs dimension >= 3")
        if not (self.mu > 0):
            raise ValidationError("mu must be positive")
        if not (0 < self.gamma and 0 < self.alpha and 0 < self.beta):
            raise ValidationError("alpha, beta, gamma must be positive")
        if self.retry_cap < 1:
            raise ValidationError("retry_cap must be >= 1")
        if self.mode == "strict":
            ok = (self.alpha <= self.beta / 1232 * (1 + 1e-12)
                  and self.beta <= self.mu / 546 * (1 + 1e-12)
                  and self.gamma <= (self.beta * self.mu) ** 2 / 968 * (1 + 1e-12)
                  and self.gamma <= self.beta / 20
                  and self.gamma <= self.alpha
                  and max(self.alpha, self.beta, self.gamma) < 0.25
                  and self.beta < self.mu / 5)
            if not ok:
                raise ValidationError("strict-mode constants violate the required chain")
        elif self.mode == "practical":
            if not (self.gamma <= self.beta < self.mu and self.alpha <= self.beta):
                raise ValidationError("practical mode needs gamma, alpha <= beta < mu")
        else:
            raise ValidationError(f"unknown mode {self.mode!r}")

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
                "mu": self.mu, "mode": self.mode, "retry_cap": self.retry_cap,
                "seed": self.seed, "tolerance": self.tolerance,
                "gamma_constant": self.gamma_constant}


def default_strict_params(dim: int, seed: int = 0) -> EmbedParams:
    """The strict constants: beta = mu/546, alpha = beta/1232, and gamma the
    smallest of alpha, beta/20 and (beta*mu)^2/968 (free constant taken as
    1; smaller gamma only shrinks the excluded volume)."""
    if dim < 3:
        raise ValidationError("strict parameters need dimension >= 3")
    mu = 0.25
    beta = mu / 546
    alpha = beta / 1232
    gamma = min(alpha, beta / 20, (beta * mu) ** 2 / 968)
    return EmbedParams(alpha=alpha, beta=beta, gamma=gamma, mu=mu,
                       mode="strict", seed=seed)


def practical_params(beta: float = 0.02, seed: int = 0) -> EmbedParams:
    """Looser constants for runs where the strict chain would make the
    audited inverse bound astronomically large."""
    return EmbedParams(alpha=beta / 10, beta=beta, gamma=beta / 20,
                       mode="practical", seed=seed)


def params_from_json(obj: dict) -> EmbedParams:
    try:
        return EmbedParams(
            alpha=float(obj["alpha"]), beta=float(obj["beta"]),
            gamma=float(obj["gamma"]), mu=float(obj["mu"]),
            mode=str(obj["mode"]), retry_cap=int(obj["retry_cap"]),
            seed=int(obj["seed"]), tolerance=float(obj["tolerance"]),
            gamma_constant=float(obj.get("gamma_constant", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed params JSON: {exc}") from exc


# --- certified clearance -------------------------------------------------------

def _clear(space: NormedSpace, l2: np.ndarray, owner: np.ndarray, m: int,
           need: float, searches) -> np.ndarray:
    """Certified clearance of a batch of pairs, decided per candidate.

    Pair k has Euclidean distance l2[k] and belongs to candidate owner[k] in
    range(m).  Returns (m,) bool, True only where every pair of the
    candidate is at norm distance >= need.  The space's l2 comparison
    factors settle what they can; each search in turn maps the indices of
    the open pairs to their searched distances (attained, hence upper
    bounds) and error bounds, and runs only for candidates that no pair has
    rejected and no earlier search has settled.  A candidate still open
    after the last search is rejected.
    """
    ok = np.ones(m, dtype=bool)
    open_ = l2 * space.l2_lower < need
    if space.l2_upper < math.inf:
        ok[owner[open_ & (l2 * space.l2_upper < need)]] = False
    idx = np.flatnonzero(open_ & ok[owner])
    for search in searches:
        if idx.size == 0:
            break
        vals, err = search(idx)
        ok[owner[idx[vals < need]]] = False
        unsure = np.zeros(m, dtype=bool)
        unsure[owner[idx[vals - err < need]]] = True
        idx = idx[(ok & unsure)[owner[idx]]]
    ok[owner[idx]] = False
    return ok


def _points_clear(space: NormedSpace, pts, a, b, need: float) -> np.ndarray:
    """Per candidate i, True when every point pts[i, j] is at norm distance
    >= need from the segment [a[i, j], b[i, j]]; the three arrays broadcast
    to (m, k, dim).  Spaces with an exact kernel fall back on the ternary
    search for candidates it leaves undecided."""
    pts, a, b = np.broadcast_arrays(pts, a, b)
    m, k, n = pts.shape
    pts, a, b = (x.reshape(-1, n) for x in (pts, a, b))

    def search(exact):
        def run(idx):
            return points_segment_distance(space, pts[idx], a[idx], b[idx], exact)
        return run

    chain = (search(True), search(False)) if has_exact_kernel(space) else (search(False),)
    return _clear(space, _l2_point_segment(pts, a, b),
                  np.repeat(np.arange(m), k), m, need, chain)


def _segments_clear(space: NormedSpace, p: np.ndarray, q: np.ndarray,
                    owner: np.ndarray, m: int, need: float) -> np.ndarray:
    """Per candidate, True when every segment pair (p[k], q[k]) it owns is
    at norm distance >= need.  The exact kernel runs first where the space
    has one; then the nested search at 22 iterations, and again at 52 for
    candidates that 22 leaves undecided."""
    def search(iters):
        def run(idx):
            return segment_pairs_distance(space, p[idx, 0], p[idx, 1],
                                          q[idx, 0], q[idx, 1], iters)
        return run

    chain = (search(None),) if has_exact_kernel(space) else ()
    return _clear(space, _l2_segment_segment(p[:, 0], p[:, 1], q[:, 0], q[:, 1]),
                  owner, m, need, chain + (search(22), search(52)))


# --- placement state ---------------------------------------------------------

class _PlacedState:
    """The placed prefix, as the arrays check_breakpoints reads:

      segments   (k, 2, dim)  both segments [u, w], [w, v] of each curve
      clipped    (c, 2, dim)  the curves' pieces outside their endpoint balls
      crossings  one (deg_so_far, dim) array per vertex: where the curves
                 placed at it cross its beta sphere

    add_edge appends one curve by concatenation."""

    def __init__(self, space: NormedSpace, points: np.ndarray, beta: float):
        self.space = space
        self.points = points
        self.beta = beta
        self.segments = np.empty((0, 2, space.dim))
        self.clipped = np.empty((0, 2, space.dim))
        self.crossings = [np.empty((0, space.dim))] * len(points)

    def add_edge(self, ui: int, vi: int, w: np.ndarray) -> None:
        u, v = self.points[ui], self.points[vi]
        self.segments = np.concatenate([self.segments, [[u, w], [w, v]]])
        self.clipped = np.concatenate(
            [self.clipped, _clip_curves(self.space, u, v, w[None, :], self.beta)[0]])
        for idx, end, far in ((ui, u, v), (vi, v, u)):
            out = w - end
            dist = float(norms(self.space, out[None, :])[0])
            if dist == 0.0:  # w on the endpoint: the curve leaves along [end, far]
                out = far - end
                dist = float(norms(self.space, out[None, :])[0])
            self.crossings[idx] = np.concatenate(
                [self.crossings[idx], [end + (self.beta / dist) * out]])


def _subtract_interval(intervals, cut):
    lo, hi = cut
    out = []
    for (a, b) in intervals:
        if hi <= a or lo >= b:
            out.append((a, b))
            continue
        if lo > a:
            out.append((a, lo))
        if hi < b:
            out.append((hi, b))
    return out


def _clip_curves(space: NormedSpace, u: np.ndarray, v: np.ndarray,
                 ws: np.ndarray, beta: float):
    """Pieces of the curves [u, w], [w, v] (w a row of ws) outside B(u, beta)
    and B(v, beta), as a (k, 2, dim) array, with the row of each piece.

    The beta condition keeps each curve clear of every other vertex's ball,
    so only the edge's own endpoints can clip it.  A segment leaves its own
    endpoint's ball radially; the opposite ball is cut out exactly only
    where the Euclidean screen cannot keep the segment clear of it.  Each
    segment yields at most three pieces.
    """
    pieces, rows = [], []
    for a, b, other, from_own in ((u, ws, v, True), (ws, v, u, False)):
        a, b = np.broadcast_to(a, ws.shape), np.broadcast_to(b, ws.shape)
        length = norms(space, b - a)
        keep = np.flatnonzero(length >= 1e-12)
        a, b, d = a[keep], b[keep], b[keep] - a[keep]
        frac = beta / length[keep]
        t0 = np.minimum(1.0, frac) if from_own else np.zeros_like(frac)
        t1 = np.ones_like(frac) if from_own else np.maximum(0.0, 1 - frac)
        reach = ~(_l2_point_segment(other, a, b) * space.l2_lower > beta)
        whole = ~reach & (t1 - t0 > 1e-12)
        pieces.append(np.stack([a[whole] + t0[whole, None] * d[whole],
                                a[whole] + t1[whole, None] * d[whole]], axis=1))
        rows.append(keep[whole])
        for i in np.flatnonzero(reach):
            intervals = [(t0[i], t1[i])]
            cut = segment_ball_clip(space, a[i], b[i], other, beta)
            if cut is not None:
                intervals = _subtract_interval(intervals, cut)
            for (s0, s1) in intervals:
                if s1 - s0 > 1e-12:
                    pieces.append(np.stack([a[i] + s0 * d[i], a[i] + s1 * d[i]])[None])
                    rows.append(keep[i:i + 1])
    return np.concatenate(pieces), np.concatenate(rows)


# --- the predicate -------------------------------------------------------------

ALPHA, BETA, GAMMA = 1, 2, 3
CONDITIONS = ("alpha", "beta", "gamma")  # code k names CONDITIONS[k - 1]


def check_breakpoints(state: _PlacedState, ui: int, vi: int, ws: np.ndarray,
                      params: EmbedParams) -> np.ndarray:
    """For each candidate breakpoint w (a row of ws) of the edge (ui, vi),
    the first condition it fails against the placed state: 0 when suitable,
    else ALPHA, BETA or GAMMA, tested in that order.

      alpha  the curve meets each endpoint ball in a single radial segment
             (the far segment stays clear of the ball), and its crossing of
             the sphere sits alpha away from the placed crossings there.
             Only incident curves can cross: every other placed curve passed
             its beta test and stays beta away from this vertex.
      beta   both segments stay beta away from every other vertex within
             norm distance 5 of u; farther ones cannot reach a curve of
             length under 4.
      gamma  the candidate's pieces outside the beta balls stay gamma away
             from every placed segment, and its segments stay gamma away
             from the placed curves' pieces.

    Each condition runs only on the candidates that passed the earlier
    ones, so a block answers as each candidate would alone.
    """
    space, pts = state.space, state.points
    beta, tol = params.beta, params.tolerance
    u, v = pts[ui], pts[vi]
    m, n = ws.shape
    code = np.zeros(m, dtype=np.int8)

    du, dv = norms(space, ws - u), norms(space, ws - v)
    code[(du <= beta + tol) | (dv <= beta + tol)] = ALPHA
    for vertex, end, dist in ((ui, u, du), (vi, v, dv)):
        placed = state.crossings[vertex]
        live = np.flatnonzero(code == 0)
        if placed.shape[0] and live.size:
            x = end + (beta / dist[live])[:, None] * (ws[live] - end)
            gap = norms(space, (placed[None] - x[:, None]).reshape(-1, n))
            code[live[gap.reshape(live.size, -1).min(axis=1) < params.alpha + tol]] = ALPHA
    curve = np.stack([np.broadcast_to(u, ws.shape), ws,
                      np.broadcast_to(v, ws.shape)], axis=1)     # rows u, w, v
    live = np.flatnonzero(code == 0)
    c = curve[live]
    ok = _points_clear(space, np.stack([u, v]), c[:, [1, 0]], c[:, [2, 1]], beta + tol)
    code[live[~ok]] = ALPHA

    near = norms(space, pts - u) <= 5.0
    near[ui] = near[vi] = False
    others = pts[near]
    live = np.flatnonzero(code == 0)
    if others.shape[0] and live.size:
        c, k = curve[live], others.shape[0]
        ok = _points_clear(space, np.concatenate([others, others]),
                           np.repeat(c[:, :2], k, axis=1), np.repeat(c[:, 1:], k, axis=1),
                           beta + tol)
        code[live[~ok]] = BETA

    placed, clipped = state.segments, state.clipped
    live = np.flatnonzero(code == 0)
    if placed.shape[0] and live.size:
        c = curve[live]
        pieces, rows = _clip_curves(space, u, v, ws[live], beta)
        segs = np.stack([c[:, :2], c[:, 1:]], axis=1).reshape(-1, 2, n)
        p = np.concatenate([np.repeat(pieces, placed.shape[0], axis=0),
                            np.repeat(segs, clipped.shape[0], axis=0)])
        q = np.concatenate([np.tile(placed, (pieces.shape[0], 1, 1)),
                            np.tile(clipped, (segs.shape[0], 1, 1))])
        owner = np.concatenate([np.repeat(rows, placed.shape[0]),
                                np.repeat(np.arange(live.size), 2 * clipped.shape[0])])
        ok = _segments_clear(space, p, q, owner, live.size, params.gamma + tol)
        code[live[~ok]] = GAMMA
    return code


# --- the embedding -----------------------------------------------------------

class TGPoint(NamedTuple):
    """A point of the thickened graph: position t in [0,1] along an edge."""

    edge: int
    t: float


class ThickenedGraph:
    """Shortest-curve metric on the union of unit edges of a graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.edge_list = tuple(graph.edges)
        self.hops = bfs_apsp(graph).astype(np.float64)
        self.ends = np.array(self.edge_list, dtype=np.int64).reshape(-1, 2)
        self._incident = {}
        for j, (a, b) in enumerate(self.edge_list):
            self._incident.setdefault(a, (j, 0.0))
            self._incident.setdefault(b, (j, 1.0))

    def vertex_point(self, u: int) -> TGPoint:
        j, t = self._incident[u]
        return TGPoint(j, t)

    def distance(self, p: TGPoint, q: TGPoint) -> float:
        return float(self.distances(np.array([p.edge]), np.array([p.t]),
                                    np.array([q.edge]), np.array([q.t]))[0])

    def distances(self, e1, t1, e2, t2) -> np.ndarray:
        """Distances between the points (e1[k], t1[k]) and (e2[k], t2[k]):
        the best of the four routes through the edges' endpoints, and the
        direct route along a shared edge."""
        t1, t2 = np.asarray(t1, dtype=np.float64), np.asarray(t2, dtype=np.float64)
        if not (np.all((0.0 <= t1) & (t1 <= 1.0)) and np.all((0.0 <= t2) & (t2 <= 1.0))):
            raise ValidationError("TG parameter must lie in [0, 1]")
        p_ends, q_ends = self.ends[e1], self.ends[e2]
        best = np.where(np.asarray(e1) == np.asarray(e2), np.abs(t1 - t2), math.inf)
        for off_p, end_p in ((t1, p_ends[:, 0]), (1.0 - t1, p_ends[:, 1])):
            for off_q, end_q in ((t2, q_ends[:, 0]), (1.0 - t2, q_ends[:, 1])):
                best = np.minimum(best, off_p + self.hops[end_p, end_q] + off_q)
        return best


def tg_distance(graph, p: TGPoint, q: TGPoint) -> float:
    """Shortest-curve distance between two thickened-graph points.

    Convenience wrapper; hold a ThickenedGraph when querying many pairs, the
    hop table is rebuilt on every call here.
    """
    target = graph.graph if hasattr(graph, "graph") else graph
    return ThickenedGraph(target).distance(p, q)


@dataclass
class PolylineEmbedding:
    """Per-edge two-segment curves realizing the thickened graph in space.

    Coordinates are at the unit scale (the input net graph rescaled by
    1/rho, recorded in `scale`); edge j runs [u, w_j] then [w_j, v] for the
    j-th edge of the graph in lexicographic order.
    """

    netgraph: NetGraph
    params: EmbedParams
    edge_list: tuple
    breakpoints: np.ndarray
    attempts: np.ndarray
    scale: float

    @property
    def space(self) -> NormedSpace:
        return self.netgraph.space

    def curve(self, j: int):
        u, v = self.edge_list[j]
        pts = self.netgraph.points
        return pts[u], self.breakpoints[j], pts[v]

    def curve_length(self, j: int) -> float:
        u, w, v = self.curve(j)
        return (float(norms(self.space, (w - u)[None, :])[0])
                + float(norms(self.space, (v - w)[None, :])[0]))

    def point_at(self, j: int, t: float) -> np.ndarray:
        """Arclength parametrization: t in [0,1] along the two segments."""
        return self.positions(np.array([j]), np.array([t], dtype=np.float64))[0]

    def positions(self, edges, ts) -> np.ndarray:
        """point_at(edges[k], ts[k]) for every k: at arclength s = t*(l1 + l2)
        the point lies on [u, w] while s <= l1, else on [w, v]."""
        edges, ts = np.asarray(edges), np.asarray(ts, dtype=np.float64)
        pts, ws = self.netgraph.points, self.breakpoints
        ends = np.array(self.edge_list, dtype=np.int64).reshape(-1, 2)
        us, vs = pts[ends[:, 0]], pts[ends[:, 1]]
        l1, l2 = norms(self.space, ws - us)[edges], norms(self.space, vs - ws)[edges]
        s = ts * (l1 + l2)
        at_u = ts <= 0.0
        at_v = ~at_u & (ts >= 1.0)
        first = ~at_u & ~at_v & (s <= l1)
        second = ~(at_u | at_v | first)
        out = np.empty((len(ts), self.space.dim))
        out[at_u] = us[edges[at_u]]
        out[at_v] = vs[edges[at_v]]
        u, w = us[edges[first]], ws[edges[first]]
        out[first] = u + (s[first] / l1[first])[:, None] * (w - u)
        w, v = ws[edges[second]], vs[edges[second]]
        out[second] = w + ((s[second] - l1[second]) / l2[second])[:, None] * (v - w)
        return out


def place_edges(space: NormedSpace, ng: NetGraph, params: EmbedParams,
                rng: np.random.Generator,
                edge_limit: Optional[int] = None) -> PolylineEmbedding:
    """Place curves edge by edge in lexicographic order.

    The net graph is first rescaled to the unit normal form (separation 1,
    edge threshold 3) so the constants in params mean what they should.
    Each edge rejection-samples w in the ball of radius mu around the
    midpoint until check_breakpoints accepts it.  space must be the net
    graph's space, the one the embedding records.
    """
    if space != ng.space or space.norm_fn is not ng.space.norm_fn:
        raise ValidationError("place_edges: space differs from the net graph's space")
    if space.dim < 3:
        raise ValidationError("edge placement needs dimension >= 3")
    params.validate(space.dim)
    if edge_limit is not None and edge_limit < 1:
        raise ValidationError("edge_limit must be >= 1")
    ng_unit, scale = rescaled_unit(ng)
    pts = ng_unit.points
    edges = ng_unit.graph.edges
    if edge_limit is not None:
        edges = edges[:edge_limit]

    state = _PlacedState(space, pts, params.beta)
    breakpoints = np.empty((len(edges), space.dim))
    attempts = np.zeros(len(edges), dtype=np.int64)
    for j, (ui, vi) in enumerate(edges):
        z = 0.5 * (pts[ui] + pts[vi])
        tally = dict.fromkeys(CONDITIONS, 0)
        for _ in range(params.retry_cap):
            w = sample_ball_many(space, z, params.mu, 1, rng)
            attempts[j] += 1
            code = check_breakpoints(state, ui, vi, w, params)[0]
            if code:
                tally[CONDITIONS[code - 1]] += 1
                continue
            breakpoints[j] = w[0]
            state.add_edge(ui, vi, w[0])
            break
        else:
            raise PlacementError((ui, vi), int(attempts[j]), tally)
    return PolylineEmbedding(netgraph=ng_unit, params=params,
                             edge_list=tuple(edges), breakpoints=breakpoints,
                             attempts=attempts, scale=scale)


def verify_embedding(emb: PolylineEmbedding) -> dict:
    """Re-run the predicate for every edge against the prefix placed before
    it (the construction order), from a freshly built state.  A failure
    names the first condition the edge fails."""
    pts = emb.netgraph.points
    state = _PlacedState(emb.space, pts, emb.params.beta)
    failures = []
    for j, (ui, vi) in enumerate(emb.edge_list):
        w = emb.breakpoints[j]
        code = check_breakpoints(state, ui, vi, w[None, :], emb.params)[0]
        if code:
            failures.append({"edge": [ui, vi], "failed": [CONDITIONS[code - 1]]})
        state.add_edge(ui, vi, w)
    return {"ok": not failures, "edges_checked": len(emb.edge_list),
            "failures": failures}


# --- derived objects and audits ----------------------------------------------

def mg_positions(emb: PolylineEmbedding, M: int):
    """Positions for the M-fold subdivision: the step-k vertex of edge uv
    sits at arclength fraction k/M along the edge's curve; original
    vertices map to themselves.  Returns (SubdividedGraph, positions)."""
    if M < 1:
        raise ValidationError("M must be >= 1")
    g = emb.netgraph.graph
    if len(emb.edge_list) != g.edge_count:
        raise ValidationError("mg_positions needs a fully placed embedding")
    sub = subdivide(g, M)
    pos = np.empty((sub.n, emb.space.dim))
    pos[:g.n] = emb.netgraph.points
    pos[g.n:] = emb.positions(np.repeat(np.arange(g.edge_count), M - 1),
                              np.tile(np.arange(1, M) / M, g.edge_count))
    return sub, pos


def subdivision_tg_points(sub: SubdividedGraph, tg: ThickenedGraph) -> list[TGPoint]:
    """The thickened-graph point carried by each subdivision vertex."""
    out = []
    for vid in range(sub.n):
        kind = sub.vertex_kind(vid)
        if kind[0] == "orig":
            out.append(tg.vertex_point(kind[1]))
        else:
            _, j, step = kind
            out.append(TGPoint(j, step / sub.M))
    return out


@dataclass(frozen=True)
class TgAudit:
    lip_forward: float
    lip_inverse: float
    distortion: float
    forward_bound: float
    inverse_bound: float
    forward_ok: bool
    inverse_ok: bool
    vertex_pairs: int
    interior_pairs: int
    max_curve_length: float

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("lip_forward", "lip_inverse", "distortion", "forward_bound",
                 "inverse_bound", "forward_ok", "inverse_ok", "vertex_pairs",
                 "interior_pairs", "max_curve_length")}


def audit_tg(emb: PolylineEmbedding, interior_samples: int,
             rng: np.random.Generator) -> TgAudit:
    """Distortion audit of the thickened-graph embedding.

    Evaluates the ratio d_TG / image distance (and its reciprocal) over all
    vertex pairs plus sampled interior point pairs, against the bounds
    lip <= 4 and inverse lip <= 1 + 6/gamma.
    """
    if interior_samples < 0:
        raise ValidationError("interior_samples must be >= 0")
    space = emb.space
    g = emb.netgraph.graph
    tg = ThickenedGraph(g)
    pts = emb.netgraph.points
    lip_f = lip_i = 0.0
    vpairs = 0
    for i in range(g.n):
        d_img = norms(space, pts[i + 1:] - pts[i])
        d_tg = tg.hops[i, i + 1:]
        vpairs += d_img.size
        if d_img.size:
            lip_f = max(lip_f, float(np.max(d_img / d_tg)))
            lip_i = max(lip_i, float(np.max(d_tg / d_img)))
    n_edges = len(emb.edge_list)
    done = 0
    while done < interior_samples:
        k = min(4096, interior_samples - done)
        e_idx = rng.integers(0, n_edges, size=(k, 2))
        t_val = rng.uniform(0.0, 1.0, size=(k, 2))
        d_tg = tg.distances(e_idx[:, 0], t_val[:, 0], e_idx[:, 1], t_val[:, 1])
        keep = d_tg >= 1e-12
        d_tg = d_tg[keep]
        e_idx, t_val = e_idx[keep], t_val[keep]
        d_img = norms(space, emb.positions(e_idx[:, 0], t_val[:, 0])
                      - emb.positions(e_idx[:, 1], t_val[:, 1]))
        if d_tg.size:
            lip_f = max(lip_f, float(np.max(d_img / d_tg)))
            lip_i = (math.inf if np.any(d_img == 0)
                     else max(lip_i, float(np.max(d_tg / d_img))))
        done += k
    inv_bound = 1.0 + 6.0 / emb.params.gamma
    max_len = max(emb.curve_length(j) for j in range(n_edges))
    return TgAudit(
        lip_forward=lip_f, lip_inverse=lip_i, distortion=lip_f * lip_i,
        forward_bound=4.0, inverse_bound=inv_bound,
        forward_ok=lip_f <= 4.0, inverse_ok=lip_i <= inv_bound,
        vertex_pairs=vpairs, interior_pairs=interior_samples,
        max_curve_length=max_len)


# --- Monte Carlo volume estimate ----------------------------------------------

@dataclass(frozen=True)
class FractionEstimate:
    fraction: float
    ci_low: float
    ci_high: float
    half_width: float
    samples: int
    successes: int

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("fraction", "ci_low", "ci_high", "half_width", "samples",
                 "successes")}


def wilson_interval(successes: int, samples: int, z: float = _Z95):
    """Wilson score interval; returns (center, half_width)."""
    if samples < 1:
        raise ValidationError("need at least one sample")
    phat = successes / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = z * math.sqrt(phat * (1 - phat) / samples
                         + z * z / (4 * samples * samples)) / denom
    return center, half


def estimate_suitable_fraction(emb: PolylineEmbedding, edge_index: int,
                               samples: int, rng: np.random.Generator) -> FractionEstimate:
    """Monte Carlo fraction of breakpoints w in B(midpoint, mu) that satisfy
    all three conditions for the given edge against the prefix placed before
    it, with a 95% Wilson interval."""
    if not (0 <= edge_index < len(emb.edge_list)):
        raise ValidationError("edge_index outside the placed edge list")
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    space = emb.space
    pts = emb.netgraph.points
    params = emb.params
    state = _PlacedState(space, pts, params.beta)
    for j in range(edge_index):
        ui, vi = emb.edge_list[j]
        state.add_edge(ui, vi, emb.breakpoints[j])
    ui, vi = emb.edge_list[edge_index]
    ws = sample_ball_many(space, 0.5 * (pts[ui] + pts[vi]), params.mu, samples, rng)
    block = max(1, _MC_PAIRS // (2 * (len(state.segments) + len(state.clipped)
                                      + len(pts))))
    successes = sum(
        int(np.count_nonzero(check_breakpoints(state, ui, vi, ws[k:k + block], params) == 0))
        for k in range(0, samples, block))
    center, half = wilson_interval(successes, samples)
    return FractionEstimate(fraction=successes / samples,
                            ci_low=max(0.0, center - half),
                            ci_high=min(1.0, center + half),
                            half_width=half, samples=samples,
                            successes=successes)


# --- serialization -------------------------------------------------------------

def embedding_to_json(emb: PolylineEmbedding) -> dict:
    return {
        "net_graph": net_graph_to_json(emb.netgraph),
        "params": emb.params.to_json(),
        "scale": emb.scale,
        "edges": [{"u": int(u), "v": int(v),
                   "w": [float(x) for x in emb.breakpoints[j]],
                   "attempts": int(emb.attempts[j])}
                  for j, (u, v) in enumerate(emb.edge_list)],
    }


def embedding_from_json(obj: dict) -> PolylineEmbedding:
    try:
        ng = net_graph_from_json(obj["net_graph"])
        params = params_from_json(obj["params"])
        scale = float(obj["scale"])
        edge_list = tuple((int(e["u"]), int(e["v"])) for e in obj["edges"])
        breakpoints = np.array([[float(x) for x in e["w"]] for e in obj["edges"]])
        attempts = np.array([int(e["attempts"]) for e in obj["edges"]], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed embedding JSON: {exc}") from exc
    dim = ng.space.dim
    params.validate(dim)
    if not edge_list or list(edge_list) != ng.graph.edges[:len(edge_list)]:
        raise ValidationError("embedding JSON: edges must be a non-empty prefix "
                              "of the net graph's edge list")
    if breakpoints.shape != (len(edge_list), dim) or not np.isfinite(breakpoints).all():
        raise ValidationError(f"embedding JSON: each edge needs a finite breakpoint "
                              f"of dimension {dim}")
    if (attempts < 1).any():
        raise ValidationError("embedding JSON: attempts must be >= 1")
    return PolylineEmbedding(netgraph=ng, params=params, edge_list=edge_list,
                             breakpoints=breakpoints, attempts=attempts,
                             scale=scale)
