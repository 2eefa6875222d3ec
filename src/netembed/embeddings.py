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

One predicate, check_breakpoints, decides the three conditions for any
number of candidate breakpoints, each naming its edge, against the curves
of the edges before it in a _PlacedState, and returns the first condition
each fails.  Placement draws each edge's candidates from the edge's own RNG
substream and places a window of edges at a time: one call checks the
window's draws against the curves placed before the window, and a few more
check the window's picks against each other on a state that is cut back at
the first failure, with the result of placing the edges one at a time.
Re-verification places every stored curve at once and checks all
breakpoints in a few blocked calls, each against its own prefix; the Monte
Carlo estimate checks all its samples the same way.  Every comparison is
tolerance inflated (pass needs the constraint plus the tolerance).  A
bounding-box mask, spaces.box_near, drops the pairs that their boxes
certify in any space; each condition sends the pairs left to one call of
spaces.points_clear or spaces.segments_clear, which certify them as the
spaces module describes, so floating error can reject a usable breakpoint
but never accept a bad one.  The box masks and the alpha step's masks over
the placed crossings are the work that grows with the placed prefix.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import PlacementError, ValidationError
from .gadgets import SubdividedGraph, chain_distances, subdivide
from .graphs import FiniteMetric, Graph, audit
from .net_graphs import (NetGraph, net_graph_from_json, net_graph_to_json,
                         rescaled_unit)
from .spaces import (NormedSpace, as_int, ball_cuts, box_near, norms,
                     points_clear, sample_ball_many, segments_clear)

_Z95 = 1.959963984540054
# Candidate-object box tests per block of candidates, roughly: bounds the
# memory of the box masks.
_BOX_TESTS = 1 << 17
# Candidates per draw from an edge's substream (part of what fixes the
# breakpoints a seed gives), and edges placed together (which does not).
_CHUNK = 2
_WINDOW = 32
# Subdivision vertices placed together by mg_positions: bounds its
# temporaries on the M-fold subdivision of a large graph.
_POSITION_ROWS = 1 << 12


# --- parameters -------------------------------------------------------------

@dataclass(frozen=True)
class EmbedParams:
    """Placement constants.  mu is the breakpoint ball radius; alpha, beta,
    gamma control the three avoidance conditions; seed fixes the curves
    (place_edges draws from default_rng([seed, 1]))."""

    alpha: float
    beta: float
    gamma: float
    mu: float = 0.25
    mode: str = "practical"
    retry_cap: int = 10_000
    seed: int = 0
    tolerance: float = 1e-9

    def validate(self, dim: int) -> None:
        if dim < 3:
            raise ValidationError("edge placement needs dimension >= 3")
        constants = (self.alpha, self.beta, self.gamma, self.mu, self.tolerance)
        if not all(isinstance(c, (int, float)) and math.isfinite(c) for c in constants):
            raise ValidationError("alpha, beta, gamma, mu and tolerance must be finite numbers")
        if not (self.mu > 0):
            raise ValidationError("mu must be positive")
        if not (0 < self.gamma and 0 < self.alpha and 0 < self.beta):
            raise ValidationError("alpha, beta, gamma must be positive")
        if not (self.tolerance >= 0):
            raise ValidationError("tolerance must be >= 0")
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


def default_strict_params(seed: int = 0) -> EmbedParams:
    """The strict constants: beta = mu/546, alpha = beta/1232, and gamma the
    smallest of alpha, beta/20 and (beta*mu)^2/968 (free constant taken as
    1; smaller gamma only shrinks the excluded volume)."""
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
            mode=str(obj["mode"]), retry_cap=as_int(obj["retry_cap"], "retry_cap"),
            seed=as_int(obj["seed"], "seed"), tolerance=float(obj["tolerance"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed params JSON: {exc}") from exc


# --- placement state ---------------------------------------------------------

class _PlacedState:
    """The curves placed so far, in construction order, as the arrays
    check_breakpoints reads:

      ends       (E, 2)       the endpoints of every edge, in construction
                              order; curves are placed for a prefix of it
      segments   (2k, 2, dim) both segments [u, w], [w, v] of the first k
                              curves, curve e in rows 2e and 2e + 1
      clipped    (c, 2, dim)  the curves' pieces outside their endpoint
                              balls, with clip_edge (c,) the curve of each
      crossings  (2k, dim)    where curve e crosses the beta spheres of
                              ends[e, 0] (row 2e) and ends[e, 1] (row 2e + 1)

    add_edges appends the next curves in one batched step, and truncate
    drops the curves after a prefix."""

    def __init__(self, space: NormedSpace, points: np.ndarray, ends, beta: float):
        self.space = space
        self.points = points
        self.ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
        self.beta = beta
        self.segments = np.empty((0, 2, space.dim))
        self.clipped = np.empty((0, 2, space.dim))
        self.clip_edge = np.empty(0, dtype=np.int64)
        self.crossings = np.empty((0, space.dim))

    def add_edges(self, ws: np.ndarray) -> None:
        """Place the curves of the next len(ws) edges, w a row of ws."""
        k, n = len(self.segments) // 2, self.space.dim
        ui, vi = self.ends[k:k + len(ws)].T
        u, v = self.points[ui], self.points[vi]
        self.segments = np.concatenate(
            [self.segments, np.stack([u, ws, ws, v], axis=1).reshape(-1, 2, n)])
        pieces, rows = _clip_curves(self.space, u, v, ws, self.beta)
        self.clipped = np.concatenate([self.clipped, pieces])
        self.clip_edge = np.concatenate([self.clip_edge, k + rows])
        self.crossings = np.concatenate(
            [self.crossings, _crossings(self.space, u, v, ws, self.beta)])

    def truncate(self, k: int) -> None:
        """Keep the curves of the first k edges only."""
        self.segments, self.crossings = self.segments[:2 * k], self.crossings[:2 * k]
        keep = self.clip_edge < k
        self.clipped, self.clip_edge = self.clipped[keep], self.clip_edge[keep]


def _crossings(space: NormedSpace, u: np.ndarray, v: np.ndarray, ws: np.ndarray,
               beta: float) -> np.ndarray:
    """(2k, dim): where the curve [u, w], [w, v] of row e crosses the beta
    spheres of u (row 2e) and v (row 2e + 1)."""
    cross = []
    for end, far in ((u, v), (v, u)):
        out = ws - end
        dist = norms(space, out)
        on = dist == 0.0  # w on the endpoint: the curve leaves along [end, far]
        out[on] = far[on] - end[on]
        dist[on] = norms(space, out[on])
        cross.append(end + (beta / dist)[:, None] * out)
    return np.stack(cross, axis=1).reshape(-1, space.dim)


def _clip_curves(space: NormedSpace, u: np.ndarray, v: np.ndarray,
                 ws: np.ndarray, beta: float):
    """Pieces of the curves [u, w], [w, v] outside B(u, beta) and B(v, beta),
    for the matching rows u, w, v of u, ws and v, as a (k, 2, dim) array,
    with the row of each piece.

    The beta condition keeps each curve clear of every other vertex's ball,
    so only the edge's own endpoints can clip it.  A segment leaves its own
    endpoint's ball radially, at [t0, t1]; one ball_cuts call cuts the
    opposite ball [lo, hi] out of every segment.  Each segment yields
    [t0, lo] and [hi, t1] where the cut overlaps [t0, t1], else [t0, t1],
    less the pieces under 1e-12.
    """
    m = len(ws)
    a, b, other = np.concatenate([u, ws]), np.concatenate([ws, v]), np.concatenate([v, u])
    length = norms(space, b - a)
    keep = np.flatnonzero(length >= 1e-12)  # rows [u, w] first, then [w, v]
    a, b, other = a[keep], b[keep], other[keep]
    d = b - a
    frac = beta / length[keep]
    own = keep < m  # [u, w] leaves its own ball B(u, beta) at t = 0
    t0 = np.where(own, np.minimum(1.0, frac), 0.0)
    t1 = np.where(own, 1.0, np.maximum(0.0, 1 - frac))
    c_lo, c_hi, meets = ball_cuts(space, a, b, other, beta)
    hit = meets & (c_hi > t0) & (c_lo < t1)  # the cut overlaps [t0, t1]
    lo, hi = np.where(hit, c_lo, t1), np.where(hit, c_hi, t1)  # else [t0, t1], [t1, t1]
    s0, s1 = np.stack([t0, hi], axis=1).ravel(), np.stack([lo, t1], axis=1).ravel()
    piece = np.flatnonzero(s1 - s0 > 1e-12)
    seg = piece // 2
    pieces = np.stack([a[seg] + s0[piece, None] * d[seg],
                       a[seg] + s1[piece, None] * d[seg]], axis=1)
    return pieces, keep[seg] % m


# --- the predicate -------------------------------------------------------------

ALPHA, BETA, GAMMA = 1, 2, 3
CONDITIONS = ("alpha", "beta", "gamma")  # code k names CONDITIONS[k - 1]


def check_breakpoints(state: _PlacedState, edges, ws: np.ndarray,
                      params: EmbedParams) -> np.ndarray:
    """For each candidate breakpoint w (a row of ws) of the edge it names in
    edges (one index of state.ends for all rows, or one per row), the first
    condition it fails against the curves state holds for the edges before
    that one: 0 when suitable, else ALPHA, BETA or GAMMA, tested in that order.

      alpha  the curve meets each endpoint ball in a single radial segment
             (the far segment stays clear of the ball), and its crossing of
             the sphere sits alpha away from the placed crossings there.
             Only incident curves can cross: every other placed curve passed
             its beta test and stays beta away from this vertex.
      beta   both segments stay beta away from every vertex other than u
             and v.
      gamma  the candidate's pieces outside the beta balls stay gamma away
             from every placed segment, and its segments stay gamma away
             from the placed curves' pieces.

    Each condition runs only on the candidates that passed the earlier
    ones, and a candidate's answer depends on nothing else in the call, so
    a block answers as each candidate would alone.  The candidates are
    taken in blocks of about _BOX_TESTS box tests (see _check_block).
    """
    edges = np.broadcast_to(edges, len(ws))
    objects = len(state.segments) + len(state.clipped) + len(state.points)
    step = max(1, _BOX_TESTS // (2 * objects))
    code = np.zeros(len(ws), dtype=np.int8)
    for k in range(0, len(ws), step):
        code[k:k + step] = _check_block(state, edges[k:k + step], ws[k:k + step], params)
    return code


def _check_block(state: _PlacedState, edges: np.ndarray, ws: np.ndarray,
                 params: EmbedParams) -> np.ndarray:
    """check_breakpoints on one block.  The gamma step clips the curves of
    the candidates that reach it, and only when some curve is placed.

    A pair of the candidate's curve with a placed segment, a placed piece
    or another vertex reaches points_clear or segments_clear only if
    spaces.box_near keeps it at the condition's need.  The work that grows
    with the placed prefix is the box masks and the alpha step's `before`
    and `at ==` masks, (live, 2k) over every placed crossing."""
    space, pts, ends = state.space, state.points, state.ends
    beta, tol = params.beta, params.tolerance
    ui, vi = ends[edges, 0], ends[edges, 1]
    u, v = pts[ui], pts[vi]
    m, n = ws.shape
    segs = np.stack([u, ws, ws, v], axis=1).reshape(m, 2, 2, n)  # [u, w], [w, v]
    code = np.zeros(m, dtype=np.int8)

    du, dv = norms(space, ws - u), norms(space, ws - v)
    code[(du <= beta + tol) | (dv <= beta + tol)] = ALPHA
    live = np.flatnonzero(code == 0)
    if len(state.crossings) and live.size:
        at = ends[:len(state.crossings) // 2].ravel()  # the vertex of each crossing
        before = np.arange(len(state.crossings)) // 2 < edges[live, None]
        for vertex, end, dist in ((ui, u, du), (vi, v, dv)):
            i, c = np.nonzero((at == vertex[live, None]) & before)
            x = end[live] + (beta / dist[live])[:, None] * (ws[live] - end[live])
            code[live[i[norms(space, state.crossings[c] - x[i]) < params.alpha + tol]]] = ALPHA
    live = np.flatnonzero(code == 0)
    if live.size:
        own = segs[live, ::-1].reshape(-1, 2, n)  # u with [w, v], v with [u, w]
        k = np.arange(2 * live.size)
        code[live[~points_clear(space, pts, own, ends[edges[live]].ravel(), k, k // 2,
                                live.size, beta + tol)]] = ALPHA

    live = np.flatnonzero(code == 0)
    if live.size:
        cand = segs[live].reshape(-1, 2, n)
        near = box_near(space, cand, pts, beta + tol)
        k = np.arange(len(cand))
        near[k, np.repeat(ui[live], 2)] = near[k, np.repeat(vi[live], 2)] = False
        r, y = np.divmod(np.flatnonzero(near), len(pts))  # 2-d np.nonzero is slower
        code[live[~points_clear(space, pts, cand, y, r, r // 2, live.size,
                                beta + tol)]] = BETA

    placed, clipped = state.segments, state.clipped
    live = np.flatnonzero(code == 0)
    if not (live.size and len(placed)):
        return code
    pieces, rows = _clip_curves(space, u[live], v[live], ws[live], beta)
    need = params.gamma + tol
    cand = segs[live].reshape(-1, 2, n)
    edge = edges[live]
    # the pieces against the placed segments, the segments against the placed
    # pieces, of the curves before the candidate's
    i, j = np.divmod(np.flatnonzero(box_near(space, pieces, placed, need)), len(placed))
    ci, cj = np.divmod(np.flatnonzero(box_near(space, cand, clipped, need)), len(clipped))
    keep, kept = j // 2 < edge[rows[i]], state.clip_edge[cj] < edge[ci // 2]
    i, j, ci, cj = i[keep], j[keep], ci[kept], cj[kept]
    owner = np.concatenate([rows[i], ci // 2])
    i, j = np.concatenate([i, len(pieces) + ci]), np.concatenate([j, len(placed) + cj])
    p, q = np.concatenate([pieces, cand]), np.concatenate([placed, clipped])
    code[live[~segments_clear(space, p, q, i, j, owner, live.size, need)]] = GAMMA
    return code


# --- the embedding -----------------------------------------------------------

def _edge_indices(edges, count: int) -> np.ndarray:
    """edges as an array, rejecting any index outside [0, count)."""
    edges = np.asarray(edges)
    if np.any((edges < 0) | (edges >= count)):
        raise ValidationError(f"edge index out of range for {count} edges")
    return edges


def tg_distances(g: Graph, e1, t1, e2, t2) -> np.ndarray:
    """Thickened-graph distances, on the union of g's edges as unit
    segments, between the points (e1[k], t1[k]) and (e2[k], t2[k]): the
    chain stage at M = 1 to the ends of the second point's edge (g.hops),
    then to that point, a shared edge's direct route as the own-chain term."""
    e1, e2 = _edge_indices(e1, g.edge_count), _edge_indices(e2, g.edge_count)
    t1, t2 = np.asarray(t1, dtype=np.float64), np.asarray(t2, dtype=np.float64)
    if not (np.all((0.0 <= t1) & (t1 <= 1.0)) and np.all((0.0 <= t2) & (t2 <= 1.0))):
        raise ValidationError("TG parameter must lie in [0, 1]")
    p, q = g.ends[e1], g.ends[e2]
    to_q = chain_distances(g.hops[p[:, :1], q], g.hops[p[:, 1:], q], t1[:, None], 1)
    return chain_distances(to_q[:, 0], to_q[:, 1], t2, 1, e1 == e2, t1)


@dataclass
class PolylineEmbedding:
    """Per-edge two-segment curves realizing the thickened graph in space.

    Coordinates are at the unit scale (the input net graph rescaled by
    1/rho, recorded in `scale`); edge j runs [u, w_j] then [w_j, v] for the
    j-th edge (u, v) = ends[j] of the graph in lexicographic order.
    """

    netgraph: NetGraph
    params: EmbedParams
    breakpoints: np.ndarray
    attempts: np.ndarray
    scale: float

    @property
    def space(self) -> NormedSpace:
        return self.netgraph.space

    @property
    def ends(self) -> np.ndarray:
        """The placed edges: a prefix of the graph's edges, one per breakpoint."""
        return self.netgraph.graph.ends[:len(self.breakpoints)]

    def positions(self, edges, ts) -> np.ndarray:
        """The point at arclength fraction ts[k], in [0, 1], along the curve
        of edge edges[k], for every k: at arclength s = t*(l1 + l2) the
        point lies on [u, w] while s <= l1, else on [w, v]."""
        edges = _edge_indices(edges, len(self.breakpoints))
        t = np.asarray(ts, dtype=np.float64)
        pts, ws, ends = self.netgraph.points, self.breakpoints, self.ends
        us, vs = pts[ends[:, 0]], pts[ends[:, 1]]
        l1, l2 = norms(self.space, ws - us)[edges], norms(self.space, vs - ws)[edges]
        s = t * (l1 + l2)
        at_u = t <= 0.0
        at_v = ~at_u & (t >= 1.0)
        first = ~at_u & ~at_v & (s <= l1)
        second = ~(at_u | at_v | first)
        out = np.empty((len(t), self.space.dim))
        out[at_u], out[at_v] = us[edges[at_u]], vs[edges[at_v]]
        u, w = us[edges[first]], ws[edges[first]]
        out[first] = u + (s[first] / l1[first])[:, None] * (w - u)
        w, v = ws[edges[second]], vs[edges[second]]
        out[second] = w + ((s[second] - l1[second]) / l2[second])[:, None] * (v - w)
        return out


def place_edges(ng: NetGraph, params: EmbedParams,
                edge_limit: Optional[int] = None) -> PolylineEmbedding:
    """Place curves in lexicographic edge order, in the net graph's space.

    The net graph is first rescaled to the unit normal form (separation 1,
    edge threshold 3) so the constants in params mean what they should.
    Edge j draws candidate breakpoints, uniform in the ball of radius mu
    around its midpoint, in chunks of _CHUNK from its own substream
    default_rng([params.seed, 1]).spawn(len(edges))[j], and takes the first
    one that check_breakpoints accepts against the curves of the edges
    before it; its attempts count the candidates up to that one.  So the
    net graph, params and edge_limit fix the curves.  No edge's candidates
    depend on another edge, so the edges are placed _WINDOW at a time
    (_place_window) with the result of placing them one at a time.
    """
    space = ng.space
    params.validate(space.dim)
    if edge_limit is not None and edge_limit < 1:
        raise ValidationError("edge_limit must be >= 1")
    ng_unit, scale = rescaled_unit(ng)
    pts = ng_unit.points
    edges = ng_unit.graph.ends
    if not len(edges):
        raise ValidationError("place_edges: the net graph has no edges to place")
    if edge_limit is not None:
        edges = edges[:edge_limit]

    state = _PlacedState(space, pts, edges, params.beta)
    subs = np.random.default_rng([params.seed, 1]).spawn(len(edges))
    breakpoints = np.empty((len(edges), space.dim))
    attempts = np.zeros(len(edges), dtype=np.int64)
    for a in range(0, len(edges), _WINDOW):
        b = min(a + _WINDOW, len(edges))
        breakpoints[a:b], attempts[a:b] = _place_window(state, a, b, subs[a:b], params)
        state.add_edges(breakpoints[a:b])
    return PolylineEmbedding(netgraph=ng_unit, params=params, breakpoints=breakpoints,
                             attempts=attempts, scale=scale)


def _place_window(state: _PlacedState, a: int, b: int, subs, params: EmbedParams):
    """Breakpoints of edges a..b-1, given a state that holds the curves of
    the edges before a, as (ws, attempts).

    Edge a + i draws from subs[i], each draw twice the chunks of the one
    before, and the candidates that pass against the state queue up.  Each
    round then checks, in one call, the head of every undecided edge's
    queue against the heads of the window edges before it, held in a
    _PlacedState of the window that the round cuts back to the final picks:
    the edges up to the first failure are final, and that edge drops its
    head.  Every edge so takes the first candidate of its substream that
    passes against all curves before it.  An edge whose
    first retry_cap candidates all fail raises PlacementError once the
    window edges before it are final, with the codes of those candidates
    against all curves before it.
    """
    space, pts, cap = state.space, state.points, params.retry_cap
    ends = state.ends[a:b]
    mids = 0.5 * (pts[ends[:, 0]] + pts[ends[:, 1]])
    cands = [np.empty((0, space.dim))] * (b - a)
    queue = [[] for _ in range(b - a)]  # indices of the candidates that pass against state
    draw = [1] * (b - a)  # chunks in the next draw
    window = _PlacedState(space, pts, ends, params.beta)
    lo, hi = 0, b - a  # edges lo..hi-1 are undecided, edge hi is out of candidates
    while lo < hi:
        dry = [i for i in range(lo, hi) if not queue[i]]
        spent = [i for i in dry if len(cands[i]) == cap]
        if spent:
            hi = spent[0]
        elif dry:
            new = []
            for i in dry:
                chunks = min(draw[i], -(-(cap - len(cands[i])) // _CHUNK))
                new.append(np.concatenate([
                    sample_ball_many(space, mids[i], params.mu, _CHUNK, subs[i])
                    for _ in range(chunks)])[:cap - len(cands[i])])
                draw[i] *= 2
            codes = check_breakpoints(
                state, a + np.repeat(dry, [len(w) for w in new]), np.concatenate(new), params)
            k = 0
            for i, w in zip(dry, new):
                queue[i] += list(len(cands[i]) + np.flatnonzero(codes[k:k + len(w)] == 0))
                cands[i] = np.concatenate([cands[i], w])
                k += len(w)
        else:
            ws = np.stack([cands[i][queue[i][0]] for i in range(lo, hi)])
            window.truncate(lo)
            window.add_edges(ws)
            bad = np.flatnonzero(check_breakpoints(window, np.arange(lo, hi), ws, params))
            lo = lo + bad[0] if bad.size else hi
            if bad.size:
                queue[lo].pop(0)

    ws = np.array([cands[i][queue[i][0]] for i in range(hi)]).reshape(hi, space.dim)
    if hi < b - a:
        state.add_edges(ws)
        codes = check_breakpoints(state, a + hi, cands[hi], params)
        raise PlacementError(tuple(int(x) for x in ends[hi]), cap,
                             {name: int(np.count_nonzero(codes == k + 1))
                              for k, name in enumerate(CONDITIONS)})
    return ws, [queue[i][0] + 1 for i in range(hi)]


def verify_embedding(emb: PolylineEmbedding) -> dict:
    """Re-run the predicate for every edge against the prefix placed before
    it (the construction order): one state holds every curve, and each
    stored breakpoint is checked in blocks against the curves of the edges
    before its own.  A failure names the first condition the edge fails."""
    state = _PlacedState(emb.space, emb.netgraph.points, emb.ends, emb.params.beta)
    state.add_edges(emb.breakpoints)
    codes = check_breakpoints(state, np.arange(len(emb.ends)),
                              emb.breakpoints, emb.params)
    failures = [{"edge": emb.ends[j].tolist(), "failed": [CONDITIONS[codes[j] - 1]]}
                for j in np.flatnonzero(codes)]
    return {"ok": not failures, "edges_checked": len(emb.ends),
            "failures": failures}


# --- derived objects and audits ----------------------------------------------

def mg_positions(emb: PolylineEmbedding, M: int):
    """(SubdividedGraph, positions) for the M-fold subdivision: each vertex at
    its point of subdivision_tg_points along the curves, _POSITION_ROWS
    vertices at a time, so original vertices map to themselves."""
    sub = subdivide(emb.netgraph.graph, M)  # rejects M < 1 first
    if len(emb.ends) != sub.base.edge_count:
        raise ValidationError("mg_positions needs a fully placed embedding")
    out = np.empty((sub.n, emb.space.dim))
    for start in range(0, sub.n, _POSITION_ROWS):
        ids = np.arange(start, min(start + _POSITION_ROWS, sub.n))
        out[start:start + len(ids)] = emb.positions(*subdivision_tg_points(sub, ids))
    return sub, out


def subdivision_tg_points(sub: SubdividedGraph, ids: np.ndarray) -> tuple:
    """(edges, ts): the thickened-graph point (edges[k], ts[k]) of each
    subdivision vertex ids[k], its address with the step divided by M: base
    vertex u at its end (t = 0 or 1) of the first edge it ends, step k of
    chain j at (j, k/M)."""
    j, t = sub.address(ids)
    return j, t / sub.M


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


def audit_tg(emb: PolylineEmbedding, interior_samples: int,
             rng: np.random.Generator) -> TgAudit:
    """Distortion audit of the thickened-graph embedding.

    Evaluates the ratio d_TG / image distance (and its reciprocal) over all
    vertex pairs plus sampled interior point pairs, against the bounds
    lip <= max(4, 3 + 2*mu) and inverse lip <= 1 + 6/gamma.  Curves are
    parametrized by norm arclength, and each is at most |w - u| + |v - w|
    <= 3 + 2*mu long (edges at most 3, breakpoints within mu of the
    midpoint), so a unit of d_TG covers at most that much image length.
    """
    if interior_samples < 0:
        raise ValidationError("interior_samples must be >= 0")
    space = emb.space
    g = emb.netgraph.graph
    pts = emb.netgraph.points
    vertices = audit(FiniteMetric.from_graph(g), FiniteMetric.from_points(space, pts),
                     pair_cap=g.n)
    lip_f, lip_i = vertices.lip_forward, vertices.lip_inverse
    n_edges = len(emb.ends)
    done = 0
    while done < interior_samples:
        k = min(4096, interior_samples - done)
        e_idx = rng.integers(0, n_edges, size=(k, 2))
        t_val = rng.uniform(0.0, 1.0, size=(k, 2))
        d_tg = tg_distances(g, e_idx[:, 0], t_val[:, 0], e_idx[:, 1], t_val[:, 1])
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
    fwd_bound = max(4.0, 3.0 + 2.0 * emb.params.mu)
    inv_bound = 1.0 + 6.0 / emb.params.gamma
    # the length of every curve, in two norms calls
    ends, ws = emb.ends, emb.breakpoints
    max_len = float(np.max(norms(space, ws - pts[ends[:, 0]])
                           + norms(space, pts[ends[:, 1]] - ws)))
    return TgAudit(
        lip_forward=lip_f, lip_inverse=lip_i, distortion=lip_f * lip_i,
        forward_bound=fwd_bound, inverse_bound=inv_bound,
        forward_ok=lip_f <= fwd_bound, inverse_ok=lip_i <= inv_bound,
        vertex_pairs=vertices.pairs_checked, interior_pairs=interior_samples,
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


def wilson_interval(successes: int, samples: int):
    """Wilson score interval; returns (center, half_width)."""
    if samples < 1:
        raise ValidationError("need at least one sample")
    phat = successes / samples
    denom = 1.0 + _Z95 * _Z95 / samples
    center = (phat + _Z95 * _Z95 / (2 * samples)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / samples
                            + _Z95 * _Z95 / (4 * samples * samples)) / denom
    return center, half


def estimate_suitable_fraction(emb: PolylineEmbedding, edge_index: int,
                               samples: int, rng: np.random.Generator) -> FractionEstimate:
    """Monte Carlo fraction of breakpoints w in B(midpoint, mu) that satisfy
    all three conditions for the given edge against the prefix placed before
    it, with a 95% Wilson interval."""
    if not (0 <= edge_index < len(emb.ends)):
        raise ValidationError("edge_index outside the placed edge list")
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    space = emb.space
    pts = emb.netgraph.points
    params = emb.params
    state = _PlacedState(space, pts, emb.ends, params.beta)
    state.add_edges(emb.breakpoints[:edge_index])
    ui, vi = emb.ends[edge_index]
    ws = sample_ball_many(space, 0.5 * (pts[ui] + pts[vi]), params.mu, samples, rng)
    successes = int(np.count_nonzero(check_breakpoints(state, edge_index, ws, params) == 0))
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
        "params": asdict(emb.params),
        "scale": emb.scale,
        "edges": [{"u": int(u), "v": int(v),
                   "w": [float(x) for x in emb.breakpoints[j]],
                   "attempts": int(emb.attempts[j])}
                  for j, (u, v) in enumerate(emb.ends.tolist())],
    }


def embedding_from_json(obj: dict) -> PolylineEmbedding:
    try:
        ng = net_graph_from_json(obj["net_graph"])
        params = params_from_json(obj["params"])
        scale = float(obj["scale"])
        ends = np.array([[as_int(e[k], k) for k in "uv"] for e in obj["edges"]], dtype=np.int64)
        breakpoints = np.array([[float(x) for x in e["w"]] for e in obj["edges"]])
        attempts = np.array([as_int(e["attempts"], "attempts") for e in obj["edges"]],
                            dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed embedding JSON: {exc}") from exc
    dim = ng.space.dim
    params.validate(dim)
    if not len(ends) or not np.array_equal(ends, ng.graph.ends[:len(ends)]):
        raise ValidationError("embedding JSON: edges must be a non-empty prefix "
                              "of the net graph's edge list")
    if breakpoints.shape != (len(ends), dim) or not np.isfinite(breakpoints).all():
        raise ValidationError(f"embedding JSON: each edge needs a finite breakpoint "
                              f"of dimension {dim}")
    if (attempts < 1).any():
        raise ValidationError("embedding JSON: attempts must be >= 1")
    return PolylineEmbedding(netgraph=ng, params=params, breakpoints=breakpoints,
                             attempts=attempts, scale=scale)
