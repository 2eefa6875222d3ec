"""Unweighted simple graphs, exact shortest-path metrics, and the
bilipschitz-distortion auditor.

Hop distances are exact integers (BFS); distortion ratios are formed in
double precision.  The auditor is exhaustive over all vertex pairs up to a
configurable cap and switches to seeded source sampling above it, reporting
how many pairs it covered.  It reads every distance through
FiniteMetric.at.  Metrics that share a block partition of their ids with
certified per-block bounds (the chain blocks of the gadget hop metrics and
the bounding boxes of point metrics) let it evaluate only the pairs the
bounds do not certify below the running maxima; pairs_checked counts every
pair covered, evaluated or certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .spaces import NormedSpace, as_int, norms


@dataclass(eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted adjacency."""

    n: int
    adj: tuple
    coords: Optional[np.ndarray] = None

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, u: int) -> int:
        return len(self.adj[u])


def from_edges(n: int, edges, coords=None) -> Graph:
    """Build a Graph, rejecting loops and duplicate edges."""
    if n < 1:
        raise ValidationError("graph needs at least one vertex")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValidationError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
        if v in adj[u]:
            raise ValidationError(f"duplicate edge ({u},{v})")
        adj[u].add(v)
        adj[v].add(u)
    if coords is not None:
        try:
            coords = np.asarray(coords, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"coords must be rows of numbers: {exc}") from exc
        if coords.ndim != 2 or coords.shape[0] != n:
            raise ValidationError("coords must have one row per vertex")
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), coords=coords)


def bfs_from(g: Graph, source: int) -> np.ndarray:
    """Hop distances from source; -1 marks unreachable vertices."""
    adj = g.adj
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    return np.array(dist, dtype=np.int32)


def bfs_apsp(g: Graph) -> np.ndarray:
    """All-pairs hop distances; raises on disconnected input."""
    table = np.empty((g.n, g.n), dtype=np.int32)
    for s in range(g.n):
        row = bfs_from(g, s)
        if np.any(row < 0):
            raise ValidationError("graph is disconnected")
        table[s] = row
    return table


def is_connected(g: Graph) -> bool:
    return bool(np.all(bfs_from(g, 0) >= 0))


def max_degree(g: Graph) -> int:
    return max(len(a) for a in g.adj)


# Relative slack on the block bounds of point metrics: it covers the rounding
# of the norm evaluations and of the products audit compares them with.
_BOUND_SLACK = 1e-9


class FiniteMetric:
    """A finite metric evaluated on request: at(i, idx) gives the distances
    from id i to the ids idx, and row(i) is at(i, all ids).

    Nothing is kept: the audits read each source once, so keeping rows of a
    large graph would only cost memory.

    A metric may carry a block partition of its ids: blocks holds the
    sorted first ids of the blocks (blocks[0] == 0), and bounds(i) returns
    (lo, hi), one pair per block, containing every value at(i, .) returns
    in that block.  audit uses them to skip pairs that cannot reach its
    running maxima.
    """

    def __init__(self, size: int, at_fn, blocks=None, bounds_fn=None):
        self.size = size
        self._at_fn = at_fn
        self.blocks = blocks
        self._bounds_fn = bounds_fn

    def at(self, i: int, idx: np.ndarray) -> np.ndarray:
        return self._at_fn(i, idx)

    def row(self, i: int) -> np.ndarray:
        return self.at(i, np.arange(self.size))

    def bounds(self, i: int) -> tuple:
        return self._bounds_fn(i)

    @staticmethod
    def from_graph(g: Graph) -> "FiniteMetric":
        def at(i, idx):
            r = bfs_from(g, i)
            if np.any(r < 0):
                raise ValidationError("graph metric requires a connected graph")
            return r[idx].astype(np.float64)
        return FiniteMetric(g.n, at)

    @staticmethod
    def from_points(space: NormedSpace, pts, blocks=None) -> "FiniteMetric":
        """Distances norms(space, pts[idx] - pts[i]).

        blocks (sorted first ids, from 0) gives the metric a block
        partition, bounded through each block's bounding box.  Rounding is
        monotone, so the box corners' offsets from pts[i] bound the
        computed differences coordinate by coordinate.  With g their
        sup-norm gap and f their farthest sup-norm offset, every value in
        the block lies in [g / box_factor, linf_factor * f], the
        certificate spaces.box_near rests on; both ends carry
        _BOUND_SLACK.  Custom norms get no blocks: a norm_fn may return
        NaN, which no bound contains.
        """
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        n = pts.shape[0]

        def at(i, idx):
            diff = pts[idx]
            diff -= pts[i]
            return norms(space, diff)

        if blocks is None or space.kind == "custom":
            return FiniteMetric(n, at)
        blocks = np.asarray(blocks, dtype=np.int64)
        # corners as (dim, blocks) rows, so the reductions run along blocks
        box_lo = np.ascontiguousarray(np.minimum.reduceat(pts, blocks, axis=0).T)
        box_hi = np.ascontiguousarray(np.maximum.reduceat(pts, blocks, axis=0).T)
        lo_scale = (1.0 - _BOUND_SLACK) / space.box_factor
        hi_scale = (1.0 + _BOUND_SLACK) * space.linf_factor

        def bounds(i):
            p = pts[i][:, None]
            with np.errstate(invalid="ignore"):  # inf - inf on infinite points
                below, above = box_lo - p, box_hi - p
                gap = np.maximum(below, -above).max(axis=0)
                far = np.maximum(above, -below).max(axis=0)
                np.maximum(gap, 0.0, out=gap)  # NaN propagates
            return gap * lo_scale, far * hi_scale
        return FiniteMetric(n, at, blocks, bounds)


@dataclass(frozen=True)
class DistortionReport:
    lip_forward: float
    lip_inverse: float
    distortion: float
    witness_forward: tuple[int, int]
    witness_inverse: tuple[int, int]
    pairs_checked: int
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "lip_forward": self.lip_forward,
            "lip_inverse": self.lip_inverse,
            "distortion": self.distortion,
            "witness_forward": list(self.witness_forward),
            "witness_inverse": list(self.witness_inverse),
            "pairs_checked": self.pairs_checked,
            "exhaustive": self.exhaustive,
        }


def _kept_ids(starts: np.ndarray, ends: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The ids of the kept blocks [starts[k], ends[k]), in increasing order."""
    starts, lengths = starts[keep], (ends - starts)[keep]
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(offsets.size) + offsets


def audit(source: FiniteMetric, target: FiniteMetric, pair_cap: int = 2000,
          rng: Optional[np.random.Generator] = None) -> DistortionReport:
    """Bilipschitz constants of the identity map from source to target.

    lip_forward is the largest d_target/d_source ratio, lip_inverse the
    largest reciprocal; distortion is their product (scale invariant).
    Exhaustive over all pairs (i, j > i) when source.size <= pair_cap,
    otherwise all pairs (i, j != i) from a seeded sample of sources i.

    Each source reads the ids of its blocks through at(), in increasing
    order, so the first-index maxima, the witnesses and a zero-distance
    error name the first such pair.  When both metrics carry the same
    block partition, a source skips the blocks whose bounds certify that
    no pair in them reaches the running maxima: t_hi < lip_f * s_lo and
    s_hi < lip_i * t_lo, both True (a NaN bound keeps its block).  Other
    metrics form one block [0, n).  pairs_checked counts every pair
    covered, evaluated or certified.
    """
    n = source.size
    if n < 2:
        raise ValidationError("audit needs at least two points")
    if pair_cap < 1:
        raise ValidationError("pair_cap must be >= 1")

    exhaustive = n <= pair_cap
    if exhaustive:
        sources = range(n - 1)  # the last source has no later partner
    else:
        rng = rng or np.random.default_rng(0)
        want = max(2, min(n, (pair_cap * pair_cap) // n))
        sources = sorted(rng.choice(n, size=want, replace=False).tolist())
    blocked = (source.blocks is not None and target.blocks is not None
               and np.array_equal(source.blocks, target.blocks))
    starts = source.blocks if blocked else np.zeros(1, dtype=np.int64)
    ends = np.append(starts[1:], n)

    lip_f, lip_i = 0.0, 0.0
    wit_f = wit_i = (0, 1)
    pairs = 0
    for i in sources:
        pairs += n - 1 - i if exhaustive else n - 1
        keep = ends > (i + 1 if exhaustive else 0)
        if blocked:
            s_lo, s_hi = source.bounds(i)
            t_lo, t_hi = target.bounds(i)
            with np.errstate(invalid="ignore"):  # inf * 0
                keep &= ~((t_hi < lip_f * s_lo) & (s_hi < lip_i * t_lo))
        ids = _kept_ids(starts, ends, keep)
        ids = ids[ids > i] if exhaustive else ids[ids != i]
        if ids.size == 0:
            continue
        ds, dt = source.at(i, ids), target.at(i, ids)
        zero = ds == 0
        if zero.any():
            raise ValidationError("zero source distance between distinct points "
                                  f"{i},{int(ids[int(np.argmax(zero))])}")
        with np.errstate(divide="ignore", invalid="ignore"):
            fwd = dt / ds
            inv = np.where(dt > 0, ds / dt, np.inf)
        k = int(np.argmax(fwd))
        if fwd[k] > lip_f:
            lip_f, wit_f = float(fwd[k]), (i, int(ids[k]))
        k = int(np.argmax(inv))
        if inv[k] > lip_i:
            lip_i, wit_i = float(inv[k]), (i, int(ids[k]))
    return DistortionReport(lip_f, lip_i, lip_f * lip_i, wit_f, wit_i,
                            pairs, exhaustive)


def audit_pair_rows(source: FiniteMetric, target: FiniteMetric, vertex_map):
    """Yield (u, v, d_source, d_target, ratio) over all pairs, for CSV export."""
    fmap = np.asarray(vertex_map, dtype=np.int64)
    for i in range(source.size):
        ds = source.row(i)
        dt = target.at(int(fmap[i]), fmap)
        for j in range(i + 1, source.size):
            ratio = float(dt[j] / ds[j]) if ds[j] > 0 else float("inf")
            yield i, j, float(ds[j]), float(dt[j]), ratio


def write_audit_csv(path, source: FiniteMetric, target: FiniteMetric, vertex_map):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pair_u,pair_v,d_source,d_target,ratio\n")
        for u, v, ds, dt, ratio in audit_pair_rows(source, target, vertex_map):
            fh.write(f"{u},{v},{ds!r},{dt!r},{ratio!r}\n")


# --- serialization ---------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    obj = {"n": g.n, "edges": [[u, v] for u, v in g.edges]}
    if g.coords is not None:
        obj["coords"] = [[float(x) for x in row] for row in g.coords]
    return obj


def graph_from_json(obj: dict) -> Graph:
    try:
        n = as_int(obj["n"], "n")
        edges = [(as_int(u, "edge end"), as_int(v, "edge end")) for u, v in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from exc
    coords = obj.get("coords")
    return from_edges(n, edges, coords=coords)


def graph_to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for u in range(g.n):
        if g.coords is not None and g.coords.shape[1] == 2:
            x, y = g.coords[u]
            lines.append(f'  {u} [pos="{x},{y}!"];')
        else:
            lines.append(f"  {u};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
