"""Unweighted simple graphs, exact shortest-path metrics, and the
bilipschitz-distortion auditor.

Hop distances are exact integers (BFS); distortion ratios are formed in
double precision.  The auditor reads every distance through
FiniteMetric.at, over all pairs up to a configurable cap and from seeded
sampled sources above it.  Metrics sharing a block partition with
certified per-block bounds (the gadget hop metrics' chain blocks, the
point metrics' box norms) let it evaluate only the pairs the bounds leave
open below the running maxima, which a seeded first row raises early;
pairs_checked counts every pair covered, evaluated or certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Optional

import numpy as np

from .errors import ValidationError
from .spaces import NormedSpace, as_int, norms


# Entries n^2 an all-pairs hop table may have (int32, so 256 MiB; n <= 8192):
# the net graph of l2^3 at r=5, delta 1 has 218 vertices.  Checked before
# the table is built.
_HOPS_CAP = 1 << 26
# Entries of a level's temporaries in _bfs_rows.
_HOP_ENTRIES = 1 << 20
# Vertices a graph may have: from_edges keys an edge as u*n + v in int64.
_MAX_N = math.isqrt(np.iinfo(np.int64).max)


@dataclass(eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1: ends is the (E, 2) int64
    array of its edges (u, v), u < v, in lexicographic order."""

    n: int
    ends: np.ndarray

    @cached_property
    def csr(self) -> tuple:
        """(nbrs, starts), built on first use: v's neighbours, sorted (the
        stable sort puts the smaller first), are nbrs[starts[v]:starts[v+1]]."""
        src = np.concatenate([self.ends[:, 1], self.ends[:, 0]])
        nbrs = np.concatenate(self.ends.T)[np.argsort(src, kind="stable")]
        return nbrs, np.cumsum(np.bincount(src + 1, minlength=self.n + 1))

    @cached_property
    def adj(self) -> tuple:
        """The csr lists as sorted neighbour tuples, built on first use."""
        nbrs, starts = (x.tolist() for x in self.csr)
        return tuple(tuple(nbrs[a:b]) for a, b in zip(starts, starts[1:]))

    @cached_property
    def hops(self) -> np.ndarray:
        """The (n, n) int32 all-pairs hop table, the rows of every source in
        one _bfs_rows call, built on first use and read-only; raises over
        _HOPS_CAP entries, before any allocation, and on disconnected input."""
        if self.n ** 2 > _HOPS_CAP:
            raise ValidationError(f"hop table would have {self.n}^2 entries, "
                                  f"over the cap {_HOPS_CAP}")
        table = _bfs_rows(self, np.arange(self.n))
        if (table < 0).any():
            raise ValidationError("graph is disconnected")
        table.setflags(write=False)
        return table

    @property
    def edge_count(self) -> int:
        return len(self.ends)


def from_edges(n: int, edges) -> Graph:
    """Build a Graph, rejecting loops, ends out of range and duplicate edges
    (in either orientation), naming the first bad edge in input order."""
    if n < 1:
        raise ValidationError("graph needs at least one vertex")
    if n > _MAX_N:
        raise ValidationError(f"graph has {n} vertices, over the cap {_MAX_N}; its edge "
                              f"keys u*n + v would overflow int64")
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
    if not bad.any():
        keys = np.minimum(*pairs.T)
        keys *= n
        keys += np.maximum(*pairs.T)
        keys.sort(kind="stable")  # in place; timsort, as listings come in sorted runs
        if not (keys[1:] == keys[:-1]).any():  # sorted, duplicates sit side by side
            ends = np.empty((len(keys), 2), dtype=np.int64)
            np.divmod(keys, n, out=(ends[:, 0], ends[:, 1]))
            return Graph(n, ends)
    # the first bad edge in input order: a repeat of an earlier edge, else edge k
    k = int(np.argmax(bad)) if bad.any() else len(pairs)
    _, first = np.unique(np.sort(pairs[:k], axis=1), axis=0, return_index=True)
    repeats = np.setdiff1d(np.arange(k), first)
    u, v = pairs[repeats[0] if repeats.size else k].tolist()
    if repeats.size:
        raise ValidationError(f"duplicate edge ({u},{v})")
    if u == v:
        raise ValidationError(f"loop at vertex {u}")
    raise ValidationError(f"edge ({u},{v}) out of range for n={n}")


def _bfs_rows(g: Graph, sources) -> np.ndarray:
    """(len(sources), n) int32 hop distances from each source, -1 where
    unreachable, one breadth-first pass per block of _HOP_ENTRIES // 2E
    sources.  The frontier lists (row, vertex) pairs as keys row * n +
    vertex, at most 2E a row; a level gathers their neighbour lists and
    keeps the unvisited pairs once, and a full row drops out."""
    (nbrs, starts), n = g.csr, g.n
    deg, rows = starts[1:] - starts[:-1], np.full((len(sources), n), -1, dtype=np.int32)
    step = max(1, _HOP_ENTRIES // max(1, len(nbrs)))
    for lo in range(0, len(sources), step):
        flat = rows[lo:lo + step].reshape(-1)  # a view: the block's rows are contiguous
        key = np.arange(len(flat) // n) * n + sources[lo:lo + step]
        flat[key], left, level = 0, np.full(len(key), n - 1), 0
        while key.size:
            level += 1
            row, vertex = np.divmod(key, n)
            cnt = deg[vertex]
            key = (np.repeat(row * n, cnt)
                   + nbrs[np.repeat(starts[vertex + 1] - np.cumsum(cnt), cnt) + np.arange(cnt.sum())])
            key = key[flat[key] < 0]
            flat[key] = mark = -2 - np.arange(len(key), dtype=np.int32)
            key = key[flat[key] == mark]  # of a repeated key, the copy whose mark landed
            flat[key], row = level, key // n
            left -= np.bincount(row, minlength=len(left))
            key = key[left[row] > 0]
    return rows


def bfs_from(g: Graph, source: int) -> np.ndarray:
    """Hop distances from source; -1 marks unreachable vertices."""
    return _bfs_rows(g, np.array([source]))[0]


def is_connected(g: Graph) -> bool:
    """Fewer than n - 1 edges cannot connect n vertices: no BFS then."""
    return g.edge_count >= g.n - 1 and bool(np.all(bfs_from(g, 0) >= 0))


def max_degree(g: Graph) -> int:
    return int(np.bincount(g.ends.ravel(), minlength=g.n).max())


# Partner ids audit reads from a source at a time: bounds its temporaries
# when a source reads a whole row of a large metric.
_READ_IDS = 1 << 12

# Relative slack on the block bounds of point metrics: it covers the rounding
# of the norm evaluations and of the products audit compares them with.
_BOUND_SLACK = 1e-9


def _monotone(space: NormedSpace) -> bool:
    """Whether space's norm is monotone in each |x_k|: lp and l1 sums of lp."""
    return space.kind == "lp" or (space.kind == "l1sum" and all(map(_monotone, space.parts)))


class FiniteMetric:
    """A finite metric evaluated on request: at(i, idx) gives the distances
    from id i to the ids idx, and row(i) is at(i, all ids).

    The point and chain metrics keep nothing: the audits read each source
    once, so keeping their rows would only cost memory.  A graph's metric
    reads the graph's cached hop table.

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
        return FiniteMetric(g.n, lambda i, idx: g.hops[i, idx])

    @staticmethod
    def from_points(space: NormedSpace, pts, blocks=None) -> "FiniteMetric":
        """Distances norms(space, pts[idx] - pts[i]): on_points over the
        rows of pts, each block bounded by its rows' bounding box."""
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        return FiniteMetric.on_points(
            space, len(pts), pts.__getitem__, blocks,
            lambda b: (np.minimum.reduceat(pts, b, axis=0), np.maximum.reduceat(pts, b, axis=0)))

    @staticmethod
    def on_points(space: NormedSpace, n: int, points, blocks=None, boxes=None) -> "FiniteMetric":
        """Distances norms(space, points(idx) - points(i)), where points(ids)
        gives the points of an id or an int array of ids, as rows; the
        metric keeps the last source's point and the boxes, nothing more.

        blocks (sorted first ids, from 0) gives the metric a block
        partition, bounded by each block's bounding box [lo, hi], which
        boxes(blocks) returns.  Rounded subtraction is monotone, so each
        computed offset from p = points(i) lies between gap = max(lo - p,
        p - hi, 0) and far = max(hi - p, p - lo) in magnitude, coordinate
        by coordinate.  lp norms and their l1 sums are monotone in each
        magnitude: the block's values lie in [norms(gap), norms(far)],
        widened by _BOUND_SLACK for the norms' own rounding.  A space with
        a custom part gets no blocks: its norm_fn need not be monotone so
        (|x| + |y| + |x + y| is not) and may return NaN, which no bound
        contains.
        """
        source = lru_cache(maxsize=1)(points)

        def at(i, idx):
            diff = points(idx)
            diff -= source(i)
            return norms(space, diff)

        if blocks is None or not _monotone(space):
            return FiniteMetric(n, at)
        blocks = np.asarray(blocks, dtype=np.int64)
        box_lo, box_hi = boxes(blocks)

        def bounds(i):  # gap and far in one array, one temporary besides
            p, off = source(i), np.empty((2,) + box_lo.shape)
            with np.errstate(invalid="ignore"):  # inf - inf on infinite points
                below, above = np.subtract(box_lo, p, out=off[0]), np.subtract(p, box_hi, out=off[1])
                near = np.minimum(below, above)
                np.maximum(np.maximum(below, above, out=below), 0.0, out=below)  # NaN propagates
                np.negative(near, out=above)  # max(hi - p, p - lo)
            lo, hi = norms(space, off.reshape(-1, off.shape[-1])).reshape(2, -1)
            return lo * (1.0 - _BOUND_SLACK), hi * (1.0 + _BOUND_SLACK)
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


def _kept_ids(starts: np.ndarray, ends: np.ndarray, keep: np.ndarray):
    """The ids of the kept blocks [starts[k], ends[k]), in increasing order,
    _READ_IDS at a time."""
    starts, lengths = starts[keep], (ends - starts)[keep]
    places = np.cumsum(lengths) - lengths  # of each kept block's first id
    total = int(lengths.sum())
    for first in range(0, total, _READ_IDS):
        place = np.arange(first, min(first + _READ_IDS, total))
        k = np.searchsorted(places, place, side="right") - 1
        yield starts[k] + (place - places[k])


def _fold_max(best, ratio: np.ndarray, ids: np.ndarray):
    """best, (value, id), updated with the first maximum of ratio: the
    fold of np.argmax over a row read in chunks, a NaN counting as the
    largest value, as argmax lands on the first NaN."""
    k = int(np.argmax(ratio))
    value = float(ratio[k])
    if best is None or (not math.isnan(best[0]) and not value <= best[0]):
        return value, int(ids[k])
    return best


def audit(source: FiniteMetric, target: FiniteMetric, pair_cap: int = 2000,
          rng: Optional[np.random.Generator] = None) -> DistortionReport:
    """Bilipschitz constants of the identity map from source to target.

    lip_forward is the largest d_target/d_source ratio, lip_inverse the
    largest reciprocal; distortion is their product (scale invariant).
    Exhaustive over all pairs (i, j > i) when source.size <= pair_cap,
    otherwise all pairs (i, j != i) from a seeded sample of sources i.

    Each source reads the ids of its blocks through at(), in increasing
    order and _READ_IDS at a time, and folds its maxima across the reads
    with a strict >, so the first-index maxima, the witnesses and a
    zero-distance error name the first such pair.  When both metrics
    carry the same block partition, a source skips the blocks whose
    bounds certify that no pair in them reaches the thresholds (the
    running maxima, or seeds if larger): t_hi < thr_f * s_lo and s_hi <
    thr_i * t_lo (a NaN bound keeps its block).  The seeds are the largest ratios of the first
    source with all bounds finite over its top blocks by max(t_hi / s_lo,
    s_hi / t_lo): its own, which scores inf, and 2% more.  Finite bounds
    hold finite distances, so that row has no NaN ratio and counts
    (argmax lands on a NaN): a seed is at most the final maximum, and the
    strict test reads every maximizing pair.  Other metrics form one block
    [0, n); pairs_checked counts every pair covered, evaluated or certified.
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

    def read(i, keep):  # chunks of (partners in kept blocks, d_s, d_t / d_s, d_s / d_t)
        for ids in _kept_ids(starts, ends, keep):
            ids = ids[ids > i] if exhaustive else ids[ids != i]
            if ids.size:
                ds, dt = source.at(i, ids), target.at(i, ids)
                with np.errstate(divide="ignore", invalid="ignore"):
                    yield ids, ds, dt / ds, np.where(dt > 0, ds / dt, np.inf)

    lip_f = lip_i = seed_f = seed_i = 0.0
    seeded = False
    wit_f = wit_i = (0, 1)
    pairs = 0
    for i in sources:
        pairs += n - 1 - i if exhaustive else n - 1
        keep = ends > (i + 1 if exhaustive else 0)
        if blocked:
            s_lo, s_hi = source.bounds(i)
            t_lo, t_hi = target.bounds(i)
            with np.errstate(divide="ignore", invalid="ignore"):  # x / 0, inf * 0
                if not seeded and np.isfinite([s_lo, s_hi, t_lo, t_hi]).all():
                    seeded = True
                    score = np.where(keep, np.maximum(t_hi / s_lo, s_hi / t_lo), -np.inf)
                    k = 1 + max(1, int(keep.sum()) // 50)  # the own block, then 2%
                    top = score >= np.sort(score)[max(0, score.size - k)]
                    peaks = [(np.max(f, initial=0.0), np.max(v, initial=0.0))
                             for *_, f, v in read(i, top)]
                    seed_f, seed_i = np.max(np.reshape(peaks, (-1, 2)), axis=0,
                                            initial=0.0).tolist()
                keep &= ~((t_hi < max(lip_f, seed_f) * s_lo)
                          & (s_hi < max(lip_i, seed_i) * t_lo))
        best_f = best_i = None
        for ids, ds, fwd, inv in read(i, keep):
            zero = ds == 0
            if zero.any():
                raise ValidationError("zero source distance between distinct points "
                                      f"{i},{int(ids[int(np.argmax(zero))])}")
            best_f, best_i = _fold_max(best_f, fwd, ids), _fold_max(best_i, inv, ids)
        if best_f is None:
            continue
        if best_f[0] > lip_f:
            lip_f, wit_f = best_f[0], (i, best_f[1])
        if best_i[0] > lip_i:
            lip_i, wit_i = best_i[0], (i, best_i[1])
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
    """The graph document; its edges are g's own int64 ends array, which
    cli._dump_json writes as the listing json.dumps would."""
    return {"n": g.n, "edges": g.ends}


def _edge_array(edges) -> np.ndarray:
    """The int64 array of an edge listing: graph_to_json's array, or pairs
    of integers as json.load reads them.  One C-level pass over the types
    picks numpy's conversion; the per-end loop runs only on other input, to
    accept integral floats and name a bad value."""
    if isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.shape[1:] == (2,):
        return edges
    if (isinstance(edges, list) and set(map(type, edges)) <= {list}
            and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {int}):
        return np.array(edges, dtype=np.int64)
    return np.array([(as_int(u, "edge end"), as_int(v, "edge end")) for u, v in edges],
                    dtype=np.int64)


def graph_from_json(obj: dict) -> Graph:
    try:
        n = as_int(obj["n"], "n")
        edges = _edge_array(obj["edges"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from exc
    return from_edges(n, edges)


def graph_to_dot(g: Graph, points: Optional[np.ndarray] = None) -> str:
    """DOT text of g; planar points (one row per vertex) pin the vertices."""
    lines = ["graph G {"]
    for u in range(g.n):
        if points is not None and points.shape[1] == 2:
            x, y = points[u]
            lines.append(f'  {u} [pos="{x},{y}!"];')
        else:
            lines.append(f"  {u};")
    for u, v in g.ends.tolist():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
