"""Edge subdivision and the bounded-degree gadget.

Given a connected base graph G with e edges, the gadget H replaces every
vertex u by a "short path" of e vertices (one per base edge, in a fixed
lexicographic edge order) and every base edge j by a "long path" of M unit
edges joining the label-j vertices of its endpoints' short paths.  Short
paths meet long paths only at matching labels, so the maximum degree is 3.

Two maps are audited:

  anchor map    base vertex u -> the label-1 vertex u*e of u's short path;
                hop distances satisfy M*d_G <= d_H <= (2e + M)*d_G.
  product map   gadget vertex -> (image of its G_M vertex, label) in the l1
                sum X + R; 1-Lipschitz after normalization, with inverse
                Lipschitz constant at most twice that of G_M's image.

G_M and H share one layout (_ChainGraph): base edge j is a chain of M
unit edges between two hub vertices, and the chain interiors are numbered
chain by chain after the hubs, which are the n base vertices in G_M and
the n*e short-path ("port") vertices in H.  address(ids) gives the chain
j and step t of interior ids, and in G_M of base vertices too.  Ids, unit
edges, the JSON edge listing and the hop rows derive from that layout;
neither graph's adjacency is built unless asked for, and neither may
exceed _VERTEX_CAP vertices.  A hop row fills the chains in closed form
(chain_distances, the one chain stage, which tg_distances also runs) from
the source's distances to the hubs: M times the base hop table for G_M,
and for H a fixpoint over the ports (GadgetGraph.port_rows), whose short
paths are unit-step paths and whose long paths act as weight-M edges.  The
anchor audit reads its entries from that port array.  No BFS runs on G_M
or H.  GadgetGraph.to_sub addresses an H id as (G_M id, label): through
it, product_metric reads H's image off G_M's, and no H positions exist.

Short paths carry exactly e vertices (length e-1): a trailing unlabeled
vertex would change no distance bound and is dropped.  The JSON document
(gadget_to_json) holds the unit-edge listing, the base graph and M, which
fix the gadget; the ids of the short and long paths follow from the layout
above and are not listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .graphs import (DistortionReport, FiniteMetric, Graph, audit, from_edges,
                     graph_to_json, is_connected)
from .spaces import NormedSpace, norms

# Block length, in ids, of the hop metrics' block partition (hub runs and
# chain runs): 16, 32 and 64 gave product-map audits equally fast, within
# noise, on the pipeline's lp:2:3, lp:1:3 and lp:inf:3 gadgets.
_BLOCK = 32
_TOL = 1e-9  # relative slack of the product-map bounds
# G_M unit edges, about, per pass of the product map's normalization:
# bounds its temporaries on large gadgets.
_ROWS = 1 << 12
# Vertices a subdivided graph or gadget may have: the r=4 pipeline's gadget
# has 18,224,050.  Checked before anything is allocated.
_VERTEX_CAP = 30_000_000


def chain_distances(d_a, d_b, t, M, own=None, t0=None):
    """Distances to step t of chains of M unit steps whose ends lie d_a and
    d_b away: min(d_a + t, d_b + (M - t)), and |t - t0| where own marks
    the source's own chain (the source at its step t0).  Summed in this
    order, thickened-graph distances keep their bits."""
    d = np.minimum(d_a + t, d_b + (M - t))
    return d if own is None else np.minimum(d, np.abs(t - t0), out=d, where=own)


def _chain_edges(*columns) -> np.ndarray:
    """Unit edges between neighbours along each row of np.hstack(columns),
    row by row: one path per row."""
    chain = np.hstack(columns)
    return np.stack([chain[:, :-1], chain[:, 1:]], axis=2).reshape(-1, 2)


@dataclass(frozen=True)
class _ChainGraph:
    """Base edge j = (a_j, b_j) = base.ends[j] as a chain of M unit edges
    between two hub vertices.

    Vertex ids: 0..hubs-1 are the hubs; interior[j, k] = hubs + j*(M-1) + k
    is the k-th interior vertex of chain j (k = 0..M-2, walking from a_j's
    end), at step t = k + 1 of the chain: its address (j, t).  A subclass
    defines hubs, _hub_ends (the (e, 2) hub ids at the a_j and b_j ends of
    each chain), _hub_width (no hub run of hop_metric's blocks crosses a
    multiple of it) and _hub_distances.  Construction checks n against
    _VERTEX_CAP; the Graph itself is built on first use only.
    """

    base: Graph
    M: int

    def __post_init__(self):
        if self.n > _VERTEX_CAP:
            raise ValidationError(f"{type(self).__name__} would have {self.n} vertices, "
                                  f"over the cap {_VERTEX_CAP}; lower M or the base graph")

    @property
    def n(self) -> int:
        return self.hubs + self.base.edge_count * (self.M - 1)

    @property
    def interior(self) -> np.ndarray:
        """The (e, M-1) interior ids, chain by chain."""
        e = self.base.edge_count
        return self.hubs + np.arange(e * (self.M - 1)).reshape(e, self.M - 1)

    def address(self, ids) -> tuple:
        """(j, t) of an interior id or each in an int array: step t in
        1..M-1 of chain j (a hub gets a meaningless pair; M = 1 has none)."""
        j, t = divmod(ids - self.hubs, max(self.M - 1, 1))
        t += 1
        return j, t

    @cached_property
    def graph(self) -> Graph:
        return from_edges(self.n, self.edge_ends())

    def edge_ends(self) -> np.ndarray:
        """(e * M, 2) endpoints of the chains' unit edges, from a_j's end."""
        hub = self._hub_ends
        return _chain_edges(hub[:, :1], self.interior, hub[:, 1:])

    def hop_metric(self) -> FiniteMetric:
        """Exact float64 hop distances, with chain-aligned blocks: the chain
        steps by chain_distances from the source's hub distances (no BFS;
        self.graph is not read).

        Blocks: the hubs in runs of _BLOCK along each _hub_width ids, then
        each chain in runs of _BLOCK steps.  A hub run's bounds are its
        exact minimum and maximum.  Along a chain, f(t) = min(d_a + t,
        d_b + M - t) is concave, so over a run [t_lo, t_hi] its minimum
        sits at an end, min(d_a + t_lo, d_b + M - t_hi), and its maximum
        at the apex clipped into the run, min(d_a + t_hi, d_b + M - t_lo,
        (d_a + d_b + M) / 2).  On the source's own chain the distance is
        min(f(t), |t - t0|), so a run's minimum is the smaller of f's and
        max(t_lo - t0, t0 - t_hi, 0), again exact, and its maximum is at
        most the smaller of f's and max(t_hi - t0, t0 - t_lo).
        """
        hubs, M = self.hubs, self.M
        hub_distances = self._hub_distances()
        a, b = self._hub_ends.T

        @lru_cache(maxsize=1)
        def source(s):  # the last source's hub distances and address ((None, None) on a hub)
            return (hub_distances(s),) + (self.address(s) if s >= hubs else (None, None))

        def at(s, idx):
            d, j0, t0 = source(s)
            idx = np.asarray(idx, dtype=np.int64)
            out = np.empty(idx.shape, dtype=np.float64)
            hub = idx < hubs
            out[hub] = d[idx[hub]]
            j, t = self.address(idx[~hub])
            own = None if j0 is None else j == j0
            out[~hub] = chain_distances(d[a[j]], d[b[j]], t, M, own, t0)
            return out

        width = self._hub_width
        hub_starts = (np.arange(0, hubs, width)[:, None] + np.arange(0, width, _BLOCK)).ravel()
        first = np.arange(1, M, _BLOCK)  # the first step of each chain run
        chain_starts = (hubs + (M - 1) * np.arange(len(a))[:, None] + (first - 1)).ravel()
        blocks = np.concatenate([hub_starts, chain_starts])
        t_lo = first.astype(np.float64)
        t_hi = np.minimum(t_lo + (_BLOCK - 1), M - 1)

        def bounds(s):
            d, j0, t0 = source(s)
            da, db = d[a][:, None], d[b][:, None] + M  # f(t) = min(da + t, db - t)
            lo = np.minimum(da + t_lo, db - t_hi)
            hi = np.minimum(np.minimum(da + t_hi, db - t_lo), 0.5 * (da + db))
            if j0 is not None:
                lo[j0] = np.minimum(lo[j0], np.maximum(np.maximum(t_lo - t0, t0 - t_hi), 0.0))
                hi[j0] = np.minimum(hi[j0], np.maximum(t_hi - t0, t0 - t_lo))
            return (np.concatenate([np.minimum.reduceat(d, hub_starts), lo.ravel()]),
                    np.concatenate([np.maximum.reduceat(d, hub_starts), hi.ravel()]))

        return FiniteMetric(self.n, at, blocks, bounds)


@dataclass(frozen=True)
class SubdividedGraph(_ChainGraph):
    """Each base edge replaced by a path of M unit edges.  The hubs are the
    base vertices; chain j runs from the smaller endpoint of base edge j."""

    @property
    def hubs(self) -> int:
        return self.base.n

    @property
    def _hub_ends(self) -> np.ndarray:
        return self.base.ends

    @property
    def _hub_width(self) -> int:
        return self.hubs

    def address(self, ids) -> tuple:
        """(j, t), t in 0..M: interior ids as on any chain graph, and base
        vertex u (in an array) at its end (t = 0 or M) of the first chain it ends."""
        j, t = super().address(ids)
        hub = np.flatnonzero(ids < self.hubs)
        if hub.size:
            found, first = np.unique(self.base.ends.ravel(), return_index=True)
            if found.size != self.hubs:
                raise ValidationError("every base vertex must end an edge")
            j[hub], t[hub] = first[ids[hub]] // 2, first[ids[hub]] % 2 * self.M
        return j, t

    def _hub_distances(self):
        """Paths between base vertices run along whole subdivided edges: M
        times the base hops; a source on a chain leaves through either end."""
        hops = self.base.hops.astype(np.int64) * self.M
        a, b = self.base.ends.T

        def dist(s):
            if s < self.hubs:
                return hops[s]
            j, t0 = self.address(s)
            return chain_distances(hops[a[j]], hops[b[j]], t0, self.M)

        return dist


def subdivide(g: Graph, M: int) -> SubdividedGraph:
    """Replace each edge by a path of length M; M = 1 leaves g unchanged."""
    if M < 1:
        raise ValidationError("M must be >= 1")
    return SubdividedGraph(base=g, M=M)


@dataclass(frozen=True)
class GadgetGraph(_ChainGraph):
    """Maximum-degree-3 expansion of a base graph.

    The hubs are the ports: short_ids[u, i] = u*e + i is the short-path
    vertex of base vertex u carrying label i+1.  Long path j is chain j,
    between the ports (a_j, j) and (b_j, j); interior holds its
    interior ids.  base and M fix the gadget.
    """

    @property
    def hubs(self) -> int:
        return self.base.n * self.base.edge_count

    @property
    def short_ids(self) -> np.ndarray:
        return np.arange(self.hubs).reshape(self.base.n, -1)

    @property
    def _hub_width(self) -> int:
        """Hub runs stay within one short path."""
        return self.base.edge_count

    @property
    def _hub_ends(self) -> np.ndarray:
        e = self.base.edge_count
        return self.base.ends * e + np.arange(e)[:, None]

    def edge_ends(self) -> np.ndarray:
        """Endpoints of the unit edges: the short paths, then the long paths."""
        return np.concatenate([_chain_edges(self.short_ids), super().edge_ends()])

    def max_degree(self) -> int:
        """From the layout: a port has a short-path neighbour on each side of
        its label within 1..e, and one per long path it ends; interiors 2."""
        e = self.base.edge_count
        lab = np.arange(e)
        ports = (np.bincount(self._hub_ends.ravel(), minlength=self.hubs).reshape(-1, e)
                 + (lab > 0) + (lab < e - 1))
        return max(int(ports.max()), 2 if self.M > 1 else 0)

    def to_sub(self, ids) -> tuple:
        """(G_M id, label) of a gadget id or each in an int array, G_M =
        subdivide(base, M): port u*e + i is base vertex u with label i + 1,
        and step t of long path j is step t of G_M's chain j, with label j + 1."""
        port, e = ids < self.hubs, self.base.edge_count
        return (np.where(port, ids // e, ids - self.hubs + self.base.n),
                np.where(port, ids % e, self.address(ids)[0]) + 1)

    def port_rows(self, s: int) -> np.ndarray:
        """Hop distances from vertex s to the ports: the (n, e) int64 array
        whose [u, i] entry is the distance to short_ids[u, i].

        A shortest path between ports runs along short paths (unit steps)
        and through whole long paths (M steps each), so the array is the
        fixpoint of two relaxations: a forward and a backward min-plus sweep
        along every short path, and a weight-M edge between the end ports
        (a_j, j) and (b_j, j) of every long path j.  A source inside long
        path j0 starts from both of its end ports.
        """
        n, e, M = self.base.n, self.base.edge_count, self.M
        a, b = self.base.ends.T
        lab = np.arange(e)
        unreached = np.iinfo(np.int64).max // 4
        d = np.full((n, e), unreached, dtype=np.int64)
        if s >= self.hubs:
            j0, t0 = self.address(s)
            d[a[j0], j0], d[b[j0], j0] = t0, M - t0
        else:
            d[divmod(s, e)] = 0
        while True:
            d = np.minimum.accumulate(d - lab, axis=1) + lab
            d = np.minimum.accumulate((d + lab)[:, ::-1], axis=1)[:, ::-1] - lab
            da, db = d[a, lab], d[b, lab]
            na, nb = np.minimum(da, db + M), np.minimum(db, da + M)
            if np.array_equal(na, da) and np.array_equal(nb, db):
                break
            d[a, lab], d[b, lab] = na, nb
        if d.max() >= unreached:
            raise ValidationError("gadget metric requires a connected gadget")
        return d

    def _hub_distances(self):
        return lambda s: self.port_rows(s).ravel()


def build_gadget(g: Graph, M: int) -> GadgetGraph:
    """Construct the gadget; asserts max degree <= 3 from the layout.
    H is connected as the base is: long path j joins the short paths of
    the ends of base edge j."""
    if M < 1:
        raise ValidationError("M must be >= 1")
    if not is_connected(g):
        raise ValidationError("base graph must be connected")
    e = g.edge_count
    if e < 1:
        raise ValidationError("base graph needs at least one edge")
    h = GadgetGraph(base=g, M=M)
    if h.max_degree() > 3:
        raise InternalConsistencyError("gadget degree exceeded 3")
    return h


def anchor_map(h: GadgetGraph) -> np.ndarray:
    """Base vertex u -> the label-1 vertex u*e of u's short path."""
    return h.short_ids[:, 0]


def audit_anchor_map(h: GadgetGraph) -> DistortionReport:
    """Exhaustive audit of the anchor map G -> H.

    Per pair: M*d_G <= d_H <= (2e + M)*d_G, hence lip <= 2e+M and inverse
    lip <= 1/M.
    """
    e, n = h.base.edge_count, h.base.n
    d_g = h.base.hops.astype(np.int64)
    # copied out, so that no (n, e) port array outlives its row
    d_h = np.array([h.port_rows(int(a))[:, 0].copy() for a in anchor_map(h)])
    bad = np.triu((h.M * d_g > d_h) | (d_h > (2 * e + h.M) * d_g), 1)
    if bad.any():
        u, v = np.argwhere(bad)[0]  # the first failing pair u < v, row-major
        raise InternalConsistencyError(
            f"anchor-map bound failed on pair ({u},{v}): "
            f"d_G={d_g[u, v]}, d_H={d_h[u, v]}, M={h.M}, e={e}")
    return audit(FiniteMetric.from_graph(h.base),
                 FiniteMetric(n, lambda i, idx: d_h[i, idx]), pair_cap=n)


def _normalized(h: GadgetGraph, sub_positions: np.ndarray, space: NormedSpace) -> tuple:
    """(G_M, positions, factor): G_M's positions divided by the largest image
    gap across its unit edges when that exceeds 1, so the product map is
    1-Lipschitz; factor is that gap, else 1.  The gaps are taken as
    edge_ends orients them, chain by chain and about _ROWS edges a pass, so
    G_M's whole edge list is never built."""
    if h.M <= 2 * h.base.edge_count:
        raise ValidationError("need M > 2*e(base) for the product map")
    sub = SubdividedGraph(base=h.base, M=h.M)
    pos = np.asarray(sub_positions, dtype=np.float64)
    if pos.shape != (sub.n, space.dim):
        raise ValidationError(f"positions shape {pos.shape} does not match the subdivided "
                              f"graph ({sub.n} vertices, dim {space.dim})")
    hub, step = sub._hub_ends, max(1, _ROWS // h.M)  # step: chains per pass
    gaps = []
    for j in range(0, len(hub), step):
        rows = np.arange(j, min(j + step, len(hub)))[:, None]
        inner = sub.hubs + (h.M - 1) * rows + np.arange(h.M - 1)  # sub.interior[rows]
        u, v = _chain_edges(hub[rows, 0], inner, hub[rows, 1]).T
        gaps.append(norms(space, pos[u] - pos[v]).max())
    factor = float(np.max(gaps)) if gaps else 1.0  # NaN if a gap is NaN
    return (sub, pos / factor, factor) if factor > 1.0 else (sub, pos, 1.0)


def product_metric(h: GadgetGraph, img: FiniteMetric) -> FiniteMetric:
    """H's image under the product map, in the l1 sum of img's space and R:
    id i goes to G_M vertex m_i with label l_i (h.to_sub), and at(i, idx) is
    img.at(m_i, m_idx) + |l_idx - l_i|.  img, a metric on G_M's ids with
    G_M's hop blocks or none, gives this one H's hop blocks or none.

    H's chain runs are G_M's, id for id, each on one label: img's bounds
    plus the label gap.  A hub run lies on one short path, so on one G_M
    vertex: one exact img.at value, plus the run's nearest and farthest
    label.  Rounding is monotone, so fl(lo + gap) <= fl(d + |l - l_i|)."""
    @lru_cache(maxsize=1)
    def source(i):
        return tuple(int(x) for x in h.to_sub(i))

    def at(i, idx):
        m_i, l_i = source(i)
        m, lab = h.to_sub(idx)
        return img.at(m_i, m) + np.abs(lab - l_i)

    if img.blocks is None:
        return FiniteMetric(h.n, at)
    blocks = h.hop_metric().blocks
    on_hub = blocks < h.hubs  # the hub runs, then the chain runs
    m, lab_lo = h.to_sub(blocks)
    lab_hi = np.where(on_hub, np.minimum(lab_lo + (_BLOCK - 1), h.base.edge_count), lab_lo)
    mid, half = 0.5 * (lab_lo + lab_hi), 0.5 * (lab_hi - lab_lo)  # exact halves
    m, chains = m[on_hub], np.count_nonzero(~on_hub)

    def bounds(i):
        m_i, l_i = source(i)
        lo, hi = img.bounds(m_i)
        exact, k = img.at(m_i, m), len(lo) - chains  # G_M's chain runs from k on
        d = np.abs(mid - l_i)  # the label gap is max(d - half, 0), the far one d + half
        return (np.concatenate([exact, lo[k:]]) + np.maximum(d - half, 0.0),
                np.concatenate([exact, hi[k:]]) + (d + half))

    return FiniteMetric(h.n, at, blocks, bounds)


@dataclass(frozen=True)
class ProductAudit:
    report: DistortionReport
    normalization_factor: float
    lip_positions_inverse: float
    inverse_bound: float
    forward_ok: bool
    inverse_ok: bool


def audit_product_map(h: GadgetGraph, sub_positions: np.ndarray,
                      space: NormedSpace, pair_cap: int = 2000,
                      rng=None) -> ProductAudit:
    """Audit the product map H -> space + R.

    sub_positions has a row per vertex of G_M = subdivide(base, M).  Checks
    lip <= 1 (after normalization) and inverse lip <= 2x the inverse
    Lipschitz constant of the normalized positions on G_M.  Both audits run
    on the hop metrics' chain blocks, bounded on the position side by
    bounding boxes (FiniteMetric.from_points) and on H through product_metric.
    """
    sub, pos, factor = _normalized(h, sub_positions, space)
    d_sub, d_h = sub.hop_metric(), h.hop_metric()
    img = FiniteMetric.from_points(space, pos, d_sub.blocks)
    lip0_inv = audit(d_sub, img, pair_cap=pair_cap, rng=rng).lip_inverse
    report = audit(d_h, product_metric(h, img), pair_cap=pair_cap, rng=rng)
    bound = 2.0 * lip0_inv
    return ProductAudit(report, factor, lip0_inv, bound, report.lip_forward <= 1.0 + _TOL,
                        report.lip_inverse <= bound * (1 + _TOL))


def verify_product_cases(h: GadgetGraph, sub_positions: np.ndarray,
                         space: NormedSpace) -> bool:
    """Per-pair case split behind the inverse bound (small instances only).

    Pairs with d_sub(w', z') >= d_H(w, z)/2 must satisfy
    ||img(w) - img(z)|| >= d_H/(2 * lip_inv0); the remaining pairs must
    already satisfy ||img(w) - img(z)|| > d_H/2 through the label
    coordinate.
    """
    sub, pos, _ = _normalized(h, sub_positions, space)
    d_h, d_sub, img = h.hop_metric(), sub.hop_metric(), FiniteMetric.from_points(space, pos)
    lip0_inv, image = audit(d_sub, img).lip_inverse, product_metric(h, img)
    for w in range(h.n):
        later = np.arange(w + 1, h.n)
        dh = d_h.at(w, later)
        near = d_sub.at(int(h.to_sub(w)[0]), h.to_sub(later)[0]) >= 0.5 * dh
        need = np.where(near, 0.5 * dh / lip0_inv * (1 - _TOL), 0.5 * dh * (1 - _TOL))
        if np.any(image.at(w, later) < need):
            return False
    return True


def gadget_to_json(h: GadgetGraph) -> dict:
    return {
        "graph": graph_to_json(from_edges(h.n, h.edge_ends())),
        "base": graph_to_json(h.base),
        "M": h.M,
    }
