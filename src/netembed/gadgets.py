"""Edge subdivision and the bounded-degree gadget.

Given a connected base graph G with e edges, the gadget H replaces every
vertex u by a "short path" of e vertices (one per base edge, in a fixed
lexicographic edge order) and every base edge j by a "long path" of M unit
edges joining the label-j vertices of its endpoints' short paths.  Short
paths meet long paths only at matching labels, so the maximum degree is 3.

Two maps are audited:

  anchor map    base vertex u -> the anchor-label vertex of u's short path;
                hop distances satisfy M*d_G <= d_H <= (2e + M)*d_G.
  product map   gadget vertex -> (positions on the subdivided graph) + label
                in the l1 sum  X + R; 1-Lipschitz after normalization, with
                inverse Lipschitz constant at most twice that of the
                subdivided-graph positions.

Both audits read exact hop rows of H in closed form (GadgetGraph.hop_metric):
a fixpoint over the n*e short-path ("port") vertices, whose short paths are
unit-step paths and whose long paths act as weight-M edges, then every
long-path vertex from its two end ports.  No BFS runs on H.

Short paths carry exactly e vertices (length e-1): a trailing unlabeled
vertex would change no distance bound and is dropped; see the metadata flag
on the JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .graphs import (DistortionReport, FiniteMetric, Graph, audit, bfs_apsp,
                     from_edges, is_connected, max_degree)
from .spaces import NormedSpace, direct_sum_l1, lp_space, norms


def _sorted_edges(g: Graph) -> tuple:
    return tuple(g.edges)  # already (u, v) with u < v, lexicographic


@dataclass(frozen=True)
class SubdividedGraph:
    """Each base edge replaced by a path of M unit edges.

    Vertex ids: 0..n-1 are the base vertices; the k-th interior vertex of
    edge j (k = 0..M-2, walking from the smaller endpoint) is
    n + j*(M-1) + k.  The Graph itself is built on first use: positions,
    edge gaps and hop rows come from the base graph alone.
    """

    base: Graph
    M: int
    edge_list: tuple

    @property
    def n(self) -> int:
        return self.base.n + len(self.edge_list) * (self.M - 1)

    @cached_property
    def graph(self) -> Graph:
        return from_edges(self.n, [tuple(e) for e in self.edge_ends().tolist()])

    def edge_ends(self) -> np.ndarray:
        """(len(edge_list) * M, 2) endpoints of the unit edges, path by path
        from the smaller base endpoint."""
        ends = np.array(self.edge_list, dtype=np.int64).reshape(-1, 2)
        inner = self.interior_id(0, 0) + np.arange(
            len(ends) * (self.M - 1), dtype=np.int64).reshape(len(ends), self.M - 1)
        chain = np.concatenate([ends[:, :1], inner, ends[:, 1:]], axis=1)
        return np.stack([chain[:, :-1], chain[:, 1:]], axis=2).reshape(-1, 2)

    def interior_id(self, j: int, k: int) -> int:
        return self.base.n + j * (self.M - 1) + k

    def vertex_kind(self, vid: int):
        """("orig", u) or ("edge", j, step) with step in 1..M-1 from the
        smaller endpoint."""
        if vid < self.base.n:
            return ("orig", vid)
        off = vid - self.base.n
        return ("edge", off // (self.M - 1), off % (self.M - 1) + 1)

    def hop_metric(self) -> FiniteMetric:
        """Exact hop rows of the subdivided graph, in closed form from the
        base hop table (no BFS on the subdivided graph).

        Shortest paths between base vertices run along whole subdivided
        edges, so those distances are M times the base hop distances.  A
        path to the step-t vertex of edge j = (a, b) enters through a (t
        hops) or b (M - t hops); a source on edge j itself also reaches it
        in |t - t0| hops along the edge.
        """
        n, M = self.base.n, self.M
        hops = bfs_apsp(self.base).astype(np.int64) * M
        ends = np.array(self.edge_list, dtype=np.int64).reshape(-1, 2)
        a, b = ends[:, 0], ends[:, 1]
        steps = np.arange(1, M)

        def row(i):
            if i < n:
                to_base = hops[i]
            else:
                j, t0 = divmod(i - n, M - 1)
                t0 += 1
                to_base = np.minimum(hops[a[j]] + t0, hops[b[j]] + (M - t0))
            inner = np.minimum(to_base[a, None] + steps, to_base[b, None] + (M - steps))
            if i >= n:
                inner[j] = np.minimum(inner[j], np.abs(steps - t0))
            return np.concatenate([to_base, inner.ravel()]).astype(np.float64)

        return FiniteMetric(self.n, row)


def subdivide(g: Graph, M: int) -> SubdividedGraph:
    """Replace each edge by a path of length M; M = 1 leaves g unchanged."""
    if M < 1:
        raise ValidationError("M must be >= 1")
    return SubdividedGraph(base=g, M=M, edge_list=_sorted_edges(g))


@dataclass(frozen=True)
class GadgetGraph:
    """Maximum-degree-3 expansion of a base graph.

    short_ids[u, i] is the short-path vertex of base vertex u carrying label
    i+1; long_interior[j] lists the interior vertices of long path j walking
    from the smaller endpoint.  psi_anchor is the label whose short-path
    vertices serve as images of the base vertices (default 1).
    """

    graph: Graph
    base: Graph
    M: int
    edge_list: tuple
    short_ids: np.ndarray
    long_interior: np.ndarray
    psi_anchor: int = 1

    @property
    def edge_labels(self) -> dict:
        return {e: i + 1 for i, e in enumerate(self.edge_list)}

    @property
    def n(self) -> int:
        return self.short_ids.size + self.long_interior.size

    def hop_metric(self) -> FiniteMetric:
        """Exact hop rows of H, in closed form on the port array (no BFS on
        H; self.graph is not read).

        Distances to the ports, short_ids[u, i], form an (n, e) array.  A
        shortest path between ports runs along short paths (unit steps) and
        through whole long paths (M steps each), so the array is the
        fixpoint of two relaxations: a forward and a backward min-plus sweep
        along every short path, and a weight-M edge between the end ports
        (a_j, j) and (b_j, j) of every long path j.  The step-t vertex of
        long path j is then entered from a_j (t more hops) or b_j (M - t);
        a source on path j itself also reaches it in |t - t0| hops.
        """
        n, e, M = self.base.n, len(self.edge_list), self.M
        ports = n * e
        if not (np.array_equal(self.short_ids.ravel(), np.arange(ports))
                and np.array_equal(self.long_interior.ravel(),
                                   ports + np.arange(self.long_interior.size))):
            raise InternalConsistencyError("gadget ids are not in build_gadget's layout")
        ends = np.array(self.edge_list, dtype=np.int64).reshape(-1, 2)
        a, b, lab = ends[:, 0], ends[:, 1], np.arange(e)
        steps = np.arange(1, M, dtype=np.float64)
        unreached = np.iinfo(np.int64).max // 4

        def sweep(d):
            d = np.minimum.accumulate(d - lab, axis=1) + lab
            return np.minimum.accumulate((d + lab)[:, ::-1], axis=1)[:, ::-1] - lab

        def row(s):
            d = np.full((n, e), unreached, dtype=np.int64)
            on_path = s >= ports
            if on_path:
                j0, t0 = divmod(s - ports, M - 1)
                t0 += 1
                d[a[j0], j0], d[b[j0], j0] = t0, M - t0
            else:
                d[divmod(s, e)] = 0
            while True:
                d = sweep(d)
                da, db = d[a, lab], d[b, lab]
                na, nb = np.minimum(da, db + M), np.minimum(db, da + M)
                if np.array_equal(na, da) and np.array_equal(nb, db):
                    break
                d[a, lab], d[b, lab] = na, nb
            if d.max() >= unreached:
                raise ValidationError("gadget metric requires a connected gadget")
            out = np.empty(self.n, dtype=np.float64)
            out[:ports] = d.ravel()
            inner = out[ports:].reshape(e, M - 1)
            np.add(da[:, None], steps, out=inner)
            np.minimum(inner, db[:, None] + (M - steps), out=inner)
            if on_path:
                np.minimum(inner[j0], np.abs(steps - t0), out=inner[j0])
            return out

        return FiniteMetric(self.n, row)


def build_gadget(g: Graph, M: int, psi_anchor: int = 1) -> GadgetGraph:
    """Construct the gadget; asserts max degree <= 3 and connectivity."""
    if M < 1:
        raise ValidationError("M must be >= 1")
    if not is_connected(g):
        raise ValidationError("base graph must be connected")
    edge_list = _sorted_edges(g)
    e = len(edge_list)
    if e < 1:
        raise ValidationError("base graph needs at least one edge")
    if not (1 <= psi_anchor <= e):
        raise ValidationError(f"psi_anchor must be a label in 1..{e}")

    short_ids = np.arange(g.n * e, dtype=np.int64).reshape(g.n, e)
    long_interior = np.arange(g.n * e, g.n * e + e * (M - 1),
                              dtype=np.int64).reshape(e, max(M - 1, 0)) \
        if M > 1 else np.empty((e, 0), dtype=np.int64)
    n_h = g.n * e + e * (M - 1)

    edges = []
    for u in range(g.n):
        row = short_ids[u]
        edges.extend(zip(row[:-1], row[1:]))
    for j, (a, b) in enumerate(edge_list):
        chain = [int(short_ids[a, j])] + [int(x) for x in long_interior[j]] \
            + [int(short_ids[b, j])]
        edges.extend(zip(chain, chain[1:]))
    h = from_edges(n_h, edges)
    if max_degree(h) > 3:
        raise InternalConsistencyError("gadget degree exceeded 3")
    if not is_connected(h):
        raise InternalConsistencyError("gadget is disconnected for a connected base")
    return GadgetGraph(graph=h, base=g, M=M, edge_list=edge_list,
                       short_ids=short_ids, long_interior=long_interior,
                       psi_anchor=psi_anchor)


def anchor_map(h: GadgetGraph) -> np.ndarray:
    """Base vertex u -> the anchor-label vertex of u's short path."""
    return h.short_ids[:, h.psi_anchor - 1].copy()


def audit_anchor_map(h: GadgetGraph, enforce: bool = True) -> DistortionReport:
    """Exhaustive audit of the anchor map G -> H.

    Per pair: M*d_G <= d_H <= (2e + M)*d_G, hence lip <= 2e+M and inverse
    lip <= 1/M.
    """
    g = h.base
    e = len(h.edge_list)
    amap = anchor_map(h)
    d_g = bfs_apsp(g)
    hops = h.hop_metric()
    rows = {int(amap[u]): hops.row(int(amap[u])) for u in range(g.n)}
    lip_f = lip_i = 0.0
    wit_f = wit_i = (0, 1)
    pairs = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            dh = int(rows[int(amap[u])][int(amap[v])])
            dg = int(d_g[u, v])
            pairs += 1
            if enforce and not (h.M * dg <= dh <= (2 * e + h.M) * dg):
                raise InternalConsistencyError(
                    f"anchor-map bound failed on pair ({u},{v}): "
                    f"d_G={dg}, d_H={dh}, M={h.M}, e={e}")
            if dh / dg > lip_f:
                lip_f, wit_f = dh / dg, (u, v)
            if dg / dh > lip_i:
                lip_i, wit_i = dg / dh, (u, v)
    return DistortionReport(lip_f, lip_i, lip_f * lip_i, wit_f, wit_i,
                            pairs, exhaustive=True)


def _h_to_sub(h: GadgetGraph, sub: SubdividedGraph) -> np.ndarray:
    """Gadget vertex -> corresponding subdivided-graph vertex.

    Short-path vertices of u collapse onto the base vertex u; the k-th
    interior vertex of long path j maps to the k-th interior vertex of the
    subdivided edge j.
    """
    out = np.empty(h.n, dtype=np.int64)
    out[h.short_ids] = np.arange(h.base.n)[:, None]
    out[h.long_interior] = sub.interior_id(0, 0) + np.arange(
        h.long_interior.size).reshape(h.long_interior.shape)
    return out


def product_positions(h: GadgetGraph, sub_positions: np.ndarray,
                      space: NormedSpace):
    """Images of gadget vertices in the l1 sum  space + R.

    sub_positions holds one row per vertex of subdivide(base, M) (same M and
    edge order as the gadget).  A short-path vertex with label i goes to
    (position of its base vertex, i); a long-path vertex goes to (position
    of its subdivided-edge vertex, label of its long path).  Positions are
    rescaled by the largest image distance across subdivided edges when that
    exceeds 1, so the result is 1-Lipschitz; the factor is returned.

    Returns (positions, factor, target_space, sub).
    """
    if h.M <= 2 * len(h.edge_list):
        raise ValidationError("need M > 2*e(base) for the product map")
    sub = SubdividedGraph(base=h.base, M=h.M, edge_list=h.edge_list)
    sub_positions = np.asarray(sub_positions, dtype=np.float64)
    if sub_positions.shape != (sub.n, space.dim):
        raise ValidationError(
            f"positions shape {sub_positions.shape} does not match the "
            f"subdivided graph ({sub.n} vertices, dim {space.dim})")

    ends = sub.edge_ends()
    edge_gaps = norms(space, sub_positions[ends[:, 0]] - sub_positions[ends[:, 1]])
    factor = float(edge_gaps.max()) if edge_gaps.size else 1.0
    pos = sub_positions / factor if factor > 1.0 else sub_positions
    factor = factor if factor > 1.0 else 1.0

    mapping = _h_to_sub(h, sub)
    out = np.empty((h.n, space.dim + 1))
    out[:, :space.dim] = pos[mapping]
    labels = np.arange(1, len(h.edge_list) + 1, dtype=np.float64)
    out[h.short_ids, space.dim] = labels
    out[h.long_interior, space.dim] = labels[:, None]
    return out, factor, direct_sum_l1(space, lp_space(1, 1)), sub


@dataclass(frozen=True)
class ProductAudit:
    report: DistortionReport
    factor: float
    lip_positions_inverse: float
    inverse_bound: float
    forward_ok: bool
    inverse_ok: bool

    def to_json(self) -> dict:
        return {"report": self.report.to_json(), "normalization_factor": self.factor,
                "lip_positions_inverse": self.lip_positions_inverse,
                "inverse_bound": self.inverse_bound,
                "forward_ok": self.forward_ok, "inverse_ok": self.inverse_ok}


def audit_product_map(h: GadgetGraph, sub_positions: np.ndarray,
                      space: NormedSpace, pair_cap: int = 2000,
                      rng=None, tol: float = 1e-9) -> ProductAudit:
    """Audit the product map H -> space + R.

    Checks lip <= 1 (after normalization) and inverse lip <= 2x the inverse
    Lipschitz constant of the normalized positions on the subdivided graph.
    """
    pos, factor, target, sub = product_positions(h, sub_positions, space)
    scaled = sub_positions / factor
    sub_report = audit(sub.hop_metric(), FiniteMetric.from_points(space, scaled),
                       np.arange(sub.n), pair_cap=pair_cap, rng=rng)
    lip0_inv = sub_report.lip_inverse
    report = audit(h.hop_metric(), FiniteMetric.from_points(target, pos),
                   np.arange(h.n), pair_cap=pair_cap, rng=rng)
    bound = 2.0 * lip0_inv
    return ProductAudit(
        report=report, factor=factor, lip_positions_inverse=lip0_inv,
        inverse_bound=bound,
        forward_ok=report.lip_forward <= 1.0 + tol,
        inverse_ok=report.lip_inverse <= bound * (1 + tol),
    )


def verify_product_cases(h: GadgetGraph, sub_positions: np.ndarray,
                         space: NormedSpace, tol: float = 1e-9) -> bool:
    """Per-pair case split behind the inverse bound (small instances only).

    Pairs with d_sub(w', z') >= d_H(w, z)/2 must satisfy
    ||img(w) - img(z)|| >= d_H/(2 * lip_inv0); the remaining pairs must
    already satisfy ||img(w) - img(z)|| > d_H/2 through the label
    coordinate.
    """
    pos, factor, target, sub = product_positions(h, sub_positions, space)
    mapping = _h_to_sub(h, sub)
    d_h = h.hop_metric()
    d_sub = sub.hop_metric()
    scaled = sub_positions / factor
    sub_report = audit(d_sub, FiniteMetric.from_points(space, scaled),
                       np.arange(sub.n))
    lip0_inv = sub_report.lip_inverse
    for w in range(h.n):
        img_d = norms(target, pos[w + 1:] - pos[w])
        dh = d_h.row(w)[w + 1:]
        near = d_sub.row(int(mapping[w]))[mapping[w + 1:]] >= 0.5 * dh
        need = np.where(near, 0.5 * dh / lip0_inv * (1 - tol), 0.5 * dh * (1 - tol))
        if np.any(img_d < need):
            return False
    return True


def gadget_to_json(h: GadgetGraph) -> dict:
    from .graphs import graph_to_json
    return {
        "graph": graph_to_json(h.graph),
        "base": graph_to_json(h.base),
        "M": h.M,
        "edge_order": [[u, v] for u, v in h.edge_list],
        "short_paths": [[int(x) for x in row] for row in h.short_ids],
        "long_paths": [[int(x) for x in row] for row in h.long_interior],
        "psi_anchor": h.psi_anchor,
        "metadata": {"short_path_vertices": len(h.edge_list),
                     "unlabeled_tail_dropped": True},
    }
