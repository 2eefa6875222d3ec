"""The graph carried by a net: vertices are net points, edges join points at
norm distance <= 3 * rho.

These graphs are the metric probes everything else consumes.  The audits
here re-check the construction from scratch: the edge rule as a
biconditional over all pairs, the hop-count path bound, the packing degree
bound 7^dim, and the distortion <= 3 of the identity embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .graphs import (DistortionReport, FiniteMetric, Graph, audit, from_edges,
                     graph_from_json, graph_to_json, is_connected)
from .nets import (_REL_TOL, Net, _pair_distances, build_net, net_from_json,
                   net_to_json)
from .spaces import NormedSpace


@dataclass(frozen=True)
class NetGraph:
    """Graph on a net with the 3*rho edge rule; vertex i is net point i."""

    graph: Graph
    net: Net

    @property
    def edge_threshold(self) -> float:
        return 3.0 * self.net.rho

    @property
    def space(self) -> NormedSpace:
        return self.net.space

    @property
    def points(self) -> np.ndarray:
        return self.net.points


def _near_pairs(net: Net, thr: float) -> np.ndarray:
    """(k, 2): the pairs i < j of net points at distance <= thr, in
    row-major order."""
    near = [np.stack([i[d <= thr], j[d <= thr]], axis=1)
            for i, j, d in _pair_distances(net.space, net.points)]
    return np.concatenate(near) if near else np.empty((0, 2), dtype=np.int64)


def net_graph_from_net(net: Net) -> NetGraph:
    """Edges join net points at distance <= 3*rho (relative tolerance 1e-12).

    Disconnection would mean the covering certificate failed, which the
    construction rules out; it is raised as an internal error, not repaired.
    """
    thr = 3.0 * net.rho
    m = net.size
    edges = _near_pairs(net, thr * (1 + _REL_TOL))
    g = from_edges(m, edges)
    if m > 1 and not is_connected(g):
        raise InternalConsistencyError(
            "net graph is disconnected: covering certificate violated")
    return NetGraph(graph=g, net=net)


def build_net_graph(space: NormedSpace, delta: float, r: float,
                    mesh_divisor: int = 4) -> NetGraph:
    return net_graph_from_net(build_net(space, delta, r, mesh_divisor))


def rescaled_unit(ng: NetGraph) -> tuple[NetGraph, float]:
    """Rescale coordinates by 1/rho: unit separation, unit covering,
    edge threshold 3.  Returns (netgraph, scale) with scale = 1/rho."""
    scale = 1.0 / ng.net.rho
    if abs(scale - 1.0) < _REL_TOL:
        return ng, 1.0
    net = Net(ng.net.space, ng.net.delta * scale, ng.net.r * scale,
              ng.net.points * scale, 1.0)
    return NetGraph(graph=ng.graph, net=net), scale


def verify_edge_rule(ng: NetGraph) -> bool:
    """Edge {i,j} present iff the pair is within the threshold (all pairs)."""
    near = _near_pairs(ng.net, ng.edge_threshold * (1 + _REL_TOL))
    return np.array_equal(near, ng.graph.ends)


@dataclass(frozen=True)
class PathBoundReport:
    ok: bool
    pairs_checked: int
    max_forward_ratio: float
    violation: Optional[dict] = None


def verify_path_bound(ng: NetGraph) -> PathBoundReport:
    """Hop-count bounds for every vertex pair.

    Within the threshold the pair must be a single edge; beyond it the hop
    count must not exceed floor(||u - v|| / rho).  Also tracks the largest
    forward ratio ||u - v|| / d_G, which the edge rule caps at 3*rho.
    """
    hops = ng.graph.hops
    rho = ng.net.rho
    thr = ng.edge_threshold * (1 + _REL_TOL)
    worst = None
    max_fwd = 0.0
    pairs = 0
    for i, j, d in _pair_distances(ng.space, ng.points):
        h = hops[i, j].astype(np.float64)
        pairs += d.size
        max_fwd = max(max_fwd, float(np.max(d / h)))
        near = d <= thr
        bound = np.floor(d / rho * (1 + _REL_TOL))
        bad = np.flatnonzero((near & (h != 1)) | (~near & (h > bound)))
        if bad.size and worst is None:
            k = bad[0]
            worst = {"u": int(i[k]), "v": int(j[k]), "norm_distance": float(d[k]),
                     "hops": int(h[k]), "bound": 1 if near[k] else int(bound[k])}
    return PathBoundReport(ok=worst is None, pairs_checked=pairs,
                           max_forward_ratio=max_fwd, violation=worst)


def degree_bound(ng: NetGraph) -> int:
    """Packing bound on the maximum degree: 7^dim."""
    return 7 ** ng.space.dim


def audit_identity_embedding(ng: NetGraph) -> DistortionReport:
    """Distortion of the identity map (V, d_G) -> (V, ||.||); must be <= 3."""
    if ng.net.size < 2:
        raise ValidationError("audit needs at least two vertices")
    report = audit(FiniteMetric.from_graph(ng.graph),
                   FiniteMetric.from_points(ng.space, ng.points))
    if report.distortion > 3.0 * (1 + 1e-9):
        raise InternalConsistencyError(
            f"identity embedding distortion {report.distortion} exceeds 3")
    return report


def net_graph_to_json(ng: NetGraph) -> dict:
    obj = graph_to_json(ng.graph)
    obj["edge_threshold"] = ng.edge_threshold
    obj["net"] = net_to_json(ng.net)
    return obj


def net_graph_from_json(obj: dict) -> NetGraph:
    """The net graph of a net_graph_to_json document.  Its edge_threshold
    must be 3 * rho and its edges exactly the pairs within it: the unit
    scale of placement and the audits' bounds (identity distortion <= 3,
    the path bound, the TG forward bound max(4, 3 + 2*mu)) presume the
    graph it defines."""
    try:
        net = net_from_json(obj["net"])
        thr = float(obj["edge_threshold"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed net-graph JSON: {exc}") from exc
    g = graph_from_json(obj)
    if g.n != net.size:
        raise ValidationError("net-graph JSON: vertex count does not match net size")
    if not abs(thr - 3.0 * net.rho) <= _REL_TOL * 3.0 * net.rho:
        raise ValidationError(f"net-graph JSON: edge_threshold {thr} is not 3 * rho "
                              f"= {3.0 * net.rho}")
    ng = NetGraph(graph=g, net=net)
    if not verify_edge_rule(ng):
        raise ValidationError("net-graph JSON: the edges are not the pairs of net "
                              "points within edge_threshold")
    return ng
