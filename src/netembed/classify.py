"""Structural classifier: is a connected graph a path, a complete graph, or
neither?

Graphs that embed isometrically into a strictly convex normed space must be
paths or complete graphs (midpoints in such spaces are unique, so a vertex
with two nonadjacent neighbors, or a chordless cycle of length >= 4, is an
obstruction).  The classifier decides the structure exactly and, in the
Neither case, emits a deterministic obstruction certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError
from .graphs import Graph, is_connected


@dataclass(frozen=True)
class Classification:
    verdict: str  # "Path" | "Complete" | "Neither"
    certificate: Optional[dict]
    both: bool


def _is_path(g: Graph) -> bool:
    if g.n == 1:
        return True
    degs = sorted(len(a) for a in g.adj)
    if degs[-1] > 2 or degs[0] == 0:
        return False
    # connected + acyclic + max degree 2 with exactly two endpoints
    return g.edge_count == g.n - 1 and degs.count(1) == 2


def _is_complete(g: Graph) -> bool:
    return all(len(a) == g.n - 1 for a in g.adj)


def _is_cycle(g: Graph) -> bool:
    return g.n >= 3 and all(len(a) == 2 for a in g.adj) and g.edge_count == g.n


def _cycle_order(g: Graph) -> list[int]:
    order = [0, g.adj[0][0]]
    while True:
        prev, cur = order[-2], order[-1]
        nxt = g.adj[cur][0] if g.adj[cur][0] != prev else g.adj[cur][1]
        if nxt == 0:
            return order
        order.append(nxt)


def classify(g: Graph) -> Classification:
    """Decide Path / Complete / Neither with a lowest-index certificate.

    The certificate for Neither is the full vertex order of a chordless
    cycle when the graph is one, and otherwise the smallest vertex that has
    two nonadjacent neighbors together with the smallest such pair (the
    point that would have to be a midpoint of two different segments).
    """
    if not is_connected(g):
        raise ValidationError("classify requires a connected graph")
    path = _is_path(g)
    complete = _is_complete(g)
    cycle = _is_cycle(g)
    if path:
        return Classification("Path", None, both=complete)
    if complete:
        return Classification("Complete", None, both=cycle)
    if cycle:
        return Classification("Neither",
                              {"kind": "cycle", "vertices": _cycle_order(g)},
                              both=False)
    for v in range(g.n):
        nbrs = g.adj[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if nbrs[j] not in g.adj[nbrs[i]]:
                    return Classification(
                        "Neither",
                        {"kind": "midpoint_conflict", "vertex": v,
                         "pair": [nbrs[i], nbrs[j]]},
                        both=False)
    raise AssertionError("connected, not complete, all neighborhoods cliques")


def embeddability_verdict(g: Graph) -> str:
    """Necessary condition only: "PossiblyEmbeddable" iff path or complete."""
    c = classify(g)
    return "PossiblyEmbeddable" if c.verdict in ("Path", "Complete") else "NotEmbeddable"
