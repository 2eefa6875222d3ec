"""Acceptance suite.

Each numbered test checks one claimed bound at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`
to see them).  Criteria:

 1. identity-embedding distortion <= 3.0 on ten ball net graphs, with
    per-pair forward caps and hop-count path bounds (exact arithmetic)
 2. packing degree bound 7^dim on the same graphs
 3. gadget degree <= 3 and the anchor-map sandwich M*d_G <= d_H <= (2e+M)*d_G
 4. practical-mode polyline placement in l2^3 and linf^3 with post-hoc
    condition re-verification and the 4 / (1 + 6/gamma) distortion caps
 5. strict-mode suitable-breakpoint fraction >= 1/4 minus Monte Carlo noise
 6. product-map composition: 1-Lipschitz forward, inverse within twice the
    subdivided positions' inverse constant (ratio tolerance 1e-9)
 7. scaled-subdivision vs thickened-graph isometry, exact to 1e-12
 8. path/complete classifier agrees with brute force on every connected
    graph with at most 7 vertices
 9. pipeline reproducibility: identical seeds give byte-identical artifacts
"""

import json
import math
import time

import numpy as np
import pytest

from netembed import (audit_anchor_map, audit_identity_embedding,
                      audit_product_map, audit_tg, build_gadget,
                      build_net_graph, classify, default_strict_params,
                      degree_bound, estimate_suitable_fraction, from_edges,
                      lp_space, max_degree, mg_positions, place_edges,
                      practical_params, subdivide, subdivision_tg_points,
                      tg_distances, verify_embedding, verify_path_bound)
from netembed.cli import main as cli_main

INF = math.inf


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ball_graphs():
    spaces = [("l1^2", lp_space(1, 2)), ("l2^2", lp_space(2, 2)),
              ("linf^2", lp_space(INF, 2)), ("l2^3", lp_space(2, 3)),
              ("linf^3", lp_space(INF, 3))]
    t0 = time.perf_counter()
    built = {(name, r): build_net_graph(space, 1.0, float(r))
             for name, space in spaces for r in (2, 3)}
    return built, time.perf_counter() - t0


def test_criterion_1_identity_distortion(ball_graphs):
    built, build_time = ball_graphs
    t0 = time.perf_counter()
    worst = 0.0
    for (name, r), ng in built.items():
        rep = audit_identity_embedding(ng)
        assert rep.exhaustive
        assert rep.distortion <= 3.0 * (1 + 1e-12), (name, r, rep.distortion)
        worst = max(worst, rep.distortion)
        pb = verify_path_bound(ng)
        assert pb.ok, (name, r, pb.violation)
        assert pb.max_forward_ratio <= 3 * ng.net.rho * (1 + 1e-12), (name, r)
    elapsed = time.perf_counter() - t0 + build_time
    report(1, elapsed < 60.0,
           f"10 instances, worst distortion {worst:.12f} <= 3.0, "
           f"path bounds exact, {elapsed:.1f}s < 60s")


def test_criterion_2_degree_packing_bound(ball_graphs):
    built, _ = ball_graphs
    t0 = time.perf_counter()
    for (name, r), ng in built.items():
        assert max_degree(ng.graph) <= degree_bound(ng), (name, r)
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 1.0,
           f"max degree <= 7^dim on all 10 instances, {elapsed:.2f}s < 1s")


def test_criterion_3_gadget_degree_and_anchor_bounds():
    t0 = time.perf_counter()
    k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    ball = build_net_graph(lp_space(2, 2), 1.0, 2.0).graph
    checked = []
    for g, tag in ((k3, "K3"), (ball, "G(l2^2,1,2)")):
        e = g.edge_count
        d_g = g.hops
        for m_val in (e, e + 1, 10 * e):
            h = build_gadget(g, m_val)
            assert max_degree(h.graph) <= 3, (tag, m_val)
            rep = audit_anchor_map(h)  # raises on any per-pair violation
            assert rep.lip_forward <= 2 * e + m_val, (tag, m_val)
            assert rep.lip_inverse <= 1.0 / m_val * (1 + 1e-12), (tag, m_val)
            checked.append((tag, m_val))
        assert d_g.max() >= 1
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 120.0,
           f"{len(checked)} gadget instances, degree <= 3 and "
           f"M*d_G <= d_H <= (2e+M)*d_G exhaustively, {elapsed:.1f}s < 120s")


def test_criterion_4_practical_placement_and_tg_audit():
    t0 = time.perf_counter()
    beta = 0.02
    details = []
    for space, tag in ((lp_space(2, 3), "l2^3"), (lp_space(INF, 3), "linf^3")):
        ng = build_net_graph(space, 1.0, 2.0)
        params = practical_params(beta=beta, seed=7)
        assert params.alpha == beta / 10 and params.gamma == beta / 20
        emb = place_edges(ng, params)
        assert np.all(emb.attempts <= params.retry_cap)
        rev = verify_embedding(emb)
        assert rev["ok"], (tag, rev["failures"][:3])
        tga = audit_tg(emb, 10_000, np.random.default_rng([7, 2]))
        bound = 1 + 6 / params.gamma
        assert tga.lip_forward <= 4.0, (tag, tga.lip_forward)
        assert tga.lip_inverse <= bound, (tag, tga.lip_inverse)
        details.append(f"{tag}: E={len(emb.ends)}, "
                       f"fwd {tga.lip_forward:.2f}<=4, "
                       f"inv {tga.lip_inverse:.1f}<={bound:.0f}")
    elapsed = time.perf_counter() - t0
    report(4, elapsed < 600.0,
           "; ".join(details) + f"; re-verified, {elapsed:.0f}s < 600s")


def test_criterion_5_strict_volume_bound():
    t0 = time.perf_counter()
    space = lp_space(2, 3)
    ng = build_net_graph(space, 1.0, 2.0)
    params = default_strict_params(seed=11)
    emb = place_edges(ng, params, edge_limit=5)
    worst_margin = math.inf
    for j in range(5):
        est = estimate_suitable_fraction(emb, j, 100_000,
                                         np.random.default_rng([11, 5 + j]))
        floor_j = 0.25 - 3 * est.half_width
        worst_margin = min(worst_margin, est.fraction - floor_j)
        assert est.fraction >= floor_j, (j, est)
    elapsed = time.perf_counter() - t0
    report(5, elapsed < 600.0,
           f"first 5 edges, 1e5 samples each, min margin over the 1/4 floor "
           f"{worst_margin:.4f}, {elapsed:.0f}s < 600s")


def test_criterion_6_product_composition():
    t0 = time.perf_counter()
    space = lp_space(2, 3)
    ng = build_net_graph(space, 1.0, 1.44)
    emb = place_edges(ng, practical_params(beta=0.02, seed=5))
    g = emb.netgraph.graph
    m_val = 2 * g.edge_count + 1
    h = build_gadget(g, m_val)
    assert h.graph.n <= 3000
    sub, pos = mg_positions(emb, m_val)
    pa = audit_product_map(h, pos, space, pair_cap=3000)
    assert pa.report.exhaustive
    assert pa.forward_ok, pa.report.lip_forward
    assert pa.inverse_ok, (pa.report.lip_inverse, pa.inverse_bound)
    elapsed = time.perf_counter() - t0
    report(6, elapsed < 300.0,
           f"|V(H)|={h.graph.n}, M={m_val}: lip {pa.report.lip_forward:.6f}<=1, "
           f"inv {pa.report.lip_inverse:.1f}<=2*{pa.lip_positions_inverse:.1f}, "
           f"{elapsed:.0f}s < 300s")


def test_criterion_7_subdivision_thickening_isometry():
    t0 = time.perf_counter()
    k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    worst = 0.0
    for m_val in range(1, 9):
        sub = subdivide(k3, m_val)
        edges, ts = subdivision_tg_points(sub, np.arange(sub.n))
        i, j = np.triu_indices(sub.n, 1)
        d_tg = tg_distances(k3, edges[i], ts[i], edges[j], ts[j])
        worst = max(worst, float(np.max(np.abs(sub.graph.hops[i, j] / m_val - d_tg))))
    elapsed = time.perf_counter() - t0
    report(7, worst <= 1e-12 and elapsed < 10.0,
           f"K3, M<=8: max |d_MG/M - d_TG| = {worst:.2e} <= 1e-12, "
           f"{elapsed:.1f}s < 10s")


def _brute_verdict(edges, n):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    is_path = (n == 1 and not edges) or (
        len(edges) == n - 1 and max(deg) <= 2 and sorted(deg).count(1) == 2)
    if is_path:
        return "Path"
    if len(edges) == n * (n - 1) // 2:
        return "Complete"
    return "Neither"


def test_criterion_8_classifier_exhaustive():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g
    t0 = time.perf_counter()
    fixed = {
        "K4": (from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
               "Complete"),
        "P5": (from_edges(5, [(i, i + 1) for i in range(4)]), "Path"),
        "C4": (from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), "Neither"),
        "C3": (from_edges(3, [(0, 1), (1, 2), (0, 2)]), "Complete"),
        "K1,3": (from_edges(4, [(0, 1), (0, 2), (0, 3)]), "Neither"),
    }
    for tag, (g, want) in fixed.items():
        assert classify(g).verdict == want, tag
    count = 0
    for gx in graph_atlas_g()[1:]:
        n = gx.number_of_nodes()
        if n == 0 or not nx.is_connected(gx):
            continue
        relabel = {node: i for i, node in enumerate(sorted(gx.nodes()))}
        edges = [(relabel[u], relabel[v]) for u, v in gx.edges()]
        got = classify(from_edges(n, edges)).verdict
        assert got == _brute_verdict(edges, n), (n, edges)
        count += 1
    elapsed = time.perf_counter() - t0
    report(8, elapsed < 60.0,
           f"fixed verdicts + {count} connected graphs on <= 7 vertices "
           f"agree with brute force, {elapsed:.1f}s < 60s")


def test_criterion_9_pipeline_reproducibility(tmp_path):
    t0 = time.perf_counter()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli_main(["pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "2", "--seed", "7", "--samples", "1000",
                       "--out", str(out)])
        assert rc == 0
    names = sorted(p.name for p in outs[0].iterdir())
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    dossier = json.loads((outs[0] / "dossier.json").read_text())
    assert dossier["graph"]["identity_audit"]["distortion"] <= 3.0 * (1 + 1e-12)
    assert dossier["gadget"]["max_degree"] <= 3
    elapsed = time.perf_counter() - t0
    report(9, identical and elapsed < 900.0,
           f"two seeded runs, {len(names)} artifacts byte-identical, "
           f"{elapsed:.0f}s < 900s")
