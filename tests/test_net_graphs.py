import math

import numpy as np
import pytest

from netembed import (InternalConsistencyError, Net, NetGraph,
                      audit_identity_embedding,
                      build_net, build_net_graph, degree_bound, from_edges,
                      lp_space, max_degree,
                      net_graph_from_json, net_graph_from_net,
                      net_graph_to_json, norms, rescaled_unit,
                      verify_edge_rule, verify_path_bound)


class TestConstruction:
    def test_edge_rule_biconditional(self):
        for space in (lp_space(2, 2), lp_space(1, 2), lp_space(math.inf, 2)):
            ng = build_net_graph(space, 1.0, 2.5)
            assert verify_edge_rule(ng)

    def test_single_point_net(self):
        space = lp_space(2, 2)
        net = Net(space, 1.0, 0.5, np.zeros((1, 2)), 1.25)
        ng = net_graph_from_net(net)
        assert ng.graph.n == 1 and ng.graph.edge_count == 0

    def test_two_point_net_distortion_one(self):
        space = lp_space(2, 2)
        net = Net(space, 1.0, 2.0, np.array([[0.0, 0.0], [2.0, 0.0]]), 1.0)
        ng = net_graph_from_net(net)
        rep = audit_identity_embedding(ng)
        assert rep.distortion == pytest.approx(1.0)

    def test_1d_line_example(self):
        # lattice net on [-2, 2] at unit delta: with mesh 4 the kept points
        # are 1.25 apart, every pair is within threshold 3.75 except the
        # extremes when r grows; recompute hops exhaustively
        ng = build_net_graph(lp_space(2, 1), 1.0, 2.0)
        hops = ng.graph.hops
        pts = ng.points[:, 0]
        for i in range(ng.graph.n):
            for j in range(ng.graph.n):
                if i != j and abs(pts[i] - pts[j]) <= ng.edge_threshold:
                    assert hops[i, j] == 1

    def test_threshold_is_three_rho(self):
        ng = build_net_graph(lp_space(2, 2), 1.0, 2.0)
        assert ng.edge_threshold == pytest.approx(3 * ng.net.rho)


class TestPathBound:
    def test_all_criterion_spaces(self):
        for space in (lp_space(1, 2), lp_space(2, 2), lp_space(math.inf, 2)):
            for r in (2.0, 3.0):
                ng = build_net_graph(space, 1.0, r)
                rep = verify_path_bound(ng)
                assert rep.ok, rep.violation
                assert rep.max_forward_ratio <= ng.edge_threshold * (1 + 1e-12)

    def test_adjacent_iff_within_threshold(self):
        ng = build_net_graph(lp_space(math.inf, 2), 1.0, 3.0)
        hops = ng.graph.hops
        m = ng.net.size
        for i in range(m):
            d = norms(ng.space, ng.points - ng.points[i])
            for j in range(m):
                if i == j:
                    assert hops[i, j] == 0
                elif d[j] <= ng.edge_threshold:
                    assert hops[i, j] == 1
                else:
                    assert hops[i, j] <= math.floor(d[j] / ng.net.rho * (1 + 1e-12))


def _with_edges(ng, edges):
    """ng with its graph replaced by one on the given edges."""
    g = from_edges(ng.net.size, edges)
    return NetGraph(graph=g, net=ng.net)


class TestFailures:
    """The audits report a graph that breaks the edge rule."""

    def test_edge_rule_rejects_a_dropped_edge(self):
        ng = build_net_graph(lp_space(2, 2), 1.0, 2.5)
        edges = ng.graph.ends.tolist()
        assert verify_edge_rule(ng)
        for k in (0, len(edges) // 2, len(edges) - 1):
            assert not verify_edge_rule(_with_edges(ng, edges[:k] + edges[k + 1:]))

    def test_edge_rule_rejects_a_far_edge(self):
        ng = build_net_graph(lp_space(1, 2), 1.0, 4.0)
        far = [(i, j) for i in range(ng.net.size) for j in range(i + 1, ng.net.size)
               if norms(ng.space, ng.points[j:j + 1] - ng.points[i])[0]
               > ng.edge_threshold * (1 + 1e-12)]
        assert far
        for pair in (far[0], far[-1]):
            assert not verify_edge_rule(_with_edges(ng, ng.graph.ends.tolist() + [pair]))
            # as many edges as the rule gives, one of them in the wrong place
            assert not verify_edge_rule(_with_edges(ng, ng.graph.ends[1:].tolist() + [pair]))

    def test_path_bound_reports_a_near_pair_two_hops_apart(self):
        # seven points one apart on a line with rho = 1: edges join points
        # up to 3 apart; without the edge {0, 1} that pair takes 2 hops
        space = lp_space(2, 1)
        net = Net(space, 0.5, 6.0, np.arange(7.0)[:, None], 1.0)
        ng = net_graph_from_net(net)
        assert verify_path_bound(ng).ok
        rep = verify_path_bound(_with_edges(ng, ng.graph.ends[1:]))
        assert not rep.ok and rep.pairs_checked == 21
        assert rep.violation == {"u": 0, "v": 1, "norm_distance": 1.0, "hops": 2,
                                 "bound": 1}

    def test_identity_audit_raises_over_three(self):
        # points 0, 1 and 10 on a line, joined as a path: the pair (1, 2) is
        # one hop but 9 apart, so the distortion is 9
        space = lp_space(2, 3)
        points = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
        net = Net(space, 1.0, 10.0, points, 1.0)
        ng = NetGraph(graph=from_edges(3, [(0, 1), (1, 2)]), net=net)
        with pytest.raises(InternalConsistencyError,
                           match=r"^identity embedding distortion 9\.0 exceeds 3$"):
            audit_identity_embedding(ng)


class TestDistortion:
    def test_identity_audit_at_most_three(self):
        for space in (lp_space(1, 2), lp_space(2, 3), lp_space(math.inf, 2)):
            ng = build_net_graph(space, 1.0, 2.0)
            rep = audit_identity_embedding(ng)
            assert rep.distortion <= 3.0 * (1 + 1e-12)
            assert rep.lip_forward <= 3 * ng.net.rho * (1 + 1e-12)
            assert rep.lip_inverse <= 1.0 / ng.net.rho * (1 + 1e-12)

    def test_family_scaling_delta_one_over_n(self):
        # delta = 1/n, r = n keeps distortion <= 3 across the family
        # (n = 1 is excluded by the 0 < delta < r precondition)
        space = lp_space(2, 2)
        for n in (2, 3):
            ng = build_net_graph(space, 1.0 / n, float(n))
            rep = audit_identity_embedding(ng)
            assert rep.distortion <= 3.0 * (1 + 1e-12)


class TestDegrees:
    def test_packing_bound(self):
        for space, r in [(lp_space(math.inf, 2), 2.0), (lp_space(2, 3), 2.0),
                         (lp_space(1, 2), 3.0)]:
            ng = build_net_graph(space, 1.0, r)
            assert max_degree(ng.graph) <= degree_bound(ng)
            assert degree_bound(ng) == 7 ** space.dim


class TestRescale:
    def test_unit_normal_form(self):
        ng = build_net_graph(lp_space(2, 3), 1.0, 2.0)
        unit, scale = rescaled_unit(ng)
        assert scale == pytest.approx(1.0 / ng.net.rho)
        assert unit.net.rho == 1.0
        assert unit.edge_threshold == 3.0
        # separation >= 1 in the rescaled graph
        for i in range(unit.net.size - 1):
            d = norms(unit.space, unit.points[i + 1:] - unit.points[i])
            assert np.all(d >= 1.0 - 1e-12)
        # same combinatorics
        assert unit.graph is ng.graph


class TestSerialization:
    def test_roundtrip(self):
        ng = build_net_graph(lp_space(2, 2), 1.0, 2.0)
        obj = net_graph_to_json(ng)
        assert "coords" not in obj  # the points live in obj["net"] only
        again = net_graph_from_json(obj)
        assert np.array_equal(again.graph.ends, ng.graph.ends)
        assert again.edge_threshold == ng.edge_threshold
        assert np.array_equal(again.points, ng.points)
