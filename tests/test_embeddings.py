import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from netembed import (EmbedParams, Net, PlacementError, PolylineEmbedding,
                      TGPoint, ThickenedGraph, ValidationError, audit_tg,
                      bfs_apsp, build_net_graph, custom_space,
                      default_strict_params, embedding_from_json,
                      embedding_to_json, estimate_suitable_fraction,
                      from_edges, lp_space, mg_positions, net_graph_from_net,
                      norm, norms, parse_space, place_edges, practical_params,
                      rescaled_unit, sample_ball_many, subdivide,
                      subdivision_tg_points, verify_embedding, wilson_interval)
from netembed import embeddings, spaces
from netembed.embeddings import (ALPHA, BETA, GAMMA, _clip_curves,
                                 _PlacedState, check_breakpoints)

L23 = lp_space(2, 3)


def hand_triangle():
    """Unit-scale 3-point net in l2^3 whose net graph is K3."""
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.8, 0.0]])
    return net_graph_from_net(Net(L23, 1.0, 2.1, pts, 1.0))


def hand_edge():
    """Unit-scale 2-point net in l2^3 (a single edge)."""
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    return net_graph_from_net(Net(L23, 1.0, 2.1, pts, 1.0))


@pytest.fixture(scope="module")
def triangle_emb():
    ng = hand_triangle()
    return place_edges(L23, ng, practical_params(beta=0.02, seed=21),
                       np.random.default_rng([21, 1]))


@pytest.fixture(scope="module")
def ball_emb():
    ng = build_net_graph(L23, 1.0, 2.0)
    return place_edges(L23, ng, practical_params(beta=0.02, seed=8),
                       np.random.default_rng([8, 1]))


class TestParams:
    def test_strict_defaults_match_required_chain(self):
        p = default_strict_params(3)
        assert p.mu == 0.25
        assert p.beta == pytest.approx(1 / 2184)          # mu/546
        assert p.beta == pytest.approx(4.5788e-4, rel=1e-4)
        assert p.alpha == pytest.approx(p.beta / 1232)
        assert p.alpha == pytest.approx(3.7166e-7, rel=1e-4)
        assert p.gamma <= p.alpha
        assert p.gamma <= p.beta / 20
        assert p.gamma <= (p.beta * p.mu) ** 2 / 968 * (1 + 1e-12)
        p.validate(3)

    def test_strict_rejects_low_dimension(self):
        with pytest.raises(ValidationError):
            default_strict_params(2)

    def test_practical_needs_ordering(self):
        with pytest.raises(ValidationError):
            EmbedParams(alpha=0.1, beta=0.02, gamma=0.5, mode="practical").validate(3)

    def test_mu_guard(self):
        with pytest.raises(ValidationError):
            EmbedParams(alpha=1e-3, beta=1e-2, gamma=1e-3, mu=0.0).validate(3)


def code_of(state, ui, vi, w, params):
    """The predicate's answer for a single candidate breakpoint."""
    return int(check_breakpoints(state, ui, vi, np.asarray(w, float)[None, :], params)[0])


class TestChecks:
    def test_alpha_no_placed_edges(self):
        params = practical_params(beta=0.1, seed=0)
        state = _PlacedState(L23, np.array([[0.0, 0, 0], [2.0, 0, 0]]), params.beta)
        assert code_of(state, 0, 1, [1.0, 0.1, 0.0], params) == 0

    def test_alpha_opposite_directions_clear(self):
        # placed edge leaves the shared vertex along +x, candidate along -x:
        # the two crossings of the 0.1-sphere sit about 0.2 apart
        params = EmbedParams(alpha=0.01, beta=0.1, gamma=0.001, mode="practical")
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [-2.0, 0, 0]])
        state = _PlacedState(L23, pts, params.beta)
        state.add_edge(0, 1, np.array([1.0, 0.1, 0.0]))
        assert code_of(state, 0, 2, [-1.0, 0.0, 0.1], params) == 0

    def test_alpha_duplicate_segment_fails(self):
        # the duplicate also fails gamma; alpha is reported, being first
        params = EmbedParams(alpha=0.01, beta=0.1, gamma=0.001, mode="practical")
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        state = _PlacedState(L23, pts, params.beta)
        w = np.array([1.0, 0.1, 0.0])
        state.add_edge(0, 1, w)
        assert code_of(state, 0, 1, w, params) == ALPHA

    def test_beta_far_configuration(self):
        params = practical_params(beta=0.02)
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [50.0, 50.0, 50.0]])
        state = _PlacedState(L23, pts, params.beta)
        assert code_of(state, 0, 1, [1.0, 0.2, 0], params) == 0

    def test_beta_vertex_on_segment_fails(self):
        params = practical_params(beta=0.02)
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0.5, 0.0, 0.0]])  # on [u, w]
        state = _PlacedState(L23, pts, params.beta)
        assert code_of(state, 0, 1, [1.0, 0.0, 0], params) == BETA

    def test_beta_margin_just_over(self):
        # vertex at distance beta * 1.01 from the curve passes
        params = practical_params(beta=0.02)
        w = np.array([1.0, 0.0, 0])
        y = np.array([0.5, params.beta * 1.01, 0.0])
        # cross-check the distance with a dense grid
        t = np.linspace(0, 1, 200_001)
        gap = float(np.min(np.linalg.norm(t[:, None] * w - y, axis=1)))
        assert gap == pytest.approx(params.beta * 1.01, abs=1e-9)
        state = _PlacedState(L23, np.array([[0.0, 0, 0], [2.0, 0, 0], y]), params.beta)
        assert code_of(state, 0, 1, w, params) == 0

    def test_gamma_no_placed_edges(self):
        params = practical_params(beta=0.02)
        state = _PlacedState(L23, np.array([[0.0, 0, 0], [2.0, 0, 0]]), params.beta)
        assert code_of(state, 0, 1, [1.0, 0.1, 0], params) == 0

    def test_gamma_crossing_fails(self):
        params = EmbedParams(alpha=0.002, beta=0.02, gamma=0.2, mode="practical")
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0],
                        [1.0, -1.0, 0.05], [1.0, 1.0, 0.05]])
        state = _PlacedState(L23, pts, params.beta)
        state.add_edge(0, 1, np.array([1.0, 0.0, 0.1]))
        # candidate curve passes within ~0.07 of the placed one, under gamma
        assert code_of(state, 2, 3, [1.0, 0.0, 0.05], params) == GAMMA

    def test_gamma_parallel_at_double_clearance(self):
        params = EmbedParams(alpha=0.002, beta=0.02, gamma=0.05, mode="practical")
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0],
                        [0.0, 2 * 0.05, 0], [2.0, 2 * 0.05, 0]])
        state = _PlacedState(L23, pts, params.beta)
        state.add_edge(0, 1, np.array([1.0, 0.0, 0.0]))
        w = np.array([1.0, 2 * 0.05, 0.0])
        # brute-force the clearance between the parallel curves
        t = np.linspace(0, 1, 10_001)
        placed = t[:, None] * np.array([2.0, 0, 0])
        cand = np.array([0.0, 0.1, 0]) + t[:, None] * np.array([2.0, 0, 0])
        gap = min(float(np.min(np.linalg.norm(placed - c, axis=1))) for c in cand[::100])
        assert gap == pytest.approx(0.1, abs=1e-9)
        assert code_of(state, 2, 3, w, params) == 0

    def test_clip_produces_at_most_three_pieces(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.normal(size=3)
            v = u + np.array([2.0, 0, 0]) + rng.normal(size=3) * 0.1
            w = 0.5 * (u + v) + rng.normal(size=3) * 0.2
            pieces, rows = _clip_curves(L23, u, v, w[None, :], 0.05)
            assert 1 <= len(pieces) <= 6 and np.all(rows == 0)
            for piece in pieces:
                # clipped pieces stay outside both endpoint balls
                for c in (u, v):
                    mid = 0.5 * (piece[0] + piece[1])
                    assert norm(L23, mid - c) >= 0.05 - 1e-9


class TestPlacement:
    def test_single_edge_first_candidate(self):
        ng = hand_edge()
        emb = place_edges(L23, ng, practical_params(beta=0.02, seed=1),
                          np.random.default_rng([1, 1]))
        assert len(emb.edge_list) == 1
        assert emb.attempts[0] == 1  # nothing to collide with
        u, w, v = emb.curve(0)
        assert norm(L23, w - 0.5 * (u + v)) <= 0.25 + 1e-12

    def test_dimension_guard(self):
        ng = build_net_graph(lp_space(2, 2), 1.0, 2.0)
        with pytest.raises(ValidationError):
            place_edges(lp_space(2, 2), ng, practical_params(),
                        np.random.default_rng(0))

    def test_unit_normalization_recorded(self, ball_emb):
        assert ball_emb.netgraph.net.rho == 1.0
        assert ball_emb.scale == pytest.approx(1.0 / (1.0 + 3 ** 0.5 / 4))
        # separation at least 1 after normalization
        pts = ball_emb.netgraph.points
        for i in range(pts.shape[0] - 1):
            assert np.all(norms(L23, pts[i + 1:] - pts[i]) >= 1.0 - 1e-12)

    def test_breakpoints_inside_mu_ball(self, ball_emb):
        pts = ball_emb.netgraph.points
        for j, (u, v) in enumerate(ball_emb.edge_list):
            z = 0.5 * (pts[u] + pts[v])
            assert norm(L23, ball_emb.breakpoints[j] - z) <= 0.25 + 1e-12

    def test_curve_lengths_within_bounds(self, ball_emb):
        pts = ball_emb.netgraph.points
        for j, (u, v) in enumerate(ball_emb.edge_list):
            length = ball_emb.curve_length(j)
            direct = norm(L23, pts[v] - pts[u])
            assert direct - 1e-12 <= length <= 3.5

    def test_posthoc_reverification(self, ball_emb):
        rep = verify_embedding(ball_emb)
        assert rep["ok"]
        assert rep["edges_checked"] == len(ball_emb.edge_list)

    def test_determinism(self):
        ng = hand_triangle()
        a = place_edges(L23, ng, practical_params(beta=0.02, seed=4),
                        np.random.default_rng([4, 1]))
        b = place_edges(L23, ng, practical_params(beta=0.02, seed=4),
                        np.random.default_rng([4, 1]))
        assert np.array_equal(a.breakpoints, b.breakpoints)

    def test_strict_placement_attempt_budget(self):
        ng = build_net_graph(L23, 1.0, 2.0)
        emb = place_edges(L23, ng, default_strict_params(3, seed=2),
                          np.random.default_rng([2, 1]), edge_limit=20)
        assert float(emb.attempts.mean()) <= 4.0
        assert verify_embedding(emb)["ok"]

    def test_space_must_match_net_graph(self):
        # curves certified in one norm but recorded under another would be
        # re-verified in a norm placement never used
        with pytest.raises(ValidationError):
            place_edges(lp_space(math.inf, 3), hand_edge(), practical_params(),
                        np.random.default_rng(0))

    def test_verify_names_first_failing_condition(self):
        # a breakpoint inside the beta ball of u fails alpha, tested first
        emb = PolylineEmbedding(
            netgraph=hand_edge(), params=practical_params(beta=0.02),
            edge_list=((0, 1),), breakpoints=np.array([[0.01, 0.0, 0.0]]),
            attempts=np.array([1]), scale=1.0)
        rep = verify_embedding(emb)
        assert not rep["ok"]
        assert rep["failures"] == [{"edge": [0, 1], "failed": ["alpha"]}]

    @pytest.mark.parametrize("at", [0, 1])
    def test_verify_reports_breakpoint_on_an_endpoint(self, triangle_emb, at):
        # a stored breakpoint equal to an endpoint fails alpha; recording its
        # sphere crossing must not divide by the zero segment length
        g = triangle_emb.netgraph
        breakpoints = triangle_emb.breakpoints.copy()
        breakpoints[0] = g.points[triangle_emb.edge_list[0][at]]
        emb = PolylineEmbedding(
            netgraph=g, params=triangle_emb.params,
            edge_list=triangle_emb.edge_list, breakpoints=breakpoints,
            attempts=triangle_emb.attempts, scale=triangle_emb.scale)
        rep = verify_embedding(emb)
        assert not rep["ok"] and rep["edges_checked"] == 3
        assert rep["failures"][0] == {"edge": list(emb.edge_list[0]),
                                      "failed": ["alpha"]}

    def test_linf_placement_never_runs_the_nested_search(self, monkeypatch):
        # this prefix sends a gamma pair past the l2 screen; the exact
        # polyhedral kernel must settle it
        def nested(*args, **kwargs):
            raise AssertionError("nested ternary search called")

        monkeypatch.setattr(spaces, "_segment_pairs_distance", nested)
        monkeypatch.setattr(embeddings, "_segment_pairs_distance", nested, raising=False)
        space = parse_space("lp:inf:3")
        ng = build_net_graph(space, 1.0, 2.0)
        emb = place_edges(space, ng, practical_params(beta=0.05, seed=1),
                          np.random.default_rng([1, 1]), edge_limit=45)
        assert verify_embedding(emb)["ok"]

    def test_retry_cap_reports_tally(self):
        # an impossible gamma forces the cap: two edges sharing both
        # endpoints is not constructible, so overlap via a tiny retry cap
        ng = hand_triangle()
        params = EmbedParams(alpha=0.9, beta=0.9, gamma=0.9, mu=0.25,
                             mode="practical", retry_cap=5)
        with pytest.raises(ValidationError):
            params.validate(3)  # beta >= mu is rejected upfront
        params = EmbedParams(alpha=0.2, beta=0.21, gamma=0.21, mu=0.25,
                             mode="practical", retry_cap=5)
        with pytest.raises(PlacementError) as err:
            place_edges(L23, ng, params, np.random.default_rng([5, 1]))
        assert sum(err.value.tally.values()) == 5


class TestThickenedMetric:
    def test_same_edge_offset(self):
        tg = ThickenedGraph(from_edges(2, [(0, 1)]))
        assert tg.distance(TGPoint(0, 0.2), TGPoint(0, 0.7)) == pytest.approx(0.5)

    def test_vertex_to_vertex_is_graph_distance(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        tg = ThickenedGraph(g)
        d = bfs_apsp(g)
        for u in range(4):
            for v in range(4):
                got = tg.distance(tg.vertex_point(u), tg.vertex_point(v))
                assert got == pytest.approx(float(d[u, v]), abs=1e-12)

    def test_adjacent_edges_route(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        tg = ThickenedGraph(g)
        # t=0.9 toward the shared vertex, then 0.1 into the next edge
        assert tg.distance(TGPoint(0, 0.9), TGPoint(1, 0.1)) == pytest.approx(0.2)

    def test_triangle_inequality_random_triples(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        tg = ThickenedGraph(g)
        rng = np.random.default_rng(6)
        e = g.edge_count
        pts = [TGPoint(int(i), float(t))
               for i, t in zip(rng.integers(0, e, 30_000), rng.uniform(0, 1, 30_000))]
        for k in range(10_000):
            p, q, r = pts[3 * k], pts[3 * k + 1], pts[3 * k + 2]
            assert (tg.distance(p, r)
                    <= tg.distance(p, q) + tg.distance(q, r) + 1e-9)

    def test_batched_distances_match_scalar_routes(self):
        g = build_net_graph(L23, 1.0, 2.0).graph
        tg = ThickenedGraph(g)
        rng = np.random.default_rng(6)
        e = rng.integers(0, g.edge_count, (500, 2))
        e[:50, 1] = e[:50, 0]                                   # shared edges
        t = rng.uniform(0, 1, (500, 2))
        t[50:60] = [[0.0, 1.0]] * 10
        got = tg.distances(e[:, 0], t[:, 0], e[:, 1], t[:, 1])
        for k in range(500):
            (pu, pv), (qu, qv) = g.edges[e[k, 0]], g.edges[e[k, 1]]
            best = abs(t[k, 0] - t[k, 1]) if e[k, 0] == e[k, 1] else math.inf
            for off_p, end_p in ((t[k, 0], pu), (1.0 - t[k, 0], pv)):
                for off_q, end_q in ((t[k, 1], qu), (1.0 - t[k, 1], qv)):
                    best = min(best, off_p + float(tg.hops[end_p, end_q]) + off_q)
            assert got[k] == best

    def test_parameter_range_validated(self):
        tg = ThickenedGraph(from_edges(2, [(0, 1)]))
        with pytest.raises(ValidationError):
            tg.distance(TGPoint(0, 1.2), TGPoint(0, 0.0))

    def test_module_level_wrapper(self):
        from netembed import tg_distance
        g = from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert tg_distance(g, TGPoint(0, 0.25), TGPoint(0, 0.75)) \
            == pytest.approx(0.5)
        ng = hand_triangle()
        assert tg_distance(ng, TGPoint(0, 0.0), TGPoint(1, 1.0)) \
            == pytest.approx(1.0)  # vertex 0 to vertex 2, one hop


class TestSubdivisionPositions:
    def test_endpoints_exact(self, triangle_emb):
        sub, pos = mg_positions(triangle_emb, 4)
        g = triangle_emb.netgraph.graph
        assert np.array_equal(pos[:g.n], triangle_emb.netgraph.points)

    def test_consecutive_arclength_gaps_equal(self):
        ng = hand_edge()
        emb = place_edges(L23, ng, practical_params(beta=0.02, seed=12),
                          np.random.default_rng([12, 1]))
        m_val = 4
        sub, pos = mg_positions(emb, m_val)
        u, w, v = emb.curve(0)
        length = emb.curve_length(0)
        chain = [u] + [pos[sub.interior_id(0, k)] for k in range(m_val - 1)] + [v]
        l1 = norm(L23, w - u)
        for a, b in zip(chain, chain[1:]):
            # arclength between consecutive images is exactly length/M:
            # either they share a segment or the gap routes through w
            direct = norm(L23, b - a)
            via_w = norm(L23, a - w) + norm(L23, w - b)
            got = min(direct if _same_side(a, b, u, w, v, L23) else math.inf,
                      via_w)
            assert got == pytest.approx(length / m_val, abs=1e-9)

    def test_breakpoint_hit_when_w_is_midpoint(self):
        ng = hand_edge()
        pts = ng.points
        w = np.array([1.0, 0.2, 0.0])
        # synthetic embedding with an equidistant breakpoint
        emb = PolylineEmbedding(
            netgraph=ng, params=practical_params(beta=0.02),
            edge_list=((0, 1),), breakpoints=w[None, :],
            attempts=np.array([1]), scale=1.0)
        assert norm(L23, pts[0] - w) == pytest.approx(norm(L23, pts[1] - w))
        sub, pos = mg_positions(emb, 2)
        assert np.allclose(pos[sub.interior_id(0, 0)], w, atol=1e-12)

    @pytest.mark.parametrize("m_val", [1, 2, 5, 9])
    def test_positions_match_point_at_bit_for_bit(self, ball_emb, m_val):
        sub, pos = mg_positions(ball_emb, m_val)
        for j in range(len(ball_emb.edge_list)):
            for k in range(1, m_val):
                assert np.array_equal(pos[sub.interior_id(j, k - 1)],
                                      ball_emb.point_at(j, k / m_val))

    @pytest.mark.parametrize("at", ["u", "v", None])
    def test_positions_match_scalar_arclength(self, ball_emb, at):
        emb = ball_emb
        if at is not None:  # a breakpoint on an endpoint: one zero-length segment
            emb = PolylineEmbedding(**{**emb.__dict__, "breakpoints": emb.breakpoints.copy()})
            u, v = emb.edge_list[0]
            emb.breakpoints[0] = emb.netgraph.points[u if at == "u" else v]
        rng = np.random.default_rng(4)
        edges = rng.integers(0, len(emb.edge_list), 300)
        edges[:4] = 0
        ts = np.concatenate([[0.0, 1.0, 0.3, 0.9], rng.uniform(0, 1, 296)])
        got = emb.positions(edges, ts)
        for k in range(len(ts)):
            assert np.array_equal(got[k], _scalar_point_at(emb, edges[k], ts[k]))

    def test_requires_full_embedding(self, ball_emb):
        ng = build_net_graph(L23, 1.0, 2.0)
        partial = place_edges(L23, ng, practical_params(beta=0.02, seed=3),
                              np.random.default_rng([3, 1]), edge_limit=3)
        with pytest.raises(ValidationError):
            mg_positions(partial, 4)

    def test_scaled_subdivision_metric_matches_tg(self):
        # (1/M) * d_MG  equals the thickened-graph distance on subdivision
        # points, for every M up to 8 on K3
        k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
        tg = ThickenedGraph(k3)
        for m_val in range(1, 9):
            sub = subdivide(k3, m_val)
            marks = subdivision_tg_points(sub, tg)
            hops = bfs_apsp(sub.graph)
            for i in range(sub.graph.n):
                for j in range(i + 1, sub.graph.n):
                    assert hops[i, j] / m_val == pytest.approx(
                        tg.distance(marks[i], marks[j]), abs=1e-12)


def _scalar_point_at(emb, j, t):
    """Arclength position written out one point at a time."""
    u, w, v = emb.curve(j)
    if t <= 0.0:
        return u
    if t >= 1.0:
        return v
    l1 = float(norms(emb.space, (w - u)[None, :])[0])
    l2 = float(norms(emb.space, (v - w)[None, :])[0])
    s = t * (l1 + l2)
    if s <= l1:
        return u + (s / l1) * (w - u)
    return w + ((s - l1) / l2) * (v - w)


def _same_side(a, b, u, w, v, space):
    """True when a and b lie on a common straight segment of the curve."""
    for s0, s1 in ((u, w), (w, v)):
        d0 = norm(space, a - s0) + norm(space, s1 - a) - norm(space, s1 - s0)
        d1 = norm(space, b - s0) + norm(space, s1 - b) - norm(space, s1 - s0)
        if abs(d0) < 1e-9 and abs(d1) < 1e-9:
            return True
    return False


class TestTgAudit:
    def test_bounds_hold(self, ball_emb):
        rep = audit_tg(ball_emb, 5000, np.random.default_rng([8, 2]))
        assert rep.forward_ok and rep.lip_forward <= 4.0
        assert rep.inverse_ok
        assert rep.inverse_bound == pytest.approx(1 + 6 / ball_emb.params.gamma)
        assert rep.max_curve_length <= 3.5
        assert rep.vertex_pairs == ball_emb.netgraph.graph.n * (
            ball_emb.netgraph.graph.n - 1) // 2

    def test_vertex_ratios_match_identity_audit(self, triangle_emb):
        rep = audit_tg(triangle_emb, 0, np.random.default_rng(0))
        pts = triangle_emb.netgraph.points
        hops = bfs_apsp(triangle_emb.netgraph.graph)
        want_f = max(norm(L23, pts[i] - pts[j]) / hops[i, j]
                     for i in range(3) for j in range(i + 1, 3))
        assert rep.lip_forward >= want_f - 1e-12


class TestMonteCarlo:
    def test_wilson_interval_known_values(self):
        center, half = wilson_interval(5, 10)
        # classical Wilson bounds for 5/10 at z = 1.96
        assert center - half == pytest.approx(0.2366, abs=2e-3)
        assert center + half == pytest.approx(0.7634, abs=2e-3)

    def test_first_edge_mostly_suitable_strict(self, ):
        ng = build_net_graph(L23, 1.0, 2.0)
        emb = place_edges(L23, ng, default_strict_params(3, seed=14),
                          np.random.default_rng([14, 1]), edge_limit=5)
        est = estimate_suitable_fraction(emb, 0, 20_000,
                                         np.random.default_rng([14, 2]))
        # only the beta exclusion applies: at least 3/4 minus noise
        assert est.fraction >= 0.75 - 3 * est.half_width

    def test_bad_edge_index(self, triangle_emb):
        with pytest.raises(ValidationError):
            estimate_suitable_fraction(triangle_emb, 99, 10,
                                       np.random.default_rng(0))


L3_CUSTOM = custom_space(3, lambda x: np.sum(np.abs(x) ** 3, axis=1) ** (1 / 3),
                         box_factor=1.0, vectorized=True)


class TestPredicateBlocks:
    @pytest.mark.parametrize("space", [parse_space("lp:2:3"), parse_space("lp:inf:3"),
                                       parse_space("l1sum:lp:2:2+lp:1:1"), L3_CUSTOM],
                             ids=["lp:2:3", "lp:inf:3", "l1sum", "custom"])
    def test_block_codes_match_single_calls(self, space):
        # the edge after the first vertex's star, against a prefix that
        # holds incident and non-incident curves
        params = practical_params(beta=0.05, seed=3)
        ng = build_net_graph(space, 1.0, 2.0)
        ng_unit, _ = rescaled_unit(ng)
        j = next(k for k, (a, _) in enumerate(ng_unit.graph.edges) if a != 0) + 1
        emb = place_edges(space, ng, params, np.random.default_rng([3, 1]),
                          edge_limit=j + 1)
        pts = emb.netgraph.points
        state = _PlacedState(space, pts, params.beta)
        for k in range(j):
            a, b = emb.edge_list[k]
            state.add_edge(a, b, emb.breakpoints[k])
        ui, vi = emb.edge_list[j]
        rng = np.random.default_rng(9)
        others = [k for k in range(len(pts)) if k not in (ui, vi)]
        far = [k for k in range(j) if ui not in emb.edge_list[k] and vi not in emb.edge_list[k]]
        ws = np.concatenate([
            sample_ball_many(space, 0.5 * (pts[ui] + pts[vi]), params.mu, 8, rng),
            pts[ui] + rng.uniform(-0.03, 0.03, (4, 3)),                    # alpha
            pts[rng.choice(others, 4)] + rng.uniform(-0.01, 0.01, (4, 3)),  # beta
            emb.breakpoints[rng.choice(far, 4)] + rng.uniform(-1e-3, 1e-3, (4, 3))])
        ws = ws[rng.permutation(len(ws))]
        codes = check_breakpoints(state, ui, vi, ws, params)
        assert set(codes.tolist()) == {0, ALPHA, BETA, GAMMA}
        alone = [check_breakpoints(state, ui, vi, w[None, :], params)[0] for w in ws]
        assert codes.tolist() == alone


def _oracle_norm(p, x):
    """The l_p norm (p = 1 or inf) of the rows of x, written out in numpy."""
    return np.max(np.abs(x), axis=-1) if p == math.inf else np.sum(np.abs(x), axis=-1)


def _dense_curve(u, w, v, k=300):
    t = np.linspace(0.0, 1.0, k)[:, None]
    return np.concatenate([u + t * (w - u), w + t * (v - w)])


# directions across the candidate curve, which runs roughly along x
_across = st.floats(0.0, 2 * math.pi).map(lambda a: np.array([0.0, math.cos(a), math.sin(a)]))


class TestCertification:
    """Whenever the predicate accepts, dense sampling of the curves shows the
    three clearances.  Sampled distances can only overestimate the true
    minima, so a sample under a threshold proves an uncertified accept.

    The configuration is built around the candidate curve so that each
    condition sits near its threshold: a vertex about beta from the curve,
    a straight placed curve about gamma from it, and a placed curve at u
    whose sphere crossing sits about alpha from the candidate's.  Scales
    below 1 put a condition over its threshold.
    """

    PARAMS = EmbedParams(alpha=0.02, beta=0.05, gamma=0.01, mode="practical")

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(p=st.sampled_from([math.inf, 1.0]),
           w_off=st.lists(st.floats(-0.2, 0.2), min_size=3, max_size=3),
           y_at=st.integers(30, 570), y_dir=_across, y_scale=st.floats(0.7, 2.0),
           c_at=st.integers(60, 540), c_dir=_across, c_scale=st.floats(0.7, 2.0),
           a_dir=_across, a_scale=st.floats(0.7, 3.0))
    def test_accepted_breakpoints_keep_their_clearances(
            self, p, w_off, y_at, y_dir, y_scale, c_at, c_dir, c_scale, a_dir,
            a_scale):
        prm = self.PARAMS
        alpha, beta, gamma = prm.alpha, prm.beta, prm.gamma
        space = lp_space(p, 3)
        u, v = np.zeros(3), np.array([2.0, 0.0, 0.0])
        w = np.array([1.0, 0.0, 0.0]) + np.array(w_off)
        curve = _dense_curve(u, w, v)
        y = curve[y_at] + beta * y_scale * y_dir / _oracle_norm(p, y_dir)
        c_off = np.array([0.0, -c_dir[2], c_dir[1]])  # across both curves
        w2 = curve[c_at] + gamma * c_scale * c_off / _oracle_norm(p, c_off)
        a2, b2 = w2 - c_dir, w2 + c_dir
        e = (w - u) / _oracle_norm(p, w - u)
        w3 = u + 0.5 * (e + (alpha / beta) * a_scale * a_dir / _oracle_norm(p, a_dir))
        z = u + 2.0 * (w3 - u)
        pts = np.stack([u, v, y, a2, b2, z])
        state = _PlacedState(space, pts, beta)
        state.add_edge(3, 4, w2)
        state.add_edge(0, 5, w3)
        code = int(check_breakpoints(state, 0, 1, w[None, :], prm)[0])
        event(f"p={p} code={code}")
        if code:
            return
        # alpha: far segments clear of the endpoint balls, crossings apart
        assert _oracle_norm(p, _dense_curve(w, v, v) - u).min() >= beta
        assert _oracle_norm(p, _dense_curve(u, w, w) - v).min() >= beta
        x = u + beta * (w - u) / _oracle_norm(p, w - u)
        x3 = u + beta * (w3 - u) / _oracle_norm(p, w3 - u)
        assert _oracle_norm(p, x - x3) >= alpha
        # beta: every other vertex clear of the whole curve
        for q in pts[2:]:
            assert _oracle_norm(p, curve - q).min() >= beta
        # gamma: pairs with a point outside its own endpoint balls
        out = (_oracle_norm(p, curve - u) >= beta) & (_oracle_norm(p, curve - v) >= beta)
        for a, wp, b in ((a2, w2, b2), (u, w3, z)):
            other = _dense_curve(a, wp, b)
            other_out = ((_oracle_norm(p, other - a) >= beta)
                         & (_oracle_norm(p, other - b) >= beta))
            gaps = _oracle_norm(p, curve[:, None, :] - other[None, :, :])
            assert gaps[out[:, None] | other_out[None, :]].min() >= gamma


class TestSerialization:
    def test_roundtrip(self, triangle_emb):
        again = embedding_from_json(embedding_to_json(triangle_emb))
        assert again.edge_list == triangle_emb.edge_list
        assert np.array_equal(again.breakpoints, triangle_emb.breakpoints)
        assert again.params == triangle_emb.params
        assert again.scale == triangle_emb.scale
