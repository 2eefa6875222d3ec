import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from netembed import (EmbedParams, Net, PlacementError, PolylineEmbedding,
                      ValidationError, audit_tg, build_net_graph, custom_space,
                      default_strict_params, embedding_from_json,
                      embedding_to_json, estimate_suitable_fraction,
                      from_edges, lp_space, mg_positions, net_graph_from_net,
                      norms, parse_space, place_edges, practical_params,
                      rescaled_unit, sample_ball_many,
                      subdivide, subdivision_tg_points, tg_distances,
                      verify_embedding, wilson_interval)
from netembed import cli, embeddings, spaces
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
    return place_edges(ng, practical_params(beta=0.02, seed=21))


@pytest.fixture(scope="module")
def ball_emb():
    ng = build_net_graph(L23, 1.0, 2.0)
    return place_edges(ng, practical_params(beta=0.02, seed=8))


class TestParams:
    def test_strict_defaults_match_required_chain(self):
        p = default_strict_params()
        assert p.mu == 0.25
        assert p.beta == pytest.approx(1 / 2184)          # mu/546
        assert p.beta == pytest.approx(4.5788e-4, rel=1e-4)
        assert p.alpha == pytest.approx(p.beta / 1232)
        assert p.alpha == pytest.approx(3.7166e-7, rel=1e-4)
        assert p.gamma <= p.alpha
        assert p.gamma <= p.beta / 20
        assert p.gamma <= (p.beta * p.mu) ** 2 / 968 * (1 + 1e-12)
        p.validate(3)

    def test_practical_needs_ordering(self):
        with pytest.raises(ValidationError):
            EmbedParams(alpha=0.1, beta=0.02, gamma=0.5, mode="practical").validate(3)

    def test_mu_guard(self):
        with pytest.raises(ValidationError):
            EmbedParams(alpha=1e-3, beta=1e-2, gamma=1e-3, mu=0.0).validate(3)


def code_of(state, edge, w, params):
    """The predicate's answer for a single candidate breakpoint of the edge
    with index edge in the state's construction order."""
    return int(check_breakpoints(state, edge, np.asarray(w, float)[None, :], params)[0])


class TestChecks:
    def test_alpha_no_placed_edges(self):
        params = practical_params(beta=0.1, seed=0)
        state = _PlacedState(L23, np.array([[0.0, 0, 0], [2.0, 0, 0]]), [(0, 1)], params.beta)
        assert code_of(state, 0, [1.0, 0.1, 0.0], params) == 0

    def test_alpha_opposite_directions_clear(self):
        # placed edge leaves the shared vertex along +x, candidate along -x:
        # the two crossings of the 0.1-sphere sit about 0.2 apart
        params = EmbedParams(alpha=0.01, beta=0.1, gamma=0.001, mode="practical")
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [-2.0, 0, 0]])
        state = _PlacedState(L23, pts, [(0, 1), (0, 2)], params.beta)
        state.add_edges(np.array([[1.0, 0.1, 0.0]]))
        assert code_of(state, 1, [-1.0, 0.0, 0.1], params) == 0

    def test_alpha_duplicate_segment_fails(self):
        # the duplicate also fails gamma; alpha is reported, being first
        params = EmbedParams(alpha=0.01, beta=0.1, gamma=0.001, mode="practical")
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        state = _PlacedState(L23, pts, [(0, 1), (0, 1)], params.beta)
        w = np.array([1.0, 0.1, 0.0])
        state.add_edges(w[None, :])
        assert code_of(state, 1, w, params) == ALPHA

    def test_beta_far_configuration(self):
        params = practical_params(beta=0.02)
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [50.0, 50.0, 50.0]])
        state = _PlacedState(L23, pts, [(0, 1)], params.beta)
        assert code_of(state, 0, [1.0, 0.2, 0], params) == 0

    def test_beta_vertex_on_segment_fails(self):
        params = practical_params(beta=0.02)
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0.5, 0.0, 0.0]])  # on [u, w]
        state = _PlacedState(L23, pts, [(0, 1)], params.beta)
        assert code_of(state, 0, [1.0, 0.0, 0], params) == BETA

    def test_beta_margin_just_over(self):
        # vertex at distance beta * 1.01 from the curve passes
        params = practical_params(beta=0.02)
        w = np.array([1.0, 0.0, 0])
        y = np.array([0.5, params.beta * 1.01, 0.0])
        # cross-check the distance with a dense grid
        t = np.linspace(0, 1, 200_001)
        gap = float(np.min(np.linalg.norm(t[:, None] * w - y, axis=1)))
        assert gap == pytest.approx(params.beta * 1.01, abs=1e-9)
        state = _PlacedState(L23, np.array([[0.0, 0, 0], [2.0, 0, 0], y]), [(0, 1)],
                             params.beta)
        assert code_of(state, 0, w, params) == 0

    def test_beta_vertex_far_from_u_fails(self):
        # mu = 6 lets the curve reach vertex 2, 6.28 from u: it passes 0.1
        # from it, under beta
        params = EmbedParams(alpha=0.02, beta=0.2, gamma=0.01, mu=6.0)
        params.validate(3)
        pts = np.array([[0.0, 0, 0], [3.0, 0, 0], [1.5, 6.1, 0]])
        state = _PlacedState(L23, pts, [(0, 1)], params.beta)
        assert code_of(state, 0, [1.5, 6.0, 0], params) == BETA

    def test_gamma_no_placed_edges(self):
        params = practical_params(beta=0.02)
        state = _PlacedState(L23, np.array([[0.0, 0, 0], [2.0, 0, 0]]), [(0, 1)], params.beta)
        assert code_of(state, 0, [1.0, 0.1, 0], params) == 0

    def test_gamma_crossing_fails(self):
        params = EmbedParams(alpha=0.002, beta=0.02, gamma=0.2, mode="practical")
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0],
                        [1.0, -1.0, 0.05], [1.0, 1.0, 0.05]])
        state = _PlacedState(L23, pts, [(0, 1), (2, 3)], params.beta)
        state.add_edges(np.array([[1.0, 0.0, 0.1]]))
        # candidate curve passes within ~0.07 of the placed one, under gamma
        assert code_of(state, 1, [1.0, 0.0, 0.05], params) == GAMMA

    def test_gamma_parallel_at_double_clearance(self):
        params = EmbedParams(alpha=0.002, beta=0.02, gamma=0.05, mode="practical")
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0],
                        [0.0, 2 * 0.05, 0], [2.0, 2 * 0.05, 0]])
        state = _PlacedState(L23, pts, [(0, 1), (2, 3)], params.beta)
        state.add_edges(np.array([[1.0, 0.0, 0.0]]))
        w = np.array([1.0, 2 * 0.05, 0.0])
        # brute-force the clearance between the parallel curves
        t = np.linspace(0, 1, 10_001)
        placed = t[:, None] * np.array([2.0, 0, 0])
        cand = np.array([0.0, 0.1, 0]) + t[:, None] * np.array([2.0, 0, 0])
        gap = min(float(np.min(np.linalg.norm(placed - c, axis=1))) for c in cand[::100])
        assert gap == pytest.approx(0.1, abs=1e-9)
        assert code_of(state, 1, w, params) == 0

    def test_clip_produces_at_most_three_pieces(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.normal(size=3)
            v = u + np.array([2.0, 0, 0]) + rng.normal(size=3) * 0.1
            w = 0.5 * (u + v) + rng.normal(size=3) * 0.2
            pieces, rows = _clip_curves(L23, u[None, :], v[None, :], w[None, :], 0.05)
            assert 1 <= len(pieces) <= 6 and np.all(rows == 0)
            # clipped pieces stay outside both endpoint balls
            mids = 0.5 * (pieces[:, 0] + pieces[:, 1])
            for c in (u, v):
                assert np.all(norms(L23, mids - c) >= 0.05 - 1e-9)


def tolerance_case(condition, margin):
    """(state, edge, w) whose distance for one condition is its constraint
    plus margin, every other distance clearing its constraint plus
    TestTolerance.TOL by far: PARAMS' alpha 0.1, beta 0.2, gamma 0.01."""
    u, v, x = np.zeros(3), np.array([2.0, 0, 0]), np.array([1.0, 0, 0])
    if condition == "alpha ball":  # |w - u|
        return _PlacedState(L23, np.stack([u, v]), [(0, 1)], 0.2), 0, [0, 0.2 + margin, 0]
    if condition == "alpha far segment":  # [w, v] from u; w is 1.06 from u
        d = 0.2 + margin
        h = 3 * d / math.sqrt(4 - d * d)  # the line through (-1, h) and v passes d from u
        return _PlacedState(L23, np.stack([u, v]), [(0, 1)], 0.2), 0, [-1.0, h, 0]
    if condition == "alpha crossing":  # the crossings of the two curves at u
        theta = 2 * math.asin((0.1 + margin) / 0.4)  # chord of the 0.2-sphere
        z = 2 * np.array([math.cos(theta), math.sin(theta), 0])
        state = _PlacedState(L23, np.stack([u, v, z]), [(0, 1), (0, 2)], 0.2)
        state.add_edges(x[None, :])
        return state, 1, z / 2
    if condition == "beta":  # vertex y from [u, w]
        y = np.array([1.0, 0.2 + margin, 0])
        return _PlacedState(L23, np.stack([u, v, y]), [(0, 1)], 0.2), 0, x
    a, b = np.array([1.0, -1, 0.01 + margin]), np.array([1.0, 1, 0.01 + margin])
    state = _PlacedState(L23, np.stack([u, v, a, b]), [(0, 1), (2, 3)], 0.2)
    state.add_edges(x[None, :])  # gamma: the curve across [u, v], above x
    return state, 1, (a + b) / 2


class TestTolerance:
    """Each comparison of _check_block needs the constraint plus the
    tolerance: with a tolerance large enough to see, a candidate half a
    tolerance over the constraint fails, and one two tolerances over passes."""

    TOL = 0.05
    PARAMS = EmbedParams(alpha=0.1, beta=0.2, gamma=0.01, tolerance=TOL)

    @pytest.mark.parametrize("condition, code", [
        ("alpha ball", ALPHA), ("alpha far segment", ALPHA), ("alpha crossing", ALPHA),
        ("beta", BETA), ("gamma", GAMMA)])
    def test_half_a_tolerance_over_fails(self, condition, code):
        assert code_of(*tolerance_case(condition, self.TOL / 2), self.PARAMS) == code
        assert code_of(*tolerance_case(condition, 2 * self.TOL), self.PARAMS) == 0


class TestPlacement:
    def test_single_edge_first_candidate(self):
        ng = hand_edge()
        emb = place_edges(ng, practical_params(beta=0.02, seed=1))
        assert len(emb.ends) == 1
        assert emb.attempts[0] == 1  # nothing to collide with
        u, w, v = _curve(emb, 0)
        assert norms(L23, (w - 0.5 * (u + v))[None])[0] <= 0.25 + 1e-12

    def test_dimension_guard(self):
        ng = build_net_graph(lp_space(2, 2), 1.0, 2.0)
        with pytest.raises(ValidationError):
            place_edges(ng, practical_params())

    def test_unit_normalization_recorded(self, ball_emb):
        assert ball_emb.netgraph.net.rho == 1.0
        assert ball_emb.scale == pytest.approx(1.0 / (1.0 + 3 ** 0.5 / 4))
        # separation at least 1 after normalization
        pts = ball_emb.netgraph.points
        for i in range(pts.shape[0] - 1):
            assert np.all(norms(L23, pts[i + 1:] - pts[i]) >= 1.0 - 1e-12)

    def test_breakpoints_inside_mu_ball(self, ball_emb):
        pts, ends = ball_emb.netgraph.points, ball_emb.ends
        z = 0.5 * (pts[ends[:, 0]] + pts[ends[:, 1]])
        assert np.all(norms(L23, ball_emb.breakpoints - z) <= 0.25 + 1e-12)

    def test_curve_lengths_within_bounds(self, ball_emb):
        pts, ends = ball_emb.netgraph.points, ball_emb.ends
        u, w, v = pts[ends[:, 0]], ball_emb.breakpoints, pts[ends[:, 1]]
        length = norms(L23, w - u) + norms(L23, v - w)
        direct = norms(L23, v - u)
        assert np.all((direct - 1e-12 <= length) & (length <= 3.5))

    def test_posthoc_reverification(self, ball_emb):
        rep = verify_embedding(ball_emb)
        assert rep["ok"]
        assert rep["edges_checked"] == len(ball_emb.ends)

    def test_determinism(self):
        ng = hand_triangle()
        a = place_edges(ng, practical_params(beta=0.02, seed=4))
        b = place_edges(ng, practical_params(beta=0.02, seed=4))
        assert np.array_equal(a.breakpoints, b.breakpoints)

    def test_strict_placement_attempt_budget(self):
        ng = build_net_graph(L23, 1.0, 2.0)
        emb = place_edges(ng, default_strict_params(seed=2), edge_limit=20)
        assert float(emb.attempts.mean()) <= 4.0
        assert verify_embedding(emb)["ok"]

    def test_verify_names_first_failing_condition(self):
        # a breakpoint inside the beta ball of u fails alpha, tested first
        emb = PolylineEmbedding(
            netgraph=hand_edge(), params=practical_params(beta=0.02),
            breakpoints=np.array([[0.01, 0.0, 0.0]]),
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
        breakpoints[0] = g.points[triangle_emb.ends[0][at]]
        emb = PolylineEmbedding(
            netgraph=g, params=triangle_emb.params, breakpoints=breakpoints,
            attempts=triangle_emb.attempts, scale=triangle_emb.scale)
        rep = verify_embedding(emb)
        assert not rep["ok"] and rep["edges_checked"] == 3
        assert rep["failures"][0] == {"edge": emb.ends[0].tolist(),
                                      "failed": ["alpha"]}

    def test_linf_placement_never_runs_the_nested_search(self, monkeypatch):
        # this prefix sends a gamma pair past the l2 screen; the exact
        # polyhedral kernel must settle it
        def nested(*args, **kwargs):
            raise AssertionError("nested ternary search called")

        monkeypatch.setattr(spaces, "_segment_pairs_search", nested)
        space = parse_space("lp:inf:3")
        ng = build_net_graph(space, 1.0, 2.0)
        emb = place_edges(ng, practical_params(beta=0.05, seed=1), edge_limit=45)
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
                             mode="practical", retry_cap=5, seed=5)
        with pytest.raises(PlacementError) as err:
            place_edges(ng, params)
        assert sum(err.value.tally.values()) == 5

    def test_default_retry_cap_in_logarithmically_many_checks(self, monkeypatch):
        # vertex 2 is the midpoint of edge (0, 1), and every curve through
        # the mu ball around it passes within mu / sqrt(1 + mu^2) < beta of
        # it: edge (0, 1) rejects all its candidates
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
        ng = net_graph_from_net(Net(L23, 1.0, 2.1, pts, 1.0))
        params = EmbedParams(alpha=0.01, beta=0.0999, gamma=0.01, mu=0.1, mode="practical",
                             seed=5)
        blocks = []
        check_block = embeddings._check_block
        monkeypatch.setattr(embeddings, "_check_block",
                            lambda *args: blocks.append(1) or check_block(*args))
        with pytest.raises(PlacementError) as err:
            place_edges(ng, params)
        assert err.value.edge == (0, 1) and err.value.attempts == params.retry_cap == 10_000
        assert err.value.tally == {"alpha": 0, "beta": 10_000, "gamma": 0}
        # doubling draws of 2, 4, 8, ... candidates, then the re-check
        assert len(blocks) <= 2 * math.log2(params.retry_cap)


def tg_distance(g, p, q):
    """The thickened-graph distance between the points p = (edge, t) and q,
    as a one-row tg_distances call."""
    return float(tg_distances(g, [p[0]], [p[1]], [q[0]], [q[1]])[0])


def tg_point_rows(sub):
    """subdivision_tg_points of every vertex as a list of (edge, t) pairs."""
    return list(zip(*(a.tolist() for a in subdivision_tg_points(sub, np.arange(sub.n)))))


def reference_tg_points(sub):
    """Per-vertex reference for subdivision_tg_points: a base vertex at its
    end of the first edge (in edge order) that it ends, step k of chain j
    at (j, k/M)."""
    incident = {}
    for j, (a, b) in enumerate(sub.base.ends.tolist()):
        incident.setdefault(a, (j, 0.0))
        incident.setdefault(b, (j, 1.0))
    out = [incident[u] for u in range(sub.base.n)]
    for j in range(sub.base.edge_count):
        out += [(j, k / sub.M) for k in range(1, sub.M)]
    return out


class TestThickenedMetric:
    def test_same_edge_offset(self):
        g = from_edges(2, [(0, 1)])
        assert tg_distance(g, (0, 0.2), (0, 0.7)) == pytest.approx(0.5)

    def test_vertex_to_vertex_is_graph_distance(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        marks = tg_point_rows(subdivide(g, 1))  # the vertices' points
        for u in range(4):
            for v in range(4):
                got = tg_distance(g, marks[u], marks[v])
                assert got == pytest.approx(float(g.hops[u, v]), abs=1e-12)

    def test_adjacent_edges_route(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        # t=0.9 toward the shared vertex, then 0.1 into the next edge
        assert tg_distance(g, (0, 0.9), (1, 0.1)) == pytest.approx(0.2)

    def test_triangle_inequality_random_triples(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        rng = np.random.default_rng(6)
        e = rng.integers(0, g.edge_count, (10_000, 3))
        t = rng.uniform(0, 1, (10_000, 3))

        def d(a, b):
            return tg_distances(g, e[:, a], t[:, a], e[:, b], t[:, b])
        assert np.all(d(0, 2) <= d(0, 1) + d(1, 2) + 1e-9)

    def test_batched_distances_match_scalar_routes(self):
        g = build_net_graph(L23, 1.0, 2.0).graph
        rng = np.random.default_rng(6)
        e = rng.integers(0, g.edge_count, (500, 2))
        e[:50, 1] = e[:50, 0]                                   # shared edges
        t = rng.uniform(0, 1, (500, 2))
        t[50:60] = [[0.0, 1.0]] * 10
        got = tg_distances(g, e[:, 0], t[:, 0], e[:, 1], t[:, 1])
        for k in range(500):
            (pu, pv), (qu, qv) = g.ends[e[k, 0]], g.ends[e[k, 1]]
            best = abs(t[k, 0] - t[k, 1]) if e[k, 0] == e[k, 1] else math.inf
            for off_p, end_p in ((t[k, 0], pu), (1.0 - t[k, 0], pv)):
                for off_q, end_q in ((t[k, 1], qu), (1.0 - t[k, 1], qv)):
                    best = min(best, off_p + float(g.hops[end_p, end_q]) + off_q)
            assert got[k] == best

    def test_parameter_range_validated(self):
        g = from_edges(2, [(0, 1)])
        with pytest.raises(ValidationError):
            tg_distance(g, (0, 1.2), (0, 0.0))

    @pytest.mark.parametrize("bad", [-1, -2, 2, 3])
    def test_edge_index_out_of_range(self, bad):
        # on the path 0-1-2 a negative index used to wrap around to the
        # last edge: edge -1 answered as edge 1
        g = from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValidationError, match="edge index out of range"):
            tg_distances(g, [bad], [0.5], [0], [0.5])
        with pytest.raises(ValidationError, match="edge index out of range"):
            tg_distances(g, [0, 1], [0.5, 0.5], [1, bad], [0.5, 0.5])

    def test_triangle_points(self):
        g = from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert tg_distance(g, (0, 0.25), (0, 0.75)) == pytest.approx(0.5)
        g = hand_triangle().graph
        assert tg_distance(g, (0, 0.0), (1, 1.0)) \
            == pytest.approx(1.0)  # vertex 0 to vertex 2, one hop


def four_route_tg(g, e1, t1, e2, t2):
    """The thickened-graph distances as four sums through the edges' ends,
    (off_p + hops) + off_q, and the same-edge route."""
    p, q = g.ends[e1], g.ends[e2]
    best = np.where(e1 == e2, np.abs(t1 - t2), math.inf)
    for off_p, end_p in ((t1, p[:, 0]), (1.0 - t1, p[:, 1])):
        for off_q, end_q in ((t2, q[:, 0]), (1.0 - t2, q[:, 1])):
            best = np.minimum(best, off_p + g.hops[end_p, end_q] + off_q)
    return best


class TestTwoStageTg:
    def test_keeps_the_bits_of_the_four_route_sum(self):
        # the chain stage, run to the second point's edge ends and then to
        # the point, adds in the order of the four sums
        g = build_net_graph(L23, 1.0, 2.0).graph
        rng = np.random.default_rng(12)
        e = rng.integers(0, g.edge_count, (200_000, 2))
        e[:20_000, 1] = e[:20_000, 0]
        t = rng.uniform(0, 1, (200_000, 2))
        steps = rng.random(t.shape) < 0.2  # subdivision points and ends
        t[steps] = rng.integers(0, 8, steps.sum()) / 7
        got = tg_distances(g, e[:, 0], t[:, 0], e[:, 1], t[:, 1])
        want = four_route_tg(g, e[:, 0], t[:, 0], e[:, 1], t[:, 1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSubdivisionPositions:
    def test_endpoints_exact(self, triangle_emb):
        sub, pos = mg_positions(triangle_emb, 4)
        g = triangle_emb.netgraph.graph
        assert np.array_equal(pos[:g.n], triangle_emb.netgraph.points)

    def test_consecutive_arclength_gaps_equal(self):
        ng = hand_edge()
        emb = place_edges(ng, practical_params(beta=0.02, seed=12))
        m_val = 4
        sub, pos = mg_positions(emb, m_val)
        u, w, v = _curve(emb, 0)
        length = norms(L23, np.stack([w - u, v - w])).sum()
        chain = np.concatenate([[u], pos[sub.interior[0]], [v]])
        for a, b in zip(chain, chain[1:]):
            # arclength between consecutive images is exactly length/M:
            # either they share a segment or the gap routes through w
            direct = norms(L23, (b - a)[None])[0]
            via_w = norms(L23, np.stack([a - w, w - b])).sum()
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
            breakpoints=w[None, :],
            attempts=np.array([1]), scale=1.0)
        d0, d1 = norms(L23, pts[:2] - w)
        assert d0 == pytest.approx(d1)
        sub, pos = mg_positions(emb, 2)
        assert np.allclose(pos[sub.interior[0, 0]], w, atol=1e-12)

    @pytest.mark.parametrize("m_val", [1, 2, 5, 9])
    def test_mg_positions_match_one_row_positions(self, ball_emb, m_val):
        sub, pos = mg_positions(ball_emb, m_val)
        for j in range(len(ball_emb.ends)):
            for k in range(1, m_val):
                one = ball_emb.positions(np.array([j]), np.array([k / m_val]))[0]
                assert np.array_equal(pos[sub.interior[j, k - 1]], one)

    @pytest.mark.parametrize("at", ["u", "v", None])
    def test_positions_match_scalar_arclength(self, ball_emb, at):
        emb = ball_emb
        if at is not None:  # a breakpoint on an endpoint: one zero-length segment
            emb = PolylineEmbedding(**{**emb.__dict__, "breakpoints": emb.breakpoints.copy()})
            u, v = emb.ends[0]
            emb.breakpoints[0] = emb.netgraph.points[u if at == "u" else v]
        rng = np.random.default_rng(4)
        edges = rng.integers(0, len(emb.ends), 300)
        edges[:4] = 0
        ts = np.concatenate([[0.0, 1.0, 0.3, 0.9], rng.uniform(0, 1, 296)])
        got = emb.positions(edges, ts)
        for k in range(len(ts)):
            assert np.array_equal(got[k], _scalar_point_at(emb, edges[k], ts[k]))

    @pytest.mark.parametrize("bad", [-1, "placed"])
    def test_edge_index_out_of_range(self, ball_emb, bad):
        # a negative index used to wrap around to the last placed edge
        placed = len(ball_emb.breakpoints)
        bad = placed if bad == "placed" else bad
        with pytest.raises(ValidationError, match="edge index out of range"):
            ball_emb.positions(np.array([0, bad]), np.array([0.5, 0.5]))

    def test_requires_full_embedding(self, ball_emb):
        ng = build_net_graph(L23, 1.0, 2.0)
        partial = place_edges(ng, practical_params(beta=0.02, seed=3), edge_limit=3)
        with pytest.raises(ValidationError):
            mg_positions(partial, 4)

    def test_scaled_subdivision_metric_matches_tg(self):
        # (1/M) * d_MG  equals the thickened-graph distance on subdivision
        # points, for every M up to 8 on K3
        k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
        for m_val in range(1, 9):
            sub = subdivide(k3, m_val)
            marks = tg_point_rows(sub)
            hops = sub.graph.hops
            for i in range(sub.graph.n):
                for j in range(i + 1, sub.graph.n):
                    assert hops[i, j] / m_val == pytest.approx(
                        tg_distance(k3, marks[i], marks[j]), abs=1e-12)

    def test_tg_points_match_per_vertex_reference(self):
        k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
        for m_val in range(1, 9):
            sub = subdivide(k3, m_val)
            edges, ts = subdivision_tg_points(sub, np.arange(sub.n))
            assert edges.dtype == np.int64 and ts.dtype == np.float64
            assert tg_point_rows(sub) == reference_tg_points(sub)

    def test_tg_points_random_graphs(self):
        # every vertex of a random connected graph, in any edge order
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            extra = rng.integers(0, n, (int(rng.integers(0, 10)), 2))
            pairs += [(int(a), int(b)) for a, b in extra if a != b]
            g = from_edges(n, list({tuple(sorted(p)) for p in pairs}))
            sub = subdivide(g, int(rng.integers(1, 5)))
            assert tg_point_rows(sub) == reference_tg_points(sub)

    def test_tg_points_reject_a_vertex_on_no_edge(self):
        # vertex 3 ends no edge: its row would be missing, and every later
        # row would shift by one
        sub = subdivide(from_edges(4, [(0, 1), (0, 2)]), 3)
        with pytest.raises(ValidationError, match="every base vertex must end an edge"):
            subdivision_tg_points(sub, np.arange(sub.n))


def _curve(emb, j):
    """The points u, w_j, v of the curve of edge j = (u, v)."""
    u, v = emb.ends[j]
    pts = emb.netgraph.points
    return pts[u], emb.breakpoints[j], pts[v]


def _scalar_point_at(emb, j, t):
    """Arclength position written out one point at a time."""
    u, w, v = _curve(emb, j)
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
        # the triangle-inequality slack of a and of b on [s0, s1]
        slack = (norms(space, np.stack([a - s0, b - s0])) + norms(space, np.stack([s1 - a, s1 - b]))
                 - norms(space, (s1 - s0)[None]))
        if np.all(np.abs(slack) < 1e-9):
            return True
    return False


def loop_vertex_ratios(emb):
    """Row-by-row reference for audit_tg's vertex pairs:
    (lip_forward, lip_inverse, pairs)."""
    space, pts = emb.space, emb.netgraph.points
    hops = emb.netgraph.graph.hops.astype(np.float64)
    lip_f = lip_i = 0.0
    pairs = 0
    for i in range(len(pts)):
        d_img = norms(space, pts[i + 1:] - pts[i])
        d_tg = hops[i, i + 1:]
        pairs += d_img.size
        if d_img.size:
            lip_f = max(lip_f, float(np.max(d_img / d_tg)))
            lip_i = max(lip_i, float(np.max(d_tg / d_img)))
    return lip_f, lip_i, pairs


class TestTgAudit:
    def test_bounds_hold(self, ball_emb):
        rep = audit_tg(ball_emb, 5000, np.random.default_rng([8, 2]))
        assert rep.forward_ok and rep.lip_forward <= 4.0
        assert rep.inverse_ok
        assert rep.inverse_bound == pytest.approx(1 + 6 / ball_emb.params.gamma)
        assert rep.max_curve_length <= 3.5
        assert rep.vertex_pairs == ball_emb.netgraph.graph.n * (
            ball_emb.netgraph.graph.n - 1) // 2

    @pytest.mark.parametrize("desc", ["lp:2:3", "lp:inf:3", "lp:1:3", "l1sum:lp:2:2+lp:1:1"])
    def test_max_curve_length_is_the_longest_curve(self, desc):
        # the batched lengths over all edges keep the bits of one-row
        # lengths; the breakpoints are arbitrary, as audit_tg does not
        # re-verify them
        space = parse_space(desc)
        ng = build_net_graph(space, 1.0, 2.0)  # 15 to 57 points
        rng = np.random.default_rng(len(desc))
        edges = ng.graph.ends
        emb = PolylineEmbedding(ng, practical_params(),
                                rng.normal(size=(len(edges), space.dim)) * 3,
                                np.ones(len(edges), dtype=np.int64), 1.0)
        rep = audit_tg(emb, 0, rng)
        one_row = [float(norms(space, (w - u)[None])[0]) + float(norms(space, (v - w)[None])[0])
                   for u, w, v in (_curve(emb, j) for j in range(len(edges)))]
        assert rep.max_curve_length == max(one_row)

    def test_vertex_ratios_match_identity_audit(self, triangle_emb, ball_emb):
        rep = audit_tg(triangle_emb, 0, np.random.default_rng(0))
        pts = triangle_emb.netgraph.points
        hops = triangle_emb.netgraph.graph.hops
        i, j = np.triu_indices(3, 1)
        want_f = np.max(norms(L23, pts[i] - pts[j]) / hops[i, j])
        assert rep.lip_forward >= want_f - 1e-12
        for emb in (triangle_emb, ball_emb):
            rep = audit_tg(emb, 0, np.random.default_rng(0))
            assert (rep.lip_forward, rep.lip_inverse, rep.vertex_pairs) == \
                loop_vertex_ratios(emb)


class TestMonteCarlo:
    def test_wilson_interval_known_values(self):
        center, half = wilson_interval(5, 10)
        # classical Wilson bounds for 5/10 at z = 1.96
        assert center - half == pytest.approx(0.2366, abs=2e-3)
        assert center + half == pytest.approx(0.7634, abs=2e-3)

    def test_first_edge_mostly_suitable_strict(self, ):
        ng = build_net_graph(L23, 1.0, 2.0)
        emb = place_edges(ng, default_strict_params(seed=14), edge_limit=5)
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
        j = next(k for k, (a, _) in enumerate(ng_unit.graph.ends) if a != 0) + 1
        emb = place_edges(ng, params, edge_limit=j + 1)
        pts = emb.netgraph.points
        state = _PlacedState(space, pts, emb.ends, params.beta)
        state.add_edges(emb.breakpoints[:j])
        ui, vi = emb.ends[j]
        rng = np.random.default_rng(9)
        others = [k for k in range(len(pts)) if k not in (ui, vi)]
        far = [k for k in range(j) if ui not in emb.ends[k] and vi not in emb.ends[k]]
        ws = np.concatenate([
            sample_ball_many(space, 0.5 * (pts[ui] + pts[vi]), params.mu, 8, rng),
            pts[ui] + rng.uniform(-0.03, 0.03, (4, 3)),                    # alpha
            pts[rng.choice(others, 4)] + rng.uniform(-0.01, 0.01, (4, 3)),  # beta
            emb.breakpoints[rng.choice(far, 4)] + rng.uniform(-1e-3, 1e-3, (4, 3))])
        ws = ws[rng.permutation(len(ws))]
        codes = check_breakpoints(state, j, ws, params)
        assert set(codes.tolist()) == {0, ALPHA, BETA, GAMMA}
        alone = [check_breakpoints(state, j, w[None, :], params)[0] for w in ws]
        assert codes.tolist() == alone


SPACES = pytest.mark.parametrize(
    "space", [parse_space("lp:2:3"), parse_space("lp:inf:3"),
              parse_space("l1sum:lp:2:2+lp:1:1"), L3_CUSTOM],
    ids=["lp:2:3", "lp:inf:3", "l1sum", "custom"])


def _prefix(space, extra, seed=3):
    """A practical embedding of the unit net graph through `extra` edges
    past the first vertex's star, so it holds incident and non-incident
    curves; and its params."""
    params = practical_params(beta=0.05, seed=seed)
    ng = build_net_graph(space, 1.0, 2.0)
    ng_unit, _ = rescaled_unit(ng)
    j = next(k for k, (a, _) in enumerate(ng_unit.graph.ends) if a != 0)
    emb = place_edges(ng, params, edge_limit=j + extra)
    return emb, params


class TestBoxMask:
    """The box mask drops only pairs that points_clear and segments_clear
    would certify (see TestBoxNear in test_spaces)."""

    @SPACES
    def test_pruning_changes_no_code(self, space, monkeypatch):
        state, j, ws, params = _crowded_candidates(space)
        pruned = check_breakpoints(state, j, ws, params)
        assert {0, GAMMA} <= set(pruned.tolist())
        monkeypatch.setattr(embeddings, "box_near",
                            lambda space, x, y, need: np.ones((len(x), len(y)), dtype=bool))
        assert check_breakpoints(state, j, ws, params).tolist() == pruned.tolist()


def _crowded_candidates(space):
    """(state, j, ws, params): the curves before edge j of a prefix, and
    candidates of edge j drawn in its ball and on the placed curves."""
    emb, params = _prefix(space, 2)
    j = len(emb.ends) - 1
    pts = emb.netgraph.points
    state = _PlacedState(space, pts, emb.ends, params.beta)
    state.add_edges(emb.breakpoints[:j])
    ui, vi = emb.ends[j]
    rng = np.random.default_rng(4)
    ws = np.concatenate([
        sample_ball_many(space, 0.5 * (pts[ui] + pts[vi]), params.mu, 24, rng),
        emb.breakpoints[:j] + rng.uniform(-0.02, 0.02, (j, 3)),
        emb.breakpoints[:j] + rng.uniform(-1e-3, 1e-3, (j, 3))])  # on placed curves
    return state, j, ws, params


class TestPairBudget:
    """points_clear and segments_clear gather _CLEAR_PAIRS pairs at a time;
    the budget changes no answer."""

    @SPACES
    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_budget_changes_no_code(self, space, budget, monkeypatch):
        state, j, ws, params = _crowded_candidates(space)
        codes = check_breakpoints(state, j, ws, params)
        assert {0, GAMMA} <= set(codes.tolist())
        monkeypatch.setattr(spaces, "_CLEAR_PAIRS", budget)
        assert check_breakpoints(state, j, ws, params).tolist() == codes.tolist()


class TestBatchedReverification:
    @SPACES
    def test_failures_match_single_checks_on_growing_prefixes(self, space):
        emb, params = _prefix(space, 4)
        pts, edges = emb.netgraph.points, emb.ends.tolist()
        w = emb.breakpoints.copy()
        w[2] = pts[edges[2][0]] + 0.01 * params.beta                 # alpha
        w[4] = pts[edges[4][1]]                                      # on an endpoint
        mid = 0.5 * (pts[edges[6][0]] + pts[edges[6][1]])
        w[6] = pts[next(k for k in range(len(pts))                   # beta
                        if all(k not in e for e in edges[:7])  # no placed curve
                        and np.linalg.norm(pts[k] - mid) < 2)]  # from u or v to crowd alpha
        g = len(edges) - 1
        w[g] = w[next(k for k in range(g) if not set(edges[k]) & set(edges[g]))] + 1e-3  # gamma
        bad = PolylineEmbedding(netgraph=emb.netgraph, params=params, breakpoints=w,
                                attempts=emb.attempts, scale=emb.scale)
        state = _PlacedState(space, pts, emb.ends, params.beta)
        expected = []
        for j, (ui, vi) in enumerate(edges):
            code = code_of(state, j, w[j], params)
            if code:
                expected.append({"edge": [ui, vi], "failed": [embeddings.CONDITIONS[code - 1]]})
            state.add_edges(w[j:j + 1])
        rep = verify_embedding(bad)
        assert rep["failures"] == expected
        assert not rep["ok"] and rep["edges_checked"] == len(edges)
        assert {f["failed"][0] for f in expected} == {"alpha", "beta", "gamma"}
        assert {2, 4, 6, g} <= {edges.index(f["edge"]) for f in expected}

    def test_pair_budget_and_block_count(self, monkeypatch):
        # the embed-linf benchmark's embed: 300 edges, Monte Carlo at edge 100
        gathers, blocks = [], []
        clear = spaces._clear

        def counted(space, pairs, *rest):  # one gather per chunk of pairs
            def gather(k):
                gathers.append(len(k))
                return pairs(k)
            return clear(space, gather, *rest)

        check_block = embeddings._check_block
        monkeypatch.setattr(spaces, "_clear", counted)
        monkeypatch.setattr(embeddings, "_check_block",
                            lambda *args: blocks.append(args) or check_block(*args))
        space = parse_space("lp:inf:3")
        emb = place_edges(build_net_graph(space, 1.0, 2.0), practical_params(seed=0),
                          edge_limit=300)
        assert len(blocks) <= emb.attempts.sum() / 5  # a few blocks per window
        del blocks[:]
        assert verify_embedding(emb)["ok"]
        assert len(blocks) <= len(emb.ends) // 20
        del blocks[:]
        est = estimate_suitable_fraction(emb, 100, 2000, np.random.default_rng([0, 4]))
        assert 0 < est.successes < 2000 and len(blocks) <= 2000 // 50
        assert spaces._CLEAR_PAIRS <= 4096  # the budget must not grow
        assert max(gathers) <= spaces._CLEAR_PAIRS < sum(gathers) // 10


def _one_at_a_time(ng, params, edge_limit=None):
    """Reference placement: edge by edge, each candidate of the edge's
    substream checked alone against the curves placed before it.  Returns
    (breakpoints, attempts) or raises PlacementError as place_edges does."""
    ng_unit, _ = rescaled_unit(ng)
    space, pts, edges = ng.space, ng_unit.points, ng_unit.graph.ends[:edge_limit]
    state = _PlacedState(space, pts, edges, params.beta)
    subs = np.random.default_rng([params.seed, 1]).spawn(len(edges))
    ws, attempts = np.empty((len(edges), space.dim)), np.zeros(len(edges), dtype=np.int64)
    for j, (ui, vi) in enumerate(edges.tolist()):
        tally = dict.fromkeys(embeddings.CONDITIONS, 0)
        while attempts[j] < params.retry_cap:
            if attempts[j] % embeddings._CHUNK == 0:
                chunk = sample_ball_many(space, 0.5 * (pts[ui] + pts[vi]), params.mu,
                                         embeddings._CHUNK, subs[j])
            w = chunk[attempts[j] % embeddings._CHUNK]
            attempts[j] += 1
            code = code_of(state, j, w, params)
            if not code:
                break
            tally[embeddings.CONDITIONS[code - 1]] += 1
        else:
            raise PlacementError((ui, vi), int(attempts[j]), tally)
        ws[j] = w
        state.add_edges(w[None, :])
    return ws, attempts


def _outcome(place, *args, **kwargs):
    """(breakpoint bytes, attempts) of a placement, or its PlacementError's
    (edge, attempts, tally)."""
    try:
        out = place(*args, **kwargs)
    except PlacementError as err:
        return err.edge, err.attempts, err.tally
    ws, attempts = (out.breakpoints, out.attempts) if isinstance(out, PolylineEmbedding) else out
    return ws.tobytes(), attempts.tolist()


class TestWindows:
    """Windowed placement picks, for every edge, the first candidate of its
    substream that passes against all curves before it: whatever the
    window, the embedding and a PlacementError's tally are those of the
    one-at-a-time loop."""

    # the custom norm searches every pair, so it gets a shorter prefix
    LIMITS = {"lp:2:3": 40, "lp:inf:3": 64, "l1sum": 40, "custom": 21}

    @SPACES
    def test_windows_place_as_one_at_a_time(self, space, request, monkeypatch):
        limit = self.LIMITS[request.node.callspec.id]
        ng = build_net_graph(space, 1.0, 2.0)
        ok = practical_params(beta=0.05, seed=5)
        # an edge of each prefix runs out of candidates under these: in l2
        # edge 25, with later ones of its window of 7; in l-inf edge 1, after
        # edges 57, 58 and 63 of the window of 64
        hard = EmbedParams(alpha=0.1, beta=0.2, gamma=0.1, mode="practical", retry_cap=10,
                           seed=5)
        for params in (ok, hard):
            want = _outcome(_one_at_a_time, ng, params, edge_limit=limit)
            for window in (1, 7, 64):
                monkeypatch.setattr(embeddings, "_WINDOW", window)
                assert _outcome(place_edges, ng, params, edge_limit=limit) == want
            assert isinstance(want[0], bytes) == (params is ok)


def _oracle_norm(p, x):
    """The l_p norm (p = 1 or inf) of the rows of x, written out in numpy."""
    return np.max(np.abs(x), axis=-1) if p == math.inf else np.sum(np.abs(x), axis=-1)


def _dense_curve(u, w, v, k=300):
    t = np.linspace(0.0, 1.0, k)[:, None]
    return np.concatenate([u + t * (w - u), w + t * (v - w)])


# directions across the candidate curve, which runs roughly along x
_across = st.floats(0.0, 2 * math.pi).map(lambda a: np.array([0.0, math.cos(a), math.sin(a)]))


def _euclid_gaps(x, segs):
    """(len(x), k): the Euclidean distance from each point x[i] to each
    segment of segs (k, 2, dim), written out in numpy."""
    a, d = segs[:, 0], segs[:, 1] - segs[:, 0]
    s = np.einsum("ikd,kd->ik", x[:, None] - a, d) / np.maximum(np.sum(d * d, axis=1), 1e-300)
    foot = a + np.clip(s, 0.0, 1.0)[..., None] * d
    return np.linalg.norm(x[:, None] - foot, axis=2)


def _endpoint_curves(space, beta):
    """30 curves u, w, v with |u - v| = 2, whose breakpoints sit near v (the
    first 12), near u (the next 12) or near the midpoint, at norm distance
    0.5 to 4 beta."""
    rng = np.random.default_rng(12)
    m = 30
    u, d = rng.normal(size=(m, 3)), rng.normal(size=(m, 3))
    v = u + 2.0 * d / norms(space, d)[:, None]  # at norm distance 2
    off = rng.normal(size=(m, 3))
    off *= rng.uniform(0.5, 4.0, (m, 1)) * beta / norms(space, off)[:, None]
    ws = np.concatenate([v[:12] + off[:12], u[12:24] + off[12:24],
                         0.5 * (u[24:] + v[24:]) + off[24:]])
    return u, v, ws


class TestClipCurves:
    """_clip_curves against a dense sampling of each curve, with the
    endpoint balls tested by direct norms calls.  Breakpoints near either
    endpoint send a segment through the opposite endpoint's ball, which
    only the cut by that ball removes."""

    @SPACES
    def test_pieces_are_the_curve_outside_both_balls(self, space):
        beta = 0.2
        u, v, ws = _endpoint_curves(space, beta)
        m = len(ws)
        pieces, rows = _clip_curves(space, u, v, ws, beta)
        t = np.linspace(0.0, 1.0, 101)[:, None]
        for k in range(m):
            mine = pieces[rows == k]
            curve = _dense_curve(u[k], ws[k], v[k], 1001)
            out = ((norms(space, curve - u[k]) >= beta + 1e-6)
                   & (norms(space, curve - v[k]) >= beta + 1e-6))
            assert out.any() and _euclid_gaps(curve[out], mine).min(axis=1).max() <= 1e-9
            on = (mine[:, None, 0] + t * (mine[:, None, 1] - mine[:, None, 0])).reshape(-1, 3)
            assert norms(space, on - u[k]).min() >= beta - 1e-8
            assert norms(space, on - v[k]).min() >= beta - 1e-8


def _subtract_interval(intervals, cut):
    lo, hi = cut
    out = []
    for (a, b) in intervals:
        if hi <= a or lo >= b:
            out.append((a, b))
            continue
        if lo > a:
            out.append((a, lo))
        if hi < b:
            out.append((hi, b))
    return out


def _row_at_a_time_clip(space, u, v, ws, beta):
    """_clip_curves as it was written before its one batched cut, kept as
    its reference: the segments the Euclidean screen cannot clear are cut
    one at a time by a one-row ball_cuts and _subtract_interval."""
    m = len(ws)
    a, b, other = np.concatenate([u, ws]), np.concatenate([ws, v]), np.concatenate([v, u])
    length = norms(space, b - a)
    keep = np.flatnonzero(length >= 1e-12)
    a, b, other, row = a[keep], b[keep], other[keep], keep % m
    d = b - a
    frac = beta / length[keep]
    own = keep < m
    t0 = np.where(own, np.minimum(1.0, frac), 0.0)
    t1 = np.where(own, 1.0, np.maximum(0.0, 1 - frac))
    reach = ~(spaces._l2_point_segment(other, a, b) * space.l2_lower > beta)
    whole = ~reach & (t1 - t0 > 1e-12)
    pieces = [np.stack([a[whole] + t0[whole, None] * d[whole],
                        a[whole] + t1[whole, None] * d[whole]], axis=1)]
    rows = [row[whole]]
    for i in np.flatnonzero(reach):
        intervals = [(t0[i], t1[i])]
        lo, hi, meets = spaces.ball_cuts(space, a[i:i + 1], b[i:i + 1], other[i], beta)
        if meets[0]:
            intervals = _subtract_interval(intervals, (lo[0], hi[0]))
        for (s0, s1) in intervals:
            if s1 - s0 > 1e-12:
                pieces.append(np.stack([a[i] + s0 * d[i], a[i] + s1 * d[i]])[None])
                rows.append(row[i:i + 1])
    return np.concatenate(pieces), np.concatenate(rows)


def _piece_multiset(pieces, rows):
    return sorted((int(r), p.tobytes()) for r, p in zip(rows, pieces))


L3_ROWWISE = custom_space(3, lambda x: np.sum(np.abs(x) ** 3) ** (1 / 3), box_factor=1.0)


class TestClipCurvesReference:
    """The batched _clip_curves gives the pieces of the row-at-a-time loop
    above, bit for bit, as a multiset of (row, piece) pairs."""

    @SPACES
    def test_endpoint_curves(self, space):
        u, v, ws = _endpoint_curves(space, 0.2)
        got = _clip_curves(space, u, v, ws, 0.2)
        assert _piece_multiset(*got) == _piece_multiset(*_row_at_a_time_clip(space, u, v, ws, 0.2))

    @pytest.mark.parametrize("space", [parse_space("lp:2:3"), parse_space("lp:inf:3"),
                                       parse_space("lp:1:3"), parse_space("lp:3:3"),
                                       parse_space("l1sum:lp:2:2+lp:1:1"), L3_CUSTOM,
                                       L3_ROWWISE],
                             ids=["lp:2:3", "lp:inf:3", "lp:1:3", "lp:3:3", "l1sum",
                                  "custom", "custom-rowwise"])
    def test_random_curves(self, space):
        # breakpoints near u, near v or off the middle, a few on an endpoint
        # (a zero-length segment), at random beta
        rng = np.random.default_rng(21)
        m = 40
        u, d = rng.normal(size=(m, 3)), rng.normal(size=(m, 3))
        v = u + rng.uniform(1.0, 3.0, (m, 1)) * d / norms(space, d)[:, None]
        base = np.where((np.arange(m) % 3 == 0)[:, None], u,
                        np.where((np.arange(m) % 3 == 1)[:, None], v, 0.5 * (u + v)))
        ws = base + rng.normal(size=(m, 3)) * rng.uniform(0.05, 0.8, (m, 1))
        ws[:2], ws[2] = u[:2], v[2]
        for beta in (0.1, 0.35):
            got = _clip_curves(space, u, v, ws, beta)
            want = _row_at_a_time_clip(space, u, v, ws, beta)
            assert _piece_multiset(*got) == _piece_multiset(*want)
            # some segment was cut in two by the opposite ball
            assert np.bincount(want[1], minlength=m).max() >= 3


class TestTruncate:
    """_PlacedState.truncate(k) after add_edges(ws) leaves the state that
    add_edges(ws[:k]) builds, the state placement's in-window check reads."""

    @SPACES
    def test_truncate_equals_the_prefix_state(self, space):
        beta = 0.2
        u, v, ws = _endpoint_curves(space, beta)
        m = len(ws)
        pts, ends = np.concatenate([u, v]), [(j, m + j) for j in range(m)]
        counts = np.bincount(_clip_curves(space, u, v, ws, beta)[1], minlength=m)
        # a curve with a segment inside an endpoint ball, and one cut into 3
        assert counts.min() == 1 and counts.max() == 3
        cuts = (0, m, int(np.argmin(counts)) + 1, int(np.argmax(counts)) + 1)

        def arrays(state):
            return state.segments, state.crossings, state.clipped, state.clip_edge

        for k in cuts:
            cut, fresh = (_PlacedState(space, pts, ends, beta) for _ in range(2))
            cut.add_edges(ws)
            cut.truncate(k)
            fresh.add_edges(ws[:k])
            assert all(np.array_equal(a, b) for a, b in zip(arrays(cut), arrays(fresh)))


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
        state = _PlacedState(space, pts, [(3, 4), (0, 5), (0, 1)], beta)
        state.add_edges(np.stack([w2, w3]))
        code = int(check_breakpoints(state, 2, w[None, :], prm)[0])
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


class TestLargeMu:
    def test_no_curve_within_beta_of_another_vertex(self, tmp_path):
        # mu = 6 lets a curve reach vertices more than 5 from its edge's u
        net, graph, out = (str(tmp_path / f) for f in ("net.json", "graph.json", "emb.json"))
        for argv in (["net", "--space", "lp:2:3", "--delta", "1", "--r", "4", "-o", net],
                     ["graph", "--net", net, "-o", graph],
                     ["embed", "--graph", graph, "--mu", "6", "--beta", "0.2",
                      "--limit", "600", "--seed", "1", "-o", out]):
            assert cli.main(argv) == 0
        emb = embedding_from_json(json.loads((tmp_path / "emb.json").read_text()))
        pts, ends, ws = emb.netgraph.points, emb.ends, emb.breakpoints
        segs = np.stack([pts[ends[:, 0]], ws, ws, pts[ends[:, 1]]], axis=1).reshape(-1, 2, 3)
        gaps = _euclid_gaps(pts, segs)
        k = np.arange(len(segs))
        gaps[ends[k // 2, 0], k] = gaps[ends[k // 2, 1], k] = np.inf
        assert len(ends) == 600 and gaps.min() >= emb.params.beta


class TestSerialization:
    def test_roundtrip(self, triangle_emb):
        again = embedding_from_json(embedding_to_json(triangle_emb))
        assert np.array_equal(again.ends, triangle_emb.ends)
        assert np.array_equal(again.breakpoints, triangle_emb.breakpoints)
        assert again.params == triangle_emb.params
        assert again.scale == triangle_emb.scale

    @pytest.mark.parametrize("desc", ["lp:2:3", "lp:inf:3"])
    def test_an_embedding_is_its_own_recipe(self, tmp_path, desc):
        # the recorded net graph and params fix the curves: placing them
        # again from the loaded file gives every breakpoint and attempt
        net, graph, out = (str(tmp_path / f) for f in ("net.json", "graph.json", "emb.json"))
        for argv in (["net", "--space", desc, "--delta", "1", "--r", "2", "-o", net],
                     ["graph", "--net", net, "-o", graph],
                     ["embed", "--graph", graph, "--seed", "3", "--limit", "40", "-o", out]):
            assert cli.main(argv) == 0
        emb = embedding_from_json(json.loads((tmp_path / "emb.json").read_text()))
        again = place_edges(emb.netgraph, emb.params, edge_limit=40)
        assert len(emb.ends) == 40
        assert again.breakpoints.tobytes() == emb.breakpoints.tobytes()
        assert np.array_equal(again.attempts, emb.attempts)
