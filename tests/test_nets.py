import math

import numpy as np
import pytest

from netembed import (Net, ValidationError, build_net, custom_space, lp_space,
                      nearest_net_point, net_from_json, net_to_json, norms,
                      parse_space, verify_maximality, verify_net)
from netembed import nets
from netembed.nets import lattice_candidates

# the custom l3 norm of test_embeddings, vectorized, and the same norm row by row
L3_CUSTOM = custom_space(3, lambda x: np.sum(np.abs(x) ** 3, axis=1) ** (1 / 3),
                         box_factor=1.0, vectorized=True)
L3_ROWWISE = custom_space(3, lambda v: np.sum(np.abs(v) ** 3) ** (1 / 3),
                          box_factor=1.0)


def greedy_oracle(space, delta, r, k):
    """Independent pure-python reimplementation of the construction rule:
    lexicographic scan of the lattice (delta/k)Z^n in r*B, forced origin,
    keep at pairwise distance >= rho = delta + (delta/k)*linf_factor."""
    h = delta / k
    rho = delta + h * space.linf_factor
    half = int(math.floor(r * space.box_factor / h + 1e-12))
    axis = [h * i for i in range(-half, half + 1)]
    cands = [(0.0,) * space.dim]
    stack = [()]
    for _ in range(space.dim):
        stack = [t + (x,) for t in stack for x in axis]
    stack = sorted(stack)
    inside = norms(space, np.array(stack)) <= r * (1 + 1e-12)
    cands += [c for c, ok in zip(stack, inside) if ok and any(c)]
    kept = []
    for c in cands:
        if not kept or np.all(norms(space, np.array(c) - np.array(kept)) >= rho * (1 - 1e-12)):
            kept.append(c)
    return kept, rho


def one_at_a_time_net(space, delta, r, k):
    """The one-at-a-time greedy scan build_net ran before it scanned in
    blocks, kept as its reference: each candidate is measured against every
    point kept so far, in lexicographic order after the forced origin."""
    rho = delta + (delta / k) * space.linf_factor
    cand = lattice_candidates(space, delta, r, k)
    kept = np.empty_like(cand)
    kept[0] = 0.0  # forced origin
    n_kept = 1
    sep = rho * (1 - 1e-12)
    for row in cand:
        if not np.any(row):
            continue  # the origin is already in
        if np.min(norms(space, kept[:n_kept] - row)) >= sep:
            kept[n_kept] = row
            n_kept += 1
    return kept[:n_kept], rho


class TestBlockedScan:
    @pytest.mark.parametrize("space, r, k", [
        (parse_space("lp:2:3"), 2.0, 4),
        (parse_space("lp:2:3"), 3.0, 4),
        (parse_space("lp:2:3"), 2.0, 2),
        (parse_space("lp:inf:3"), 2.0, 4),
        (parse_space("lp:inf:3"), 2.0, 2),
        (parse_space("lp:1:3"), 2.0, 4),
        (parse_space("l1sum:lp:2:2+lp:1:1"), 2.0, 4),
        (L3_CUSTOM, 1.5, 4),
        (L3_ROWWISE, 1.5, 2),
    ], ids=["lp:2:3-r2", "lp:2:3-r3", "lp:2:3-mesh2", "lp:inf:3", "lp:inf:3-mesh2",
            "lp:1:3", "l1sum", "custom", "custom-rowwise"])
    def test_same_points_in_the_same_order(self, space, r, k):
        net = build_net(space, 1.0, r, k)
        want, rho = one_at_a_time_net(space, 1.0, r, k)
        assert net.rho == rho
        assert net.points.shape == want.shape
        assert np.array_equal(net.points.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("budget", [1, 7, 64, 300])
    @pytest.mark.parametrize("space", [parse_space("lp:2:3"), parse_space("lp:inf:3"),
                                       parse_space("l1sum:lp:2:2+lp:1:1")],
                             ids=["lp:2:3", "lp:inf:3", "l1sum"])
    def test_block_boundaries(self, monkeypatch, space, budget):
        # a default block holds the whole lattice while one point is kept;
        # small pair budgets put block boundaries all through the scan
        monkeypatch.setattr(nets, "_PAIR_BUDGET", budget)
        net = build_net(space, 1.0, 2.0)
        want, _ = one_at_a_time_net(space, 1.0, 2.0, 4)
        assert np.array_equal(net.points.view(np.int64), want.view(np.int64))


class TestPairScans:
    """The two blocked pair scans against plain numpy, with block
    boundaries all through them (a default block holds every pair of these
    nets)."""

    @pytest.mark.parametrize("budget", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("space", [parse_space("lp:2:3"), parse_space("lp:inf:3"),
                                       parse_space("l1sum:lp:2:2+lp:1:1")],
                             ids=["lp:2:3", "lp:inf:3", "l1sum"])
    def test_scans_equal_whole_arrays(self, monkeypatch, space, budget):
        net = build_net(space, 1.0, 2.0)
        pts, m = net.points, net.size
        probes = np.random.default_rng(8).normal(size=(300, 3))
        full = norms(space, (pts[None] - probes[:, None]).reshape(-1, 3)).reshape(300, m)
        monkeypatch.setattr(nets, "_PAIR_BUDGET", budget)
        i, j, d = (np.concatenate(x) for x in zip(*nets._pair_distances(space, pts)))
        want_i, want_j = np.triu_indices(m, 1)  # row-major
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        assert np.array_equal(d, norms(space, pts[want_j] - pts[want_i]))
        assert np.array_equal(nets._nearest_distances(space, probes, pts), full.min(axis=1))
        assert verify_net(net, 100, np.random.default_rng(0)).min_separation == d.min()
        assert verify_maximality(net)

    @pytest.mark.parametrize("budget", [1, 7, 1 << 16])
    def test_json_names_the_first_close_pair(self, monkeypatch, budget):
        # two repeated points: rows 2 and 4 take copies of rows 6 and 5
        obj = net_to_json(build_net(lp_space(2, 2), 1.0, 3.0))
        obj["points"][2], obj["points"][4] = obj["points"][6], obj["points"][5]
        monkeypatch.setattr(nets, "_PAIR_BUDGET", budget)
        with pytest.raises(ValidationError, match="net points 2 and 6 are 0.0 apart"):
            net_from_json(obj)


class TestBuildNet:
    def test_matches_independent_oracle(self):
        for space, delta, r, k in [
            (lp_space(math.inf, 2), 1.0, 2.0, 2),
            (lp_space(2, 2), 1.0, 2.0, 4),
            (lp_space(1, 2), 1.0, 2.5, 4),
            (lp_space(2, 1), 1.0, 2.0, 4),
        ]:
            net = build_net(space, delta, r, k)
            oracle, rho = greedy_oracle(space, delta, r, k)
            assert net.rho == pytest.approx(rho, rel=1e-12)
            got = sorted(map(tuple, np.round(net.points, 9)))
            want = sorted(tuple(round(x, 9) for x in c) for c in oracle)
            assert got == want

    def test_origin_always_first(self):
        net = build_net(lp_space(2, 2), 1.0, 2.0)
        assert np.all(net.points[0] == 0.0)
        assert net.origin_index == 0

    def test_tiny_ball_keeps_origin_only_region(self):
        net = build_net(lp_space(2, 2), 1.0, 1.01)
        assert net.size >= 1
        assert np.all(net.points[0] == 0.0)

    def test_separation_at_least_rho(self):
        for space in (lp_space(2, 2), lp_space(1, 2), lp_space(math.inf, 3)):
            net = build_net(space, 1.0, 2.0)
            for i in range(net.size - 1):
                d = norms(space, net.points[i + 1:] - net.points[i])
                assert np.all(d >= net.rho * (1 - 1e-12))
                assert np.all(d >= net.delta)  # a fortiori

    def test_points_inside_ball(self):
        net = build_net(lp_space(2, 3), 1.0, 2.0)
        assert np.all(norms(net.space, net.points) <= net.r * (1 + 1e-12))

    def test_determinism(self):
        a = build_net(lp_space(2, 2), 1.0, 3.0)
        b = build_net(lp_space(2, 2), 1.0, 3.0)
        assert np.array_equal(a.points, b.points)

    def test_greedy_maximality(self):
        for space in (lp_space(2, 2), lp_space(math.inf, 2)):
            net = build_net(space, 1.0, 2.0)
            assert verify_maximality(net)

    @pytest.mark.parametrize("drop", [0, 5, -1])
    def test_net_missing_a_point_is_not_maximal(self, drop):
        # the dropped point is a lattice candidate rho away from the rest
        net = build_net(lp_space(2, 3), 1.0, 2.0)
        pts = np.delete(net.points, drop % net.size, axis=0)
        thinned = Net(net.space, net.delta, net.r, pts, net.rho)
        assert not verify_maximality(thinned)

    def test_candidate_cap_guard(self):
        with pytest.raises(ValidationError):
            build_net(lp_space(2, 4), 0.01, 3.0)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            build_net(lp_space(2, 2), 2.0, 1.0)
        with pytest.raises(ValidationError):
            build_net(lp_space(2, 2), 1.0, 2.0, mesh_divisor=1)


class TestNearestNetPoint:
    def test_outside_ball_maps_to_origin(self):
        net = build_net(lp_space(2, 2), 1.0, 2.0)
        y = np.array([5.0, 5.0])
        assert np.all(nearest_net_point(net, y) == 0.0)

    def test_origin_found_in_any_row(self):
        # the fallback is the zero row, wherever it sits, and never another point
        net = Net(lp_space(2, 2), 1.0, 2.0, [[1.5, 0.0], [0.0, 0.0]], 1.0)
        assert net.origin_index == 1
        assert np.array_equal(nearest_net_point(net, [5.0, 0.0]), [0.0, 0.0])

    def test_no_origin_raises_outside_ball(self):
        net = Net(lp_space(2, 2), 1.0, 2.0, [[1.5, 0.0], [0.0, 1.5]], 1.0)
        assert net.origin_index is None
        assert np.array_equal(nearest_net_point(net, [0.0, 1.0]), [0.0, 1.5])
        with pytest.raises(ValidationError, match="no origin point"):
            nearest_net_point(net, [5.0, 0.0])

    def test_net_point_maps_to_itself(self):
        net = build_net(lp_space(2, 2), 1.0, 2.0)
        p = net.points[-1]
        assert np.allclose(nearest_net_point(net, p), p)

    def test_exhaustive_scan_oracle(self):
        net = build_net(lp_space(math.inf, 2), 1.0, 2.0, 2)
        rng = np.random.default_rng(9)
        for _ in range(300):
            y = rng.uniform(-2, 2, size=2)
            got = nearest_net_point(net, y)
            dists = norms(net.space, y - net.points)
            # ties break to the lowest index, as argmin's do
            assert np.allclose(got, net.points[np.argmin(dists)])

    def test_tie_breaks_to_lowest_index(self):
        net = build_net(lp_space(math.inf, 1), 1.0, 2.0, 4)
        # midpoint between two net points: equidistant, pick the earlier row
        pts = sorted(float(p[0]) for p in net.points)
        mid = 0.5 * (pts[0] + pts[1])
        got = float(nearest_net_point(net, [mid])[0])
        d0 = abs(mid - pts[0])
        candidates = [float(p[0]) for p in net.points
                      if abs(abs(mid - float(p[0])) - d0) < 1e-12]
        first = min(range(net.size),
                    key=lambda i: math.inf if float(net.points[i][0]) not in candidates
                    else i)
        assert got == float(net.points[first][0])


class TestVerifyNet:
    def test_min_separation_exact(self):
        net = build_net(lp_space(math.inf, 2), 1.0, 2.0)
        audit = verify_net(net, 100, np.random.default_rng(0))
        d_all = []
        for i in range(net.size - 1):
            d_all.extend(norms(net.space, net.points[i + 1:] - net.points[i]))
        assert audit.min_separation == pytest.approx(min(d_all), rel=1e-12)

    def test_probe_gap_within_rho(self):
        rng = np.random.default_rng(1)
        for space in (lp_space(2, 2), lp_space(1, 2), lp_space(math.inf, 2),
                      lp_space(2, 3)):
            net = build_net(space, 1.0, 2.0)
            audit = verify_net(net, 10_000, rng)
            assert audit.max_probe_gap <= net.rho

    def test_single_point_net_gap(self):
        from netembed import Net
        space = lp_space(2, 2)
        net = Net(space, 1.0, 0.5, np.zeros((1, 2)), 0.5)
        audit = verify_net(net, 500, np.random.default_rng(2))
        assert audit.max_probe_gap <= 0.5
        assert audit.min_separation == math.inf


class TestNetSerialization:
    def test_roundtrip(self):
        net = build_net(lp_space(2, 2), 1.0, 2.0)
        again = net_from_json(net_to_json(net))
        assert np.array_equal(again.points, net.points)
        assert again.rho == net.rho
        assert again.origin_index == net.origin_index

    def test_malformed(self):
        with pytest.raises(ValidationError):
            net_from_json({"space": {"kind": "lp", "p": 2, "dim": 2}})
