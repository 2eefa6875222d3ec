import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from netembed import (SamplingError, Segment, ValidationError, as_vector,
                      custom_space, direct_sum_l1,
                      lp_space, norms, parse_space,
                      point_segment_distance, sample_ball_many,
                      segment_segment_distance,
                      space_from_json, space_to_json)
from netembed import spaces
from netembed.spaces import (PARAM_TOL, _norms_nd, _ternary_batch, ball_cuts,
                             points_segment_distance, segment_pairs_distance)


def seg(a, b):
    return Segment(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


class TestNorms:
    def test_l2_pythagorean(self):
        assert norms(lp_space(2, 2), np.array([[3.0, 4.0]])) == pytest.approx([5.0], abs=1e-12)

    def test_l1sum_of_l2_and_r(self):
        s = direct_sum_l1(lp_space(2, 2), lp_space(1, 1))
        got = norms(s, np.array([[3.0, 4.0, -2.0], [0.0, 0.0, 5.0], [3.0, 4.0, 0.0]]))
        assert got == pytest.approx([7.0, 5.0, 5.0], abs=1e-12)

    def test_linf_max_modulus(self):
        assert norms(lp_space(math.inf, 3), np.array([[1.0, -3.0, 2.0]])) == pytest.approx([3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            norms(lp_space(2, 3), np.array([[1.0, 2.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            as_vector([1, float("nan")])

    def test_l1sum_matches_direct_l13(self):
        # l1 sum of (l1^2, l1^1) must agree with l1^3 everywhere
        s = direct_sum_l1(lp_space(1, 2), lp_space(1, 1))
        direct = lp_space(1, 3)
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(100, 3)) * 10
        assert np.allclose(norms(s, pts), norms(direct, pts), atol=1e-12)

    def test_dim_one_keeps_the_bits_of_sum_and_max(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -2.5, 1e308, -1e-310,
                      np.inf, -np.inf, np.nan])[:, None]
        x = np.concatenate([x, np.random.default_rng(3).normal(size=(50, 1)) * 1e3])
        for p, ref in ((1, np.sum), (math.inf, np.max)):
            got = norms(lp_space(p, 1), x)
            want = ref(np.abs(x), axis=1)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_linf_keeps_the_bits_of_max(self, dim):
        # the transposed reduction against np.max row by row
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -1e-310, 1e308, -1e308,
                            np.inf, -np.inf, np.nan])
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(400, dim)) * 10.0 ** rng.integers(-300, 300, size=(400, dim))
        mask = rng.random(size=x.shape) < 0.2
        x[mask] = rng.choice(special, size=int(mask.sum()))
        x[:len(special), 0] = special
        for pts in (x, x[:, ::-1], x[:0]):  # a non-contiguous view, no rows
            got = norms(lp_space(math.inf, dim), pts)
            want = np.max(np.abs(pts), axis=1)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_norm_axioms_random_triples(self):
        # homogeneity / triangle inequality / positivity, 1e4 triples
        rng = np.random.default_rng(7)
        for space in (lp_space(1, 3), lp_space(2, 3), lp_space(3.5, 3),
                      lp_space(math.inf, 3),
                      direct_sum_l1(lp_space(2, 2), lp_space(1, 1))):
            u = rng.normal(size=(10_000, 3))
            v = rng.normal(size=(10_000, 3))
            lam = rng.normal(size=10_000)
            nu, nv, nuv = norms(space, u), norms(space, v), norms(space, u + v)
            assert np.all(nuv <= nu + nv + 1e-12)
            assert np.all(norms(space, lam[:, None] * u)
                          <= np.abs(lam) * nu + 1e-12)
            assert np.all(norms(space, lam[:, None] * u)
                          >= np.abs(lam) * nu - 1e-12)
            assert np.all(nu[np.any(u != 0, axis=1)] > 0)

    def test_comparison_factors_certified(self):
        rng = np.random.default_rng(3)
        for space in (lp_space(1, 3), lp_space(2, 4), lp_space(4, 3),
                      lp_space(math.inf, 2),
                      direct_sum_l1(lp_space(2, 2), lp_space(math.inf, 2))):
            pts = rng.normal(size=(2000, space.dim))
            n = norms(space, pts)
            linf = np.max(np.abs(pts), axis=1)
            l2 = np.sqrt(np.sum(pts * pts, axis=1))
            assert np.all(n <= space.linf_factor * linf + 1e-12)
            assert np.all(linf <= space.box_factor * n + 1e-12)
            if space.l2_lower > 0:
                assert np.all(n >= space.l2_lower * l2 - 1e-12)
            if space.l2_upper < math.inf:
                assert np.all(n <= space.l2_upper * l2 + 1e-12)

    def test_custom_space_needs_box_factor(self):
        hexagon = custom_space(2, lambda v: abs(v[0]) + abs(v[1]) + abs(v[0] + v[1]),
                               box_factor=1.0)
        assert norms(hexagon, np.array([[1.0, 1.0]])) == pytest.approx([4.0])
        assert hexagon.linf_factor == pytest.approx(4.0)  # sum of basis norms

    def test_custom_space_rejects_a_box_factor_the_basis_refutes(self):
        # ||e_1||_3 = 1, so ||e_1||_inf = 1 > 0.5 * ||e_1||_3
        with pytest.raises(ValidationError, match="box_factor"):
            custom_space(3, lambda x: np.sum(np.abs(x) ** 3, axis=1) ** (1 / 3),
                         box_factor=0.5, vectorized=True)


class TestPointSegment:
    def test_perpendicular_foot(self):
        d = point_segment_distance(lp_space(2, 2), [0, 1], seg([-1, 0], [1, 0]))
        assert d == pytest.approx(1.0, abs=1e-8)

    def test_point_on_segment(self):
        d = point_segment_distance(lp_space(2, 2), [0.25, 0], seg([-1, 0], [1, 0]))
        assert d == pytest.approx(0.0, abs=1e-8)

    def test_linf_slanted_segment_brute_force(self):
        # oracle: dense grid over the parameter
        space = lp_space(math.inf, 2)
        a, b, p = np.array([-1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 2.0])
        t = np.linspace(0, 1, 1_000_001)
        pts = a + t[:, None] * (b - a)
        expected = float(np.min(np.max(np.abs(pts - p), axis=1)))
        got = point_segment_distance(space, p, Segment(a, b))
        assert expected == pytest.approx(1.0, abs=1e-6)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_endpoint_upper_bound_property(self):
        rng = np.random.default_rng(11)
        for space in (lp_space(1, 3), lp_space(2, 3), lp_space(math.inf, 3)):
            for _ in range(200):
                a, b, p = rng.normal(size=(3, 3))
                d = point_segment_distance(space, p, Segment(a, b))
                cap = norms(space, np.stack([p - a, p - b])).min()
                assert d <= cap + 1e-8

    def test_random_grid_cross_check(self):
        rng = np.random.default_rng(23)
        t = np.linspace(0, 1, 20_001)
        for space in (lp_space(1, 2), lp_space(3, 2), lp_space(math.inf, 2)):
            for _ in range(25):
                a, b, p = rng.normal(size=(3, 2)) * 3
                brute = float(np.min(norms(space, a + t[:, None] * (b - a) - p)))
                got = point_segment_distance(space, p, Segment(a, b))
                # the grid overestimates by at most its resolution times the
                # segment's Lipschitz constant; ternary is never below truth
                grid_err = norms(space, (b - a)[None])[0] / 20_000
                assert brute - grid_err - 1e-9 <= got <= brute + 1e-8


def five_candidate_l2(a1, b1, a2, b2):
    """The Euclidean distance between [a1, b1] and [a2, b2] row by row, as
    the least of five candidates: the clamped stationary point and the
    clamped optimum along each edge of the parameter box.  The reference
    for spaces._l2_segment_segment."""
    def dot(x, y):
        return np.einsum("...j,...j->...", x, y)

    u, v, w0 = b1 - a1, b2 - a2, a1 - a2
    a, b, c = np.maximum(dot(u, u), 1e-300), dot(v, u), np.maximum(dot(v, v), 1e-300)
    d, e = dot(w0, u), dot(v, w0)
    safe = np.maximum(a * c - b * b, 1e-300)
    zero, one = np.zeros_like(b), np.ones_like(b)
    best = np.inf
    for s, t in (((b * e - c * d) / safe, (a * e - b * d) / safe),
                 (zero, e / c), (one, (e + b) / c), (-d / a, zero), ((b - d) / a, one)):
        diff = w0 + np.clip(s, 0.0, 1.0)[..., None] * u - np.clip(t, 0.0, 1.0)[..., None] * v
        best = np.minimum(best, dot(diff, diff))
    return np.sqrt(best)


def _segment_pair_family(kind, rng, k=4000):
    """k segment pairs (a1, b1, a2, b2) in R^3 of one kind."""
    a1, b1, a2, b2 = (rng.normal(size=(k, 3)) for _ in range(4))
    direction = b1 - a1
    if kind == "parallel":
        b2 = a2 + rng.uniform(-2, 2, (k, 1)) * direction
    elif kind == "near-parallel":
        b2 = a2 + rng.uniform(-2, 2, (k, 1)) * direction + 1e-9 * rng.normal(size=(k, 3))
    elif kind == "zero-length":
        b1 = a1.copy()
        b2[::2] = a2[::2]  # half the pairs are two points
    elif kind == "collinear":
        a2, b2 = (a1 + rng.normal(size=(k, 1)) * direction for _ in range(2))
    elif kind == "shared-endpoint":
        a2 = b1.copy()
    elif kind == "touching":  # a2 on segment 1, b2 off its line by 1e-12 to 1e-2
        a2 = a1 + rng.uniform(0, 1, (k, 1)) * direction
        b2 = (a2 + rng.uniform(-2, 2, (k, 1)) * direction
              + 10.0 ** rng.uniform(-12, -2, (k, 1)) * rng.normal(size=(k, 3)))
    return a1, b1, a2, b2


class TestSegmentSegment:
    @pytest.mark.parametrize("kind", ["generic", "parallel", "near-parallel", "zero-length",
                                      "collinear", "shared-endpoint"])
    def test_l2_kernel_against_five_candidates(self, kind):
        pairs = _segment_pair_family(kind, np.random.default_rng(11))
        got, want = spaces._l2_segment_segment(*pairs), five_candidate_l2(*pairs)
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + want))
        if kind == "shared-endpoint":
            assert np.all(got <= 1e-12)

    def test_l2_kernel_on_nearly_touching_pairs(self):
        # near-parallel pairs whose minimum, about 0, lies on a box edge: a*c
        # - b*b cancels, and the value must stay within the l2 kernel's error
        # bound of the five-candidate minimum, or a touching pair could be
        # certified clear
        pairs = _segment_pair_family("touching", np.random.default_rng(12), k=20000)
        got, err = spaces._segment_pairs_exact(lp_space(2, 3), *pairs)
        assert np.all(got - err <= five_candidate_l2(*pairs))

    def test_intersecting(self):
        d = segment_segment_distance(lp_space(2, 2), seg([-1, -1], [1, 1]),
                                     seg([-1, 1], [1, -1]))
        assert d == pytest.approx(0.0, abs=1e-8)

    def test_parallel_unit_separated(self):
        d = segment_segment_distance(lp_space(2, 2), seg([0, 0], [1, 0]),
                                     seg([0, 1], [1, 1]))
        assert d == pytest.approx(1.0, abs=1e-8)

    def test_skew_in_l2_3_brute_force(self):
        space = lp_space(2, 3)
        s1, s2 = seg([0, 0, 0], [1, 0, 0]), seg([0, 1, 1], [1, 1, 1])
        t = np.linspace(0, 1, 1001)
        p1 = s1.a + t[:, None] * (s1.b - s1.a)
        p2 = s2.a + t[:, None] * (s2.b - s2.a)
        brute = math.inf
        for row in p1:
            brute = min(brute, float(np.min(np.linalg.norm(p2 - row, axis=1))))
        got = segment_segment_distance(space, s1, s2)
        assert brute == pytest.approx(math.sqrt(2), abs=1e-5)
        assert got == pytest.approx(math.sqrt(2), abs=1e-8)


# Polyhedral spaces with their norms written as blocks for the LP oracle:
# one l-inf block shares a bound variable, l1 coordinates get one each.
POLYHEDRAL = {f"lp:{p}:{n}": [(list(range(n)), p)] for p in ("1", "inf") for n in range(2, 6)}
POLYHEDRAL["l1sum:lp:inf:2+lp:1:2"] = [([0, 1], "inf"), ([2, 3], "1")]


def _lp_segment_distance(blocks, w, u, v):
    """min over (s, t) in [0,1]^2 of ||w + s*u - t*v|| as the linear program
    min sum(z) s.t. +-(w + s*u - t*v)_k <= z_(block of k)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    zvar = {}
    for coords, kind in blocks:
        for k in coords:
            zvar[k] = len(set(zvar.values())) if kind == "1" or k == coords[0] else zvar[coords[0]]
    nz = len(set(zvar.values()))
    a_ub, b_ub = [], []
    for k in range(len(w)):
        for sign in (1.0, -1.0):
            row = np.zeros(2 + nz)
            row[:2] = sign * u[k], -sign * v[k]
            row[2 + zvar[k]] = -1.0
            a_ub.append(row)
            b_ub.append(-sign * w[k])
    res = linprog(np.r_[0.0, 0.0, np.ones(nz)], A_ub=np.array(a_ub), b_ub=b_ub,
                  bounds=[(0, 1), (0, 1)] + [(None, None)] * nz, method="highs")
    assert res.status == 0
    return res.fun


def _quarters(n):
    return st.lists(st.integers(-8, 8), min_size=n, max_size=n).map(
        lambda x: np.array(x, dtype=float) / 4)


def _reals(n):
    return st.lists(st.floats(-2, 2), min_size=n, max_size=n).map(np.array)


class TestPolyhedralKernels:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), desc=st.sampled_from(sorted(POLYHEDRAL)),
           case=st.sampled_from(["generic", "parallel", "collinear",
                                 "intersecting", "zero-length"]))
    def test_segment_kernel_matches_linprog(self, data, desc, case):
        space = parse_space(desc)
        n = space.dim
        vec = _reals(n) if case == "generic" else _quarters(n)
        a1, b1, a2, b2 = (data.draw(vec) for _ in range(4))
        lam = data.draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
        if case == "parallel":
            b2 = a2 + lam * (b1 - a1)
        elif case == "collinear":
            a2, b2 = a1 + lam * (b1 - a1), a1 + 0.75 * lam * (b1 - a1)
        elif case == "intersecting":
            hit = a1 + 0.5 * (b1 - a1)
            a2, b2 = hit - 0.5 * (b2 - a2), hit + 0.5 * (b2 - a2)
        elif case == "zero-length":
            b1 = a1.copy()
        want = _lp_segment_distance(POLYHEDRAL[desc], a1 - a2, b1 - a1, b2 - a2)
        vals, err = segment_pairs_distance(space, a1[None], b1[None], a2[None], b2[None])
        tol = 1e-9 * (1 + want)
        event(f"{case} ill={bool(np.isinf(err[0]))}")
        assert vals[0] >= want - tol        # attained: never below the minimum
        assert vals[0] - err[0] <= want + tol
        if np.isfinite(err[0]):
            assert vals[0] <= want + tol    # exact
        assert segment_segment_distance(space, Segment(a1, b1), Segment(a2, b2)) == vals[0]

    @pytest.mark.parametrize("desc", sorted(POLYHEDRAL))
    def test_point_kernel_matches_dense_grid(self, desc):
        space = parse_space(desc)
        rng = np.random.default_rng(5)
        t = np.linspace(0, 1, 20_001)
        for trial in range(20):
            a, b, p = rng.normal(size=(3, space.dim)) * 2
            if trial % 5 == 0:
                b = a.copy()
            brute = float(np.min(norms(space, a + t[:, None] * (b - a) - p)))
            got, err = points_segment_distance(space, p[None], a, b)
            grid_err = norms(space, (b - a)[None])[0] / 20_000
            assert np.isfinite(err[0])
            assert brute - grid_err - 1e-12 <= got[0] <= brute + 1e-12

    @pytest.mark.parametrize("desc", sorted(POLYHEDRAL))
    def test_exact_within_nested_search_bounds(self, desc):
        space = parse_space(desc)
        rng = np.random.default_rng(17)
        a1, b1, a2, b2 = rng.normal(size=(4, 40, space.dim))
        b2[:10] = a2[:10] + 0.5 * (b1[:10] - a1[:10])          # parallel
        exact, _ = segment_pairs_distance(space, a1, b1, a2, b2)
        nested, err = spaces._segment_pairs_search(space, a1, b1, a2, b2, 52)
        assert np.all(exact <= nested + 1e-12)
        assert np.all(exact >= nested - err)
        exact, _ = points_segment_distance(space, a2, a1, b1)
        nested, err = spaces._points_segment_search(space, a2, a1, b1)
        assert np.all(exact <= nested + 1e-12)
        assert np.all(exact >= nested - err)

    def test_nearly_parallel_pair_is_left_to_the_nested_search(self):
        # the kink lines of e1 + e2 and e1 - e2 meet inside the box at an
        # angle of about 1e-11: the enumeration flags the pair, its value
        # stays an attained upper bound
        space = parse_space("lp:inf:3")
        a1, b1 = np.array([[0.0, 0, 0]]), np.array([[1.0, 0.2, 0]])
        a2, b2 = np.array([[0.0, 0, 0.5]]), np.array([[1.0, 0.2 + 1e-11, 0.5]])
        vals, err = segment_pairs_distance(space, a1, b1, a2, b2)
        assert np.isinf(err[0]) and vals[0] == pytest.approx(0.5, abs=1e-12)
        nested, nested_err = spaces._segment_pairs_search(space, a1, b1, a2, b2, 52)
        assert np.isfinite(nested_err[0]) and nested[0] == pytest.approx(0.5, abs=1e-8)

    def test_non_polyhedral_norms_keep_the_nested_search(self):
        rng = np.random.default_rng(2)
        a1, b1, a2, b2 = rng.normal(size=(4, 5, 3))
        for desc in ("lp:3:3", "l1sum:lp:2:2+lp:1:1"):
            space = parse_space(desc)
            assert np.array_equal(segment_pairs_distance(space, a1, b1, a2, b2)[0],
                                  spaces._segment_pairs_search(space, a1, b1, a2, b2, 52)[0])


def sphere_roots(space, center, radius, s):
    """The parameters t where ||s(t) - center|| = radius, in increasing
    order, from one row of _sphere_roots: a side holds a root where vmin <=
    radius <= its end value, and the two roots of a tangency, merged, count
    once."""
    (vmin, v0, v1), roots = spaces._sphere_roots(space, s.a[None], s.b[None],
                                                 np.asarray(center, dtype=float), radius)
    hits = [float(t[0]) for t, v in zip(roots, (v0, v1)) if v[0] >= radius >= vmin[0]]
    return list(dict.fromkeys(hits))


class TestSphereSegment:
    def test_horizontal_chord(self):
        roots = sphere_roots(lp_space(2, 2), [0, 0], 1.0, seg([-2, 0], [2, 0]))
        assert roots == pytest.approx([0.25, 0.75], abs=1e-9)

    def test_segment_outside_ball(self):
        roots = sphere_roots(lp_space(2, 2), [0, 0], 1.0, seg([2, 2], [3, 2]))
        assert roots == []

    def test_l1_crossings_analytic(self):
        # segment (-2,-1) -> (2,1) passes through the origin; the l1 norm
        # along it is 6|t - 1/2|, so the unit sphere is hit at 1/3 and 2/3
        roots = sphere_roots(lp_space(1, 2), [0, 0], 1.0, seg([-2, -1], [2, 1]))
        assert roots == pytest.approx([1 / 3, 2 / 3], abs=1e-9)

    def test_l1_face_parallel_segment_misses_smaller_sphere(self):
        # this segment lies on the l1 sphere of radius 2 (constant norm),
        # so it meets no sphere of radius < 2 and re-evaluates to 2 on hits
        space = lp_space(1, 2)
        s = seg([0, -2], [2, 0])
        assert sphere_roots(space, [0, 0], 1.0, s) == []
        roots = sphere_roots(space, [0, 0], 2.0, s)
        for t in roots:
            assert norms(space, s.point(t)[None])[0] == pytest.approx(2.0, abs=1e-8)

    def test_roots_reevaluate_to_radius(self):
        rng = np.random.default_rng(5)
        for space in (lp_space(2, 3), lp_space(1, 3), lp_space(math.inf, 3)):
            hits = 0
            for _ in range(200):
                a, b = rng.normal(size=(2, 3)) * 2
                radius = float(rng.uniform(0.3, 2.0))
                for t in sphere_roots(space, [0, 0, 0], radius, Segment(a, b)):
                    hits += 1
                    assert norms(space, (a + t * (b - a))[None])[0] == pytest.approx(
                        radius, abs=1e-7)
            assert hits > 50  # the sweep actually exercised crossings

    def test_ball_clip_interval(self):
        lo, hi, meets = ball_cuts(lp_space(2, 2), np.array([[-2.0, 0.0], [2.0, 2.0]]),
                                  np.array([[2.0, 0.0], [3.0, 2.0]]), np.zeros(2), 1.0)
        assert meets.tolist() == [True, False]
        assert (lo[0], hi[0]) == pytest.approx((0.25, 0.75), abs=1e-9)


def scalar_sphere_roots(space, center, radius, s, tol=PARAM_TOL):
    """sphere_roots as it was written before the batched root finder, kept
    as its reference: a ternary search for the minimum, then a scalar
    bisection of each side that reaches the radius."""
    center = np.asarray(center, dtype=np.float64)
    a = s.a

    def f(tvals):
        return _norms_nd(space, a + tvals[..., None] * (s.b - a) - center)

    def f1(t):
        return float(f(np.array([t]))[0])

    tmin, vmin = _ternary_batch(f, np.zeros(1), np.ones(1))
    tmin, vmin = float(tmin[0]), float(vmin[0])
    if vmin > radius:
        return []
    roots = []
    if f1(0.0) >= radius:
        lo, hi = 0.0, tmin
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f1(mid) >= radius:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    if f1(1.0) >= radius:
        lo, hi = tmin, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f1(mid) <= radius:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    if len(roots) == 2 and abs(roots[0] - roots[1]) < tol:
        return [0.5 * (roots[0] + roots[1])]
    return roots


def scalar_ball_clip(space, a, b, center, radius):
    """The cut of one segment by a ball, (lo, hi) or None, as it was written
    before ball_cuts, from the roots' count and which ends lie inside; kept
    as its reference (it takes a lone left root for the end of the cut when
    a lies on the sphere)."""
    s = seg(a, b)
    roots = scalar_sphere_roots(space, center, radius, s)
    va, vb = (norms(space, (x - np.asarray(center, dtype=float))[None])[0] for x in (s.a, s.b))
    inside_a, inside_b = va <= radius, vb <= radius
    if not roots:
        return (0.0, 1.0) if inside_a and inside_b else None
    if len(roots) == 1:
        t = roots[0]
        if inside_a:
            return (0.0, t)
        return (t, 1.0) if inside_b else (t, t)
    return (roots[0], roots[1])


REFERENCE_SPACES = pytest.mark.parametrize(
    "space", [parse_space(d) for d in ("lp:2:3", "lp:inf:3", "lp:1:3", "lp:3:3",
                                       "l1sum:lp:2:2+lp:1:1")],
    ids=["lp:2:3", "lp:inf:3", "lp:1:3", "lp:3:3", "l1sum"])


def _random_segments(seed, k=150):
    """k segments and radii around the origin: chords, segments ending
    inside, segments missing the ball and near-tangent ones."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, 3)) * rng.uniform(0.2, 2.5, (k, 1))
    b = rng.normal(size=(k, 3)) * rng.uniform(0.2, 2.5, (k, 1))
    return a, b, rng.uniform(0.3, 2.0, k)


class TestBatchedBallCut:
    """The batched root finder and ball cut against the scalar code they
    replaced (kept above), bit for bit, and against dense sampling where the
    two differ: where an end of the segment lies exactly on the sphere."""

    @REFERENCE_SPACES
    def test_roots_bitwise_equal_to_the_scalar_search(self, space):
        a, b, radius = _random_segments(1)
        counts = set()
        for k in range(len(a)):
            got = sphere_roots(space, [0, 0, 0], radius[k], seg(a[k], b[k]))
            want = scalar_sphere_roots(space, np.zeros(3), radius[k], seg(a[k], b[k]))
            assert np.array_equal(np.array(got), np.array(want))
            counts.add(len(got))
        assert counts == {0, 1, 2}

    @REFERENCE_SPACES
    def test_many_rows_equal_one_row_each(self, space):
        a, b, _ = _random_segments(5, 40)
        center, radius = np.random.default_rng(5).normal(size=(40, 3)), 1.3
        many = spaces._sphere_roots(space, a, b, center, radius)
        for k in range(len(a)):
            one = spaces._sphere_roots(space, a[k:k + 1], b[k:k + 1], center[k], radius)
            for x, y in zip(many[0] + many[1], one[0] + one[1]):
                assert x[k] == y[0]

    @pytest.mark.parametrize("space", [lp_space(2, 2), lp_space(math.inf, 2)],
                             ids=["lp:2:2", "lp:inf:2"])
    def test_close_roots_merge_to_one(self, space):
        # a segment of length 1e10 through the center crosses the unit
        # sphere at 1/2 -+ 1e-10, closer than PARAM_TOL: one root, the
        # midpoint, with the scalar merge's bits
        s = seg([-5e9, 0.0], [5e9, 0.0])
        got = sphere_roots(space, [0, 0], 1.0, s)
        assert got == scalar_sphere_roots(space, np.zeros(2), 1.0, s)
        assert len(got) == 1 and got[0] == pytest.approx(0.5, abs=1e-9)
        # the merge is _sphere_roots' own: ball_cuts' cut shrinks to that root
        lo, hi, meets = ball_cuts(space, s.a[None], s.b[None], np.zeros(2), 1.0)
        assert meets[0] and lo[0] == hi[0] == got[0]

    @REFERENCE_SPACES
    def test_clip_bitwise_equal_to_the_scalar_clip(self, space):
        # all rows in one batched call, each against the scalar clip
        a, b, _ = _random_segments(2)
        kinds = set()
        for k, (lo, hi, meets) in enumerate(zip(*spaces.ball_cuts(
                space, a, b, np.zeros(3), 1.1))):
            want = scalar_ball_clip(space, a[k], b[k], np.zeros(3), 1.1)
            assert meets == (want is not None)
            if meets:
                assert np.array_equal([lo, hi], want)
                kinds.add((lo == 0.0, hi == 1.0))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def test_start_on_the_sphere_and_end_inside_is_wholly_inside(self):
        # the scalar clip returned (0, 5.55e-17) for the l2 case
        for space, a, b in ((lp_space(2, 2), [1, 0], [0, 0.5]),
                            (lp_space(1, 3), [0.25, 0.25, 0.5], [0, 0, 0.5]),
                            (lp_space(2, 2), [0, 0.5], [1, 0])):
            lo, hi, meets = ball_cuts(space, np.array([a], dtype=float),
                                      np.array([b], dtype=float), np.zeros(space.dim), 1.0)
            assert meets[0] and (lo[0], hi[0]) == (0.0, 1.0)

    @pytest.mark.parametrize("space", [lp_space(2, 2), lp_space(1, 2), lp_space(math.inf, 2)],
                             ids=["lp:2:2", "lp:1:2", "lp:inf:2"])
    def test_ends_on_the_sphere_against_dense_sampling(self, space):
        # ends exactly on the unit sphere (coordinates exact in binary), the
        # other end anywhere: the cut holds every sampled point strictly
        # inside the ball and no point outside it
        on = {1.0: [[1, 0], [0, -1], [-0.5, 0.5], [0.75, -0.25]],
              2.0: [[1, 0], [0, -1], [0.6, 0.8], [-0.8, 0.6]],
              math.inf: [[1, 0.5], [-0.25, 1], [1, -1], [-1, 0]]}[space.p]
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 1.0, 4001)
        ends = [(a, b) for x in map(np.array, on)
                for y in rng.normal(size=(25, 2)) * rng.uniform(0.1, 2.0, (25, 1))
                for a, b in ((x, y), (y, x))]
        a, b = (np.array(z) for z in zip(*ends))
        cases = 0
        for k, (lo, hi, meets) in enumerate(zip(*ball_cuts(space, a, b, np.zeros(2), 1.0))):
            f = norms(space, a[k] + t[:, None] * (b[k] - a[k]))
            if not meets:
                assert not np.any(f < 1.0 - 1e-9)
                continue
            assert np.all((t >= lo - 1e-6) & (t <= hi + 1e-6) | (f > 1.0 - 1e-9))
            assert np.all(f[(t >= lo) & (t <= hi)] <= 1.0 + 1e-9)
            cases += 1
        assert cases > 120


class TestSplitBlocks:
    """_in_blocks splits the polyhedral enumerations into row blocks of at
    most _ENUM_POINTS candidates; the rows come out bit for bit as from one
    block."""

    @pytest.mark.parametrize("limit", [1, 7, 64])
    @pytest.mark.parametrize("desc", ["lp:1:3", "lp:inf:3", "l1sum:lp:2:2+lp:1:1"])
    def test_split_rows_equal_the_whole(self, monkeypatch, desc, limit):
        space = parse_space(desc)
        rng = np.random.default_rng(4)
        pts, a, b, a2, b2 = rng.normal(size=(5, 50, 3))
        whole = (points_segment_distance(space, pts, a, b),
                 segment_pairs_distance(space, a, b, a2, b2))
        monkeypatch.setattr(spaces, "_ENUM_POINTS", limit)
        split = (points_segment_distance(space, pts, a, b),
                 segment_pairs_distance(space, a, b, a2, b2))
        for (v0, e0), (v1, e1) in zip(whole, split):
            assert np.array_equal(v0, v1) and np.array_equal(e0, e1)


L3_CUSTOM = custom_space(3, lambda x: np.sum(np.abs(x) ** 3, axis=1) ** (1 / 3),
                         box_factor=1.0, vectorized=True)
CLEAR_SPACES = {d: parse_space(d) for d in ("lp:2:3", "lp:inf:3", "lp:1:3",
                                            "l1sum:lp:2:2+lp:1:1")}
CLEAR_SPACES["custom-l3"] = L3_CUSTOM


def _sampled_min(space, x, y):
    """The least norm of a difference between samples of x and of y, each a
    point (dim,) or a segment (2, dim): a grid of 201 parameters along each
    segment, then three grids, each 20 times finer than the one before,
    around the best pair of the one before."""
    def grid(z, t):
        return z[None] if z.ndim == 1 else z[0] + t[:, None] * (z[1] - z[0])

    s = t = np.linspace(0.0, 1.0, 201)
    best = math.inf
    for _ in range(4):
        gaps = norms(space, (grid(x, s)[:, None] - grid(y, t)[None]).reshape(-1, space.dim))
        a, b = divmod(int(np.argmin(gaps)), len(t))
        best = min(best, float(gaps.min()))
        h = s[1] - s[0]
        s, t = (np.clip(np.linspace(c - h, c + h, 41), 0.0, 1.0) for c in (s[a], t[b]))
    return best


class TestClearCertifies:
    """The certification invariant at points_clear and segments_clear: a
    candidate they pass has no densely sampled point pair closer than need.
    Sampled distances can only overestimate the true minima, so a sample
    under need proves an uncertified pass.  need sits near the sampled
    distance of one pair, at offsets down to the error bounds of the
    searches, so each step of the chain gets to decide; the pairs sit at
    shuffled rows, and the pair budget is drawn too."""

    @pytest.mark.parametrize("kind", ["points", "segments"])
    @pytest.mark.parametrize("desc", sorted(CLEAR_SPACES))
    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_passed_candidates_keep_their_clearance(self, desc, kind, data):
        space = CLEAR_SPACES[desc]
        vec = data.draw(st.sampled_from([_reals(3), _quarters(3)]))

        def segment():
            return np.stack([data.draw(vec), data.draw(vec)])

        m = data.draw(st.integers(1, 4))
        owner = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6)))
        x = np.array([data.draw(vec) if kind == "points" else segment() for _ in owner])
        y = np.array([segment() for _ in owner])
        gaps = [_sampled_min(space, a, b) for a, b in zip(x, y)]
        near = gaps[data.draw(st.integers(0, len(owner) - 1))]
        offset = st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4])
        need = near * (1 + data.draw(st.one_of(offset, st.floats(-0.02, 0.02))))
        i, j = (np.array(data.draw(st.permutations(range(len(owner))))) for _ in range(2))
        xs, ys = np.empty_like(x), np.empty_like(y)
        xs[i], ys[j] = x, y  # pair r is xs[i[r]] against ys[j[r]]
        clear = spaces.points_clear if kind == "points" else spaces.segments_clear
        with mock.patch.object(spaces, "_CLEAR_PAIRS", data.draw(st.sampled_from([1, 2, 1024]))):
            ok = clear(space, xs, ys, i, j, owner, m, need)
        event(f"passed {int(ok.sum())} of {m}")
        for c in np.flatnonzero(ok):
            assert all(gaps[r] >= need for r in np.flatnonzero(owner == c))


class TestClearRejectsUndecided:
    """A pair that the last search leaves undecided fails its candidate: at
    need = v - err/2, where (v, err) is that search's bound, the value
    neither rejects the pair (v >= need) nor certifies it (v - err < need).
    At need = v - 2 * err the search certifies it.  No sampling oracle
    resolves a gap of err, so the pairs and needs are built by hand, on the
    custom l3 norm, which has no exact kernel."""

    A, B = np.array([[1.0, 0.5, -0.4]]), np.array([[-0.6, 1.7, 0.8]])
    ONE = np.zeros(1, dtype=np.int64)

    @pytest.mark.parametrize("kind", ["points", "segments"])
    def test_undecided_pair_is_rejected(self, kind):
        segs = np.stack([self.A, self.B], axis=1)
        if kind == "points":
            x = np.array([[0.3, -0.2, 0.9]])
            v, err = spaces._points_segment_search(L3_CUSTOM, x, self.A, self.B)
            clear = spaces.points_clear
        else:
            x = np.array([[[0.1, 1.5, -0.7], [0.5, -0.3, 1.3]]])
            v, err = spaces._segment_pairs_search(L3_CUSTOM, x[:, 0], x[:, 1],
                                                  self.A, self.B)
            clear = spaces.segments_clear
        v, err = float(v[0]), float(err[0])
        assert 0 < err < 1e-7

        def passed(need):
            return bool(clear(L3_CUSTOM, x, segs, self.ONE, self.ONE, self.ONE, 1, need)[0])

        assert not passed(v - err / 2)
        assert passed(v - 2 * err)


class TestBoxNear:
    """box_near drops only pairs that the kernels certify at need."""

    @pytest.mark.parametrize("need", [0.05 + 1e-9, 0.0025 + 1e-9])
    @pytest.mark.parametrize("desc", sorted(CLEAR_SPACES))
    def test_dropped_pairs_are_certified(self, desc, need):
        space = CLEAR_SPACES[desc]
        rng = np.random.default_rng(17)
        reach = 2 * need * space.box_factor
        # segments and points spread over a few reach widths, so that both
        # sides of the cut are crowded; some segments degenerate to points
        x = rng.uniform(0, 4 * reach, (40, 1, 3)) + rng.normal(size=(40, 2, 3)) * reach / 2
        x[::10, 1] = x[::10, 0]
        y = rng.uniform(0, 4 * reach, (40, 1, 3)) + rng.normal(size=(40, 2, 3)) * reach / 2
        pts = rng.uniform(0, 4 * reach, (40, 3))
        seg_mask = spaces.box_near(space, x, y, need)
        pt_mask = spaces.box_near(space, x, pts, need)
        assert 0.1 < seg_mask.mean() < 0.9 and 0.1 < pt_mask.mean() < 0.9
        i, j = np.nonzero(~seg_mask)
        value, err = segment_pairs_distance(space, x[i, 0], x[i, 1], y[j, 0], y[j, 1])
        assert np.all(value - err >= need)
        i, j = np.nonzero(~pt_mask)
        value, err = points_segment_distance(space, pts[j], x[i, 0], x[i, 1])
        assert np.all(value - err >= need)


class TestSampling:
    def test_samples_inside_ball(self):
        rng = np.random.default_rng(1)
        space = lp_space(2, 3)
        pts = sample_ball_many(space, [1.0, -1.0, 0.5], 0.7, 2000, rng)
        assert np.all(norms(space, pts - np.array([1.0, -1.0, 0.5])) <= 0.7)

    def test_mean_near_center(self):
        rng = np.random.default_rng(2)
        pts = sample_ball_many(lp_space(2, 3), [0, 0, 0], 1.0, 10_000, rng)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.05)

    def test_acceptance_rate_matches_ball_volume(self):
        # the l2 sampler keeps the box draws that land in the ball: a share
        # volume(unit l2 ball in R^3) / volume(cube) = (4/3)pi / 8 = pi/6
        rng = np.random.default_rng(3)
        box = sample_ball_many(lp_space(math.inf, 3), [0, 0, 0], 1.0, 50_000, rng)
        inside = norms(lp_space(2, 3), box) <= 1.0
        assert np.mean(inside) == pytest.approx(math.pi / 6, abs=0.02)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(4)
        pts = sample_ball_many(lp_space(2, 3), [0, 0, 0], 1.0, 100_000, rng)
        frac = np.mean(pts > 0, axis=0)
        assert np.all((frac > 0.48) & (frac < 0.52))

    def test_loose_box_factor_exhausts_the_budget(self):
        # a unit ball filling ~5e-10 of its box: the sampler must give up
        # after _SAMPLE_BUDGET * count draws, not loop
        drawn = [0]

        def l2(x):
            drawn[0] += len(x)
            return np.sqrt(np.sum(x * x, axis=1))

        space = custom_space(3, l2, box_factor=1000.0, vectorized=True)
        drawn[0] = 0
        with pytest.raises(SamplingError, match="box_factor"):
            sample_ball_many(space, [0, 0, 0], 1.0, 3, np.random.default_rng(6))
        assert drawn[0] == 10_000 * 3

    def test_single_sample(self):
        rng = np.random.default_rng(5)
        p = sample_ball_many(lp_space(math.inf, 2), [0, 0], 2.0, 1, rng)
        assert p.shape == (1, 2) and norms(lp_space(math.inf, 2), p)[0] <= 2.0


class TestSerialization:
    def test_lp_roundtrip(self):
        for space in (lp_space(2, 3), lp_space(math.inf, 2), lp_space(1, 4)):
            again = space_from_json(space_to_json(space))
            assert again == space

    def test_l1sum_roundtrip(self):
        space = direct_sum_l1(lp_space(2, 2), lp_space(math.inf, 3))
        assert space_from_json(space_to_json(space)) == space

    def test_descriptor_grammar(self):
        assert parse_space("lp:2:3") == lp_space(2, 3)
        assert parse_space("lp:inf:2") == lp_space(math.inf, 2)
        assert parse_space("l1sum:lp:2:2+lp:1:1") == direct_sum_l1(
            lp_space(2, 2), lp_space(1, 1))

    def test_descriptor_rejects_garbage(self):
        for bad in ("lp:2", "l1sum:lp:2:2", "foo:1:2", "lp:0.5:2", "lp:2:2x"):
            with pytest.raises(ValidationError):
                parse_space(bad)
