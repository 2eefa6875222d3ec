import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netembed import gadgets
from netembed import (DistortionReport, FiniteMetric, InternalConsistencyError,
                      ValidationError, anchor_map,
                      audit_anchor_map, audit_product_map, bfs_apsp, bfs_from,
                      build_gadget, build_net_graph, from_edges,
                      gadget_to_json, graph_to_json, is_connected, lp_space,
                      max_degree,
                      mg_positions, norm, place_edges, practical_params,
                      product_positions, subdivide, verify_product_cases)


def k2():
    return from_edges(2, [(0, 1)])


def k3():
    return from_edges(3, [(0, 1), (0, 2), (1, 2)])


def star(k):
    return from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


class TestSubdivide:
    def test_k2_becomes_path(self):
        sub = subdivide(k2(), 3)
        assert sub.graph.n == 4
        assert bfs_apsp(sub.graph)[0, 1] == 3

    def test_c3_doubling_gives_c6(self):
        c3 = k3()
        sub = subdivide(c3, 2)
        d = bfs_apsp(sub.graph)
        base_d = bfs_apsp(c3)
        for u in range(3):
            for v in range(3):
                assert d[u, v] == 2 * base_d[u, v]
        degs = sorted(len(a) for a in sub.graph.adj)
        assert degs == [2] * 6  # it is a 6-cycle

    def test_m1_is_identity(self):
        g = star(3)
        sub = subdivide(g, 1)
        assert sub.graph.n == g.n
        assert sub.graph.edges == g.edges

    def test_distance_scaling_property(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n = int(rng.integers(4, 9))
            edges = {(i, i + 1) for i in range(n - 1)}
            for _ in range(n):
                u, v = sorted(rng.integers(0, n, size=2).tolist())
                if u != v:
                    edges.add((u, v))
            g = from_edges(n, sorted(edges))
            m_val = int(rng.integers(2, 6))
            sub = subdivide(g, m_val)
            assert sub.graph.n == g.n + (m_val - 1) * g.edge_count
            d_base = bfs_apsp(g)
            d_sub = bfs_apsp(sub.graph)
            assert np.array_equal(d_sub[:n, :n], m_val * d_base)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=8)))
    return from_edges(n, sorted(edges))


class TestSubdividedRows:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(g=connected_graphs(), m_val=st.integers(1, 6))
    def test_closed_form_rows_equal_bfs(self, g, m_val):
        sub = subdivide(g, m_val)
        rows = sub.hop_metric()
        assert rows.size == sub.graph.n
        for i in range(sub.graph.n):
            row = rows.row(i)
            assert row.dtype == np.float64
            assert np.array_equal(row, bfs_from(sub.graph, i))
        assert gadgets.edges_to_json(sub.n, sub.edge_ends()) == graph_to_json(sub.graph)

    def test_disconnected_base_raises(self):
        sub = subdivide(from_edges(4, [(0, 1), (2, 3)]), 3)
        with pytest.raises(ValidationError):
            sub.hop_metric()


class TestGadgetRows:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(g=connected_graphs().filter(lambda g: g.edge_count > 0),
           m_val=st.one_of(st.integers(1, 6), st.none()))
    def test_closed_form_rows_equal_bfs(self, g, m_val):
        h = build_gadget(g, m_val or 2 * g.edge_count + 1)  # None: M = 2e+1
        rows = h.hop_metric()
        assert rows.size == h.graph.n
        for i in range(h.graph.n):
            row = rows.row(i)
            assert row.dtype == np.float64
            assert np.array_equal(row, bfs_from(h.graph, i))
        # the layout-derived listing, degree and connectivity match the graph
        assert gadget_to_json(h)["graph"] == graph_to_json(h.graph)
        assert h.max_degree() == max_degree(h.graph)
        assert is_connected(h.graph)

    def test_unreachable_raises(self, monkeypatch):
        monkeypatch.setattr(gadgets, "is_connected", lambda g: True)
        h = build_gadget(from_edges(4, [(0, 1), (2, 3)]), 3)
        rows = h.hop_metric()
        for i in (0, h.graph.n - 1):  # a port and a long-path vertex
            with pytest.raises(ValidationError):
                rows.row(i)

    def test_audits_run_no_bfs_on_the_gadget(self, triangle_embedding, monkeypatch):
        from netembed import graphs
        space, emb = triangle_embedding
        m_val = 2 * emb.netgraph.graph.edge_count + 1
        sub, pos = mg_positions(emb, m_val)
        h = build_gadget(emb.netgraph.graph, m_val)
        bfs = graphs.bfs_from

        def guarded(g, source):
            if g.n == h.graph.n:
                raise AssertionError("BFS on the gadget")
            return bfs(g, source)

        monkeypatch.setattr(graphs, "bfs_from", guarded)
        monkeypatch.setattr(gadgets, "bfs_from", guarded, raising=False)
        audit_anchor_map(h)
        pa = audit_product_map(h, pos, space)
        assert pa.forward_ok and pa.inverse_ok
        assert verify_product_cases(h, pos, space)


class TestBuildGadget:
    def test_k2_shape(self):
        h = build_gadget(k2(), 5)
        assert h.graph.n == 6  # two 1-vertex short paths + 4 interior
        assert max_degree(h.graph) == 2

    def test_k3_shape(self):
        h = build_gadget(k3(), 4)
        assert h.graph.n == 3 * 3 + 3 * 3
        assert max_degree(h.graph) == 3

    def test_star_connected_degree_three(self):
        h = build_gadget(star(3), 3)
        assert is_connected(h.graph)
        assert max_degree(h.graph) == 3

    def test_degree_three_for_many_bases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            edges = {(i, i + 1) for i in range(n - 1)}
            for _ in range(n):
                u, v = sorted(rng.integers(0, n, size=2).tolist())
                if u != v:
                    edges.add((u, v))
            g = from_edges(n, sorted(edges))
            h = build_gadget(g, int(rng.integers(1, 7)))
            assert max_degree(h.graph) <= 3
            assert is_connected(h.graph)

    def test_short_path_label_attachment(self):
        # vertex (u, label i) touches long path i exactly when edge i is
        # incident to u; otherwise its degree stays <= 2
        g = star(3)
        h = build_gadget(g, 4)
        e = len(h.edge_list)
        for u in range(g.n):
            for i in range(e):
                vid = int(h.short_ids[u, i])
                deg = len(h.graph.adj[vid])
                incident = u in h.edge_list[i]
                chain = (2 if 0 < i < e - 1 else 1) if e > 1 else 0
                assert deg == chain + (1 if incident else 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            build_gadget(from_edges(2, []), 3)  # no edges
        with pytest.raises(ValidationError):
            build_gadget(from_edges(4, [(0, 1), (2, 3)]), 3)  # disconnected

    def test_json_metadata(self):
        obj = gadget_to_json(build_gadget(k3(), 3))
        assert obj["metadata"]["short_path_vertices"] == 3
        assert obj["M"] == 3


def loop_anchor_report(h, enforce=True):
    """Scalar pair-by-pair reference for audit_anchor_map, on full hop rows."""
    e = len(h.edge_list)
    amap = anchor_map(h)
    d_g, hops = bfs_apsp(h.base), h.hop_metric()
    d_h = {int(a): hops.row(int(a)) for a in amap}
    lip_f = lip_i = 0.0
    wit_f = wit_i = (0, 1)
    pairs = 0
    for u in range(h.base.n):
        for v in range(u + 1, h.base.n):
            dh, dg = int(d_h[int(amap[u])][int(amap[v])]), int(d_g[u, v])
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


class TestAnchorMap:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g=connected_graphs().filter(lambda g: g.edge_count > 0),
           m_val=st.integers(1, 6), anchor=st.integers(1, 8))
    def test_report_matches_loop_reference(self, g, m_val, anchor):
        h = build_gadget(g, m_val, psi_anchor=min(anchor, g.edge_count))
        got, want = audit_anchor_map(h), loop_anchor_report(h)
        assert got == want
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("skew, message", [
        (lambda r: r - 1, "pair (0,1): d_G=1, d_H=2, M=3, e=3"),  # M*d_G <= d_H, by one
        (lambda r: r * 10, "pair (0,1): d_G=1, d_H=30, M=3, e=3"),  # d_H <= (2e+M)*d_G
    ], ids=["lower", "upper"])
    def test_violation_reports_first_failing_pair(self, monkeypatch, skew, message):
        h = build_gadget(star(3), 3)
        rows = h.hop_metric()
        skewed = FiniteMetric(rows.size, lambda i: skew(rows.row(i)))
        monkeypatch.setattr(type(h), "hop_metric", lambda self: skewed)
        with pytest.raises(InternalConsistencyError) as got:
            audit_anchor_map(h)
        with pytest.raises(InternalConsistencyError) as want:
            loop_anchor_report(h)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "anchor-map bound failed on " + message
        assert audit_anchor_map(h, enforce=False) == loop_anchor_report(h, enforce=False)

    def test_k2_m5_distance(self):
        h = build_gadget(k2(), 5)
        amap = anchor_map(h)
        d = bfs_apsp(h.graph)
        assert d[amap[0], amap[1]] == 5  # within [M, 2e+M] = [5, 7]

    def test_bounds_hold_exhaustively(self):
        for g in (k3(), star(3)):
            e = g.edge_count
            for m_val in (e, e + 1, 10 * e):
                h = build_gadget(g, m_val)
                rep = audit_anchor_map(h)  # raises on a bound violation
                assert rep.lip_forward <= 2 * e + m_val
                assert rep.lip_inverse <= 1.0 / m_val + 1e-15

    def test_distortion_improves_with_m(self):
        g = k3()
        e = g.edge_count
        dists = [audit_anchor_map(build_gadget(g, m)).distortion
                 for m in (e, 10 * e, 100 * e)]
        assert dists[0] >= dists[1] >= dists[2]
        assert dists[0] <= (2 * e + e) / e  # M = e gives distortion <= 3
        assert dists[2] < 1.1


@pytest.fixture(scope="module")
def small_embedding():
    space = lp_space(2, 3)
    ng = build_net_graph(space, 1.0, 1.44)
    params = practical_params(beta=0.02, seed=3)
    emb = place_edges(space, ng, params, np.random.default_rng([3, 1]))
    return space, emb


@pytest.fixture(scope="module")
def triangle_embedding():
    # hand 3-point unit-scale net in l2^3, so exhaustive pair checks on its
    # gadget stay tiny
    from netembed import Net, net_graph_from_net
    space = lp_space(2, 3)
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.8, 0.0]])
    ng = net_graph_from_net(Net(space, 1.0, 2.1, pts, 1.0))
    emb = place_edges(space, ng, practical_params(beta=0.02, seed=9),
                      np.random.default_rng([9, 1]))
    return space, emb


def loop_h_to_sub(h, sub):
    """Scalar reference for gadgets._h_to_sub."""
    out = np.empty(h.graph.n, dtype=np.int64)
    for u in range(h.base.n):
        out[h.short_ids[u]] = u
    for j in range(len(h.edge_list)):
        for k in range(h.M - 1):
            out[h.long_interior[j, k]] = sub.interior_id(j, k)
    return out


def loop_labels(h):
    """Scalar reference for the label coordinate of product_positions."""
    labels = np.empty(h.graph.n)
    for u in range(h.base.n):
        labels[h.short_ids[u]] = np.arange(1, len(h.edge_list) + 1)
    for j in range(len(h.edge_list)):
        labels[h.long_interior[j]] = j + 1
    return labels


class TestProductMap:
    @pytest.mark.parametrize("base", [k2(), k3(), star(3)], ids=["k2", "k3", "star3"])
    @pytest.mark.parametrize("m_val", [1, 2, 5])
    def test_vertex_map_matches_loop_reference(self, base, m_val):
        h = build_gadget(base, m_val)
        sub = subdivide(base, m_val)
        assert np.array_equal(gadgets._h_to_sub(h, sub), loop_h_to_sub(h, sub))

    def test_labels_match_loop_reference(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        images, factor, _, _ = product_positions(h, pos, space)
        assert np.array_equal(images[:, space.dim], loop_labels(h))
        assert np.array_equal(images[:, :space.dim], (pos / factor)[loop_h_to_sub(h, sub)])

    def test_needs_large_m(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        h = build_gadget(g, 2)  # M <= 2e
        sub, pos = mg_positions(emb, 2)
        with pytest.raises(ValidationError):
            product_positions(h, pos, space)

    def test_adjacent_images_within_one(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        images, factor, target, _ = product_positions(h, pos, space)
        for u, v in h.graph.edges:
            assert norm(target, images[u] - images[v]) <= 1.0 + 1e-9

    def test_short_path_steps_are_unit(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        images, factor, target, _ = product_positions(h, pos, space)
        u = 0
        row = h.short_ids[u]
        for i in range(len(row) - 1):
            gap = images[int(row[i + 1])] - images[int(row[i])]
            assert norm(target, gap) == pytest.approx(1.0, abs=1e-12)

    def test_builds_no_subdivided_graph(self, small_embedding, monkeypatch):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        want = product_positions(h, pos, space)
        assert sorted(tuple(sorted(e)) for e in sub.edge_ends().tolist()) == sub.graph.edges
        monkeypatch.setattr(gadgets, "from_edges", None)  # any Graph build fails
        monkeypatch.setattr(gadgets, "subdivide", None)
        got = product_positions(h, pos, space)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_audit_bounds(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        pa = audit_product_map(h, pos, space, pair_cap=4000)
        assert pa.report.exhaustive
        assert pa.forward_ok and pa.inverse_ok

    def test_case_split_small_instance(self, triangle_embedding):
        space, emb = triangle_embedding
        m_val = 2 * emb.netgraph.graph.edge_count + 1
        sub, pos = mg_positions(emb, m_val)
        h = build_gadget(emb.netgraph.graph, m_val)
        assert verify_product_cases(h, pos, space)
