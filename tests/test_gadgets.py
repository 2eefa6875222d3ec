import contextlib
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netembed import embeddings, gadgets, graphs
from netembed import (DistortionReport, FiniteMetric, InternalConsistencyError,
                      ValidationError, anchor_map,
                      audit_anchor_map, audit_product_map, bfs_from,
                      build_gadget, build_net_graph, from_edges,
                      custom_space, direct_sum_l1, gadget_to_json, graph_to_json,
                      is_connected, lp_space, max_degree,
                      mg_positions, norms, place_edges, practical_params,
                      product_metric, subdivide, verify_product_cases)


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
        assert sub.graph.hops[0, 1] == 3

    def test_c3_doubling_gives_c6(self):
        c3 = k3()
        sub = subdivide(c3, 2)
        d = sub.graph.hops
        base_d = c3.hops
        for u in range(3):
            for v in range(3):
                assert d[u, v] == 2 * base_d[u, v]
        degs = sorted(len(a) for a in sub.graph.adj)
        assert degs == [2] * 6  # it is a 6-cycle

    def test_m1_is_identity(self):
        g = star(3)
        sub = subdivide(g, 1)
        assert sub.graph.n == g.n
        assert np.array_equal(sub.graph.ends, g.ends)

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
            d_base = g.hops
            d_sub = sub.graph.hops
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
        obj = graph_to_json(sub.graph)
        assert obj["n"] == sub.n
        assert obj["edges"].tolist() == sorted(map(sorted, sub.edge_ends().tolist()))

    def test_disconnected_base_raises(self):
        sub = subdivide(from_edges(4, [(0, 1), (2, 3)]), 3)
        with pytest.raises(ValidationError):
            sub.hop_metric()

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(g=connected_graphs().filter(lambda g: g.edge_count > 0), m_val=st.integers(1, 6))
    def test_address_follows_the_layout(self, g, m_val):
        # interior[j, k] is step k + 1 of chain j in both layouts; a base
        # vertex of G_M sits at its end of the first chain it ends
        for layout in (subdivide(g, m_val), build_gadget(g, m_val)):
            j, t = layout.address(layout.interior.ravel())
            assert np.array_equal(j, np.repeat(np.arange(g.edge_count), m_val - 1))
            assert np.array_equal(t, np.tile(np.arange(1, m_val), g.edge_count))
        sub = subdivide(g, m_val)
        j, t = sub.address(np.arange(g.n))
        ends = g.ends.ravel().tolist()
        first = [ends.index(u) for u in range(g.n)]
        assert j.tolist() == [f // 2 for f in first]
        assert t.tolist() == [f % 2 * m_val for f in first]


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
        listing = gadget_to_json(h)["graph"]
        assert listing["n"] == h.n
        assert listing["edges"].tolist() == sorted(map(sorted, h.edge_ends().tolist()))
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
        bfs, rows = graphs.bfs_from, graphs._bfs_rows

        def guarded(g, source):
            if g.n == h.graph.n:
                raise AssertionError("BFS on the gadget")
            return bfs(g, source)

        def guarded_rows(g, sources):
            if g.n == h.graph.n:
                raise AssertionError("BFS rows on the gadget")
            return rows(g, sources)

        monkeypatch.setattr(graphs, "bfs_from", guarded)
        monkeypatch.setattr(gadgets, "bfs_from", guarded, raising=False)
        monkeypatch.setattr(graphs, "_bfs_rows", guarded_rows)  # bfs_from and the hop table
        audit_anchor_map(h)
        pa = audit_product_map(h, pos, space)
        assert pa.forward_ok and pa.inverse_ok
        assert verify_product_cases(h, pos, space)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestHopBlocks:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(g=connected_graphs().filter(lambda g: g.edge_count > 0),
           m_pick=st.sampled_from(["1", "2", "2e+1"]), block=st.sampled_from([1, 3, 32]))
    def test_bounds_contain_the_rows_and_at_keeps_their_bits(self, g, m_pick, block):
        m_val = {"1": 1, "2": 2, "2e+1": 2 * g.edge_count + 1}[m_pick]
        for layout in (subdivide(g, m_val), build_gadget(g, m_val)):
            with mock.patch.object(gadgets, "_BLOCK", block):
                metric = layout.hop_metric()
            n, hubs, starts = layout.n, layout.hubs, metric.blocks
            ends = np.append(starts[1:], n)
            assert starts[0] == 0 and np.all(ends > starts) and np.all(ends - starts <= block)
            # each block holds hubs of one run of _hub_width ids, or steps of one chain
            ids = np.arange(n)
            owner = np.where(ids < hubs, ids // layout._hub_width,
                             -1 - (ids - hubs) // max(m_val - 1, 1))
            assert all(np.all(owner[a:b] == owner[a]) for a, b in zip(starts, ends))
            rng = np.random.default_rng(n)
            # hub sources and chain sources, the latter with their own-chain blocks
            for s in sorted(set(rng.choice(n, min(n, 40), replace=False)) | {0, n - 1}):
                row = metric.row(s)
                lo, hi = metric.bounds(s)
                row_lo, row_hi = np.minimum.reduceat(row, starts), np.maximum.reduceat(row, starts)
                assert np.all(lo <= row_lo) and np.all(row_hi <= hi)
                # lower bounds exact; upper ones off the source's own chain
                # too, but for a half-step apex
                own = owner[starts] == owner[s] if s >= hubs else np.zeros(starts.size, bool)
                assert np.all(lo == row_lo)
                assert np.all((hi - row_hi <= 0.5) | own)
                # on its own chain, no run is farther than its farthest step
                steps = np.maximum.reduceat(np.abs(ids - s), starts)
                assert np.all(hi[own] <= steps[own])
                for idx in (ids, rng.integers(0, n, size=30), ids[::-1]):
                    assert np.array_equal(bits(metric.at(s, idx)), bits(row[idx]))


class TestVertexCap:
    def test_subdivide_over_the_cap(self):
        with pytest.raises(ValidationError,
                           match=f"SubdividedGraph would have 3000000000000 vertices, "
                                 f"over the cap {gadgets._VERTEX_CAP}"):
            subdivide(k3(), 10**12)

    def test_gadget_checked_before_its_degree(self, monkeypatch):
        # 40,000 * 39,999 ports: max_degree's bincount would need 11.9 GiB
        def no_degree(self):
            raise AssertionError("max_degree ran over the cap")

        monkeypatch.setattr(gadgets.GadgetGraph, "max_degree", no_degree)
        path = from_edges(40_000, [(i, i + 1) for i in range(39_999)])
        with pytest.raises(ValidationError, match=f"over the cap {gadgets._VERTEX_CAP}"):
            build_gadget(path, 3)

    def test_cap_admits_its_own_size(self, monkeypatch):
        h = build_gadget(k3(), 4)  # 9 ports + 3 * 3 interior
        monkeypatch.setattr(gadgets, "_VERTEX_CAP", h.n)
        assert build_gadget(k3(), 4).n == 18
        with pytest.raises(ValidationError, match="would have 21 vertices, over the cap 18"):
            build_gadget(k3(), 5)


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

    def test_degree_check_reads_the_layout(self, monkeypatch):
        # on K3, port 1 (label 2 of vertex 0) already has degree 3: moving the
        # end of long path 0 at port 3 onto it gives it a fourth neighbour
        hub_ends = gadgets.GadgetGraph._hub_ends.fget
        monkeypatch.setattr(gadgets.GadgetGraph, "_hub_ends",
                            property(lambda h: np.where(hub_ends(h) == 3, 1, hub_ends(h))))
        with pytest.raises(InternalConsistencyError, match="^gadget degree exceeded 3$"):
            build_gadget(k3(), 3)

    def test_short_path_label_attachment(self):
        # vertex (u, label i) touches long path i exactly when edge i is
        # incident to u; otherwise its degree stays <= 2
        g = star(3)
        h = build_gadget(g, 4)
        e = g.edge_count
        for u in range(g.n):
            for i in range(e):
                vid = int(h.short_ids[u, i])
                deg = len(h.graph.adj[vid])
                incident = u in g.ends[i]
                chain = (2 if 0 < i < e - 1 else 1) if e > 1 else 0
                assert deg == chain + (1 if incident else 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            build_gadget(from_edges(2, []), 3)  # no edges
        with pytest.raises(ValidationError):
            build_gadget(from_edges(4, [(0, 1), (2, 3)]), 3)  # disconnected

    def test_json_key_set(self):
        obj = gadget_to_json(build_gadget(k3(), 3))
        assert set(obj) == {"graph", "base", "M"}
        assert obj["M"] == 3


def layout_from_json(obj):
    """(n, short paths, long-path interiors, sorted unit edges) of a gadget,
    read from its document's base and M by the id layout the README states:
    vertex u's short path is u*e + i, i = 0..e-1 (label i+1); the k-th
    interior vertex of long path j is n*e + j*(M-1) + k, walking from the
    port (a_j, j) of base edge j = (a_j, b_j) to the port (b_j, j)."""
    n, base_edges, M = obj["base"]["n"], obj["base"]["edges"], obj["M"]
    e = len(base_edges)
    short = [[u * e + i for i in range(e)] for u in range(n)]
    long = [[n * e + j * (M - 1) + k for k in range(M - 1)] for j in range(e)]
    edges = [(row[i], row[i + 1]) for row in short for i in range(e - 1)]
    for j, (a, b) in enumerate(base_edges):
        path = [short[a][j], *long[j], short[b][j]]
        edges += zip(path, path[1:])
    return n * e + e * (M - 1), short, long, sorted(sorted(pair) for pair in edges)


class TestJsonLayout:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(g=connected_graphs(), M=st.integers(1, 5))
    def test_listing_follows_from_base_and_m(self, g, M):
        if g.edge_count == 0:
            return
        h = build_gadget(g, M)
        obj = gadget_to_json(h)
        n, short, long, edges = layout_from_json(obj)
        assert obj["graph"]["n"] == n and obj["graph"]["edges"].tolist() == edges
        assert short == h.short_ids.tolist()
        assert long == h.interior.tolist()


def loop_anchor_report(h):
    """Scalar pair-by-pair reference for audit_anchor_map, on full hop rows."""
    e = h.base.edge_count
    amap = anchor_map(h)
    d_g, hops = h.base.hops, h.hop_metric()
    d_h = {int(a): hops.row(int(a)) for a in amap}
    lip_f = lip_i = 0.0
    wit_f = wit_i = (0, 1)
    pairs = 0
    for u in range(h.base.n):
        for v in range(u + 1, h.base.n):
            dh, dg = int(d_h[int(amap[u])][int(amap[v])]), int(d_g[u, v])
            pairs += 1
            if not (h.M * dg <= dh <= (2 * e + h.M) * dg):
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
           m_val=st.integers(1, 6))
    def test_report_matches_loop_reference(self, g, m_val):
        h = build_gadget(g, m_val)
        got, want = audit_anchor_map(h), loop_anchor_report(h)
        assert got == want
        assert asdict(got) == asdict(want)

    @pytest.mark.parametrize("skew, message", [
        (lambda r: r - 1, "pair (0,1): d_G=1, d_H=2, M=3, e=3"),  # M*d_G <= d_H, by one
        (lambda r: r * 10, "pair (0,1): d_G=1, d_H=30, M=3, e=3"),  # d_H <= (2e+M)*d_G
    ], ids=["lower", "upper"])
    def test_violation_reports_first_failing_pair(self, monkeypatch, skew, message):
        h = build_gadget(star(3), 3)
        ports = type(h).port_rows  # hop_metric rows read it too
        monkeypatch.setattr(type(h), "port_rows", lambda self, s: skew(ports(self, s)))
        with pytest.raises(InternalConsistencyError) as got:
            audit_anchor_map(h)
        with pytest.raises(InternalConsistencyError) as want:
            loop_anchor_report(h)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "anchor-map bound failed on " + message

    def test_k2_m5_distance(self):
        h = build_gadget(k2(), 5)
        amap = anchor_map(h)
        d = h.graph.hops
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
    emb = place_edges(ng, params)
    return space, emb


@pytest.fixture(scope="module")
def triangle_embedding():
    # hand 3-point unit-scale net in l2^3, so exhaustive pair checks on its
    # gadget stay tiny
    from netembed import Net, net_graph_from_net
    space = lp_space(2, 3)
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.8, 0.0]])
    ng = net_graph_from_net(Net(space, 1.0, 2.1, pts, 1.0))
    emb = place_edges(ng, practical_params(beta=0.02, seed=9))
    return space, emb


def loop_h_to_sub(h, sub):
    """Scalar reference for the G_M ids of GadgetGraph.to_sub."""
    out = np.empty(h.graph.n, dtype=np.int64)
    for u in range(h.base.n):
        out[h.short_ids[u]] = u
    for j in range(h.base.edge_count):
        for k in range(h.M - 1):
            out[h.interior[j, k]] = sub.interior[j, k]
    return out


def loop_labels(h):
    """Scalar reference for the labels of GadgetGraph.to_sub."""
    labels = np.empty(h.graph.n)
    for u in range(h.base.n):
        labels[h.short_ids[u]] = np.arange(1, h.base.edge_count + 1)
    for j in range(h.base.edge_count):
        labels[h.interior[j]] = j + 1
    return labels


def loop_images(h, sub, pos):
    """The product map's images from the loop references, one row per gadget
    vertex: the position of its G_M vertex in pos, then its label."""
    return np.column_stack([pos[loop_h_to_sub(h, sub)], loop_labels(h)])


def reference_images(h, pos, space):
    """loop_images of the normalized G_M positions, and their space."""
    sub, scaled, _ = gadgets._normalized(h, pos, space)
    return loop_images(h, sub, scaled), direct_sum_l1(space, lp_space(1, 1))


def product_instance_at(r, seed):
    """The pipeline's gadget on lp:2:3 at delta 1: (H, G_M, the G_M
    positions, the space), placed as pipeline --r r --seed seed places."""
    space = lp_space(2, 3)
    ng = build_net_graph(space, 1.0, r)
    emb = place_edges(ng, practical_params(beta=0.02, seed=seed))
    m_val = 2 * ng.graph.edge_count + 1
    sub, pos = mg_positions(emb, m_val)
    return build_gadget(ng.graph, m_val), sub, pos, space


def counted_reads(monkeypatch):
    """Patch FiniteMetric.at to record (source, ids) per call, by metric size."""
    reads, at = {}, FiniteMetric.at

    def counted_at(self, i, idx):
        reads.setdefault(self.size, []).append((i, np.asarray(idx)))
        return at(self, i, idx)

    monkeypatch.setattr(FiniteMetric, "at", counted_at)
    return reads


class TestProductMap:
    @pytest.mark.parametrize("base", [k2(), k3(), star(3)], ids=["k2", "k3", "star3"])
    @pytest.mark.parametrize("m_val", [1, 2, 5])
    def test_vertex_map_matches_loop_reference(self, base, m_val):
        h = build_gadget(base, m_val)
        sub = subdivide(base, m_val)
        mapping, labels = h.to_sub(np.arange(h.n))
        assert np.array_equal(mapping, loop_h_to_sub(h, sub))
        assert np.array_equal(labels, loop_labels(h))
        for i in range(h.n):  # one id at a time
            assert h.to_sub(i) == (mapping[i], labels[i])

    def test_labels_match_loop_reference(self, small_embedding):
        # the normalized G_M positions, and product_metric's distances against
        # the images built from the loop references
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        got_sub, scaled, factor = gadgets._normalized(h, pos, space)
        assert got_sub == sub and factor >= 1.0
        assert np.array_equal(scaled, pos / factor)
        image = product_metric(h, FiniteMetric.from_points(space, scaled))
        images, target = reference_images(h, pos, space)
        ref = FiniteMetric.from_points(target, images)
        ids = np.arange(h.n)
        for i in range(0, h.n, 97):
            assert np.array_equal(bits(image.at(i, ids)), bits(ref.at(i, ids)))

    def test_needs_large_m(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        h = build_gadget(g, 2)  # M <= 2e
        sub, pos = mg_positions(emb, 2)
        for check in (audit_product_map, verify_product_cases):
            with pytest.raises(ValidationError, match="need M > 2"):
                check(h, pos, space)

    def test_positions_shape_checked(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        sub, pos = mg_positions(emb, m_val)
        with pytest.raises(ValidationError, match="does not match the subdivided graph"):
            audit_product_map(build_gadget(g, m_val), pos[1:], space)

    def test_adjacent_images_within_one(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        images, target = reference_images(h, pos, space)
        ends = h.graph.ends
        assert np.all(norms(target, images[ends[:, 0]] - images[ends[:, 1]]) <= 1.0 + 1e-9)

    def test_short_path_steps_are_unit(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        images, target = reference_images(h, pos, space)
        gaps = np.diff(images[h.short_ids[0]], axis=0)
        assert norms(target, gaps) == pytest.approx(np.ones(len(gaps)), abs=1e-12)

    def test_builds_no_subdivided_graph(self, small_embedding, monkeypatch):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        want = repr(audit_product_map(h, pos, space, pair_cap=300))
        assert sorted(map(sorted, sub.edge_ends().tolist())) == sub.graph.ends.tolist()
        monkeypatch.setattr(gadgets, "from_edges", None)  # any Graph build fails
        monkeypatch.setattr(gadgets, "subdivide", None)
        assert repr(audit_product_map(h, pos, space, pair_cap=300)) == want

    def test_audit_bounds(self, small_embedding):
        space, emb = small_embedding
        g = emb.netgraph.graph
        m_val = 2 * g.edge_count + 1
        h = build_gadget(g, m_val)
        sub, pos = mg_positions(emb, m_val)
        pa = audit_product_map(h, pos, space, pair_cap=4000)
        assert pa.report.exhaustive
        assert pa.forward_ok and pa.inverse_ok

    def test_audit_evaluates_few_pairs_exactly(self, monkeypatch):
        # the criterion-6 instance, exhaustive: both audits evaluate only the
        # pairs their block bounds leave open, and the rows that read all
        # their partners lie at the end of the ids, where they fall on the
        # row's own chain (lower bound 0) and the last one
        h, sub, pos, space = product_instance_at(1.44, 5)
        reads = counted_reads(monkeypatch)
        monkeypatch.setattr(FiniteMetric, "row", None)  # the audits read no whole row
        pa = audit_product_map(h, pos, space, pair_cap=3000)
        assert pa.report.exhaustive and pa.forward_ok and pa.inverse_ok
        for n in (sub.n, h.n):
            calls = reads[n][::2]  # source and target alike: two calls a row
            whole = [len(idx) for i, idx in calls if len(idx) == n - 1 - i]
            assert max(whole, default=0) < 2 * h.M  # 78 G_M rows, 71 H rows
            # 10.5% of G_M's pairs, 2.4% of H's
            assert sum(len(idx) for _, idx in calls) < 0.5 * n * (n - 1) / 2

    @pytest.mark.parametrize("r, seed, pair_cap", [(1.44, 5, 300), (2.0, 3, 2000)],
                             ids=["criterion-6", "pipeline-l2"])
    def test_sampled_rows_read_fewer_than_all_partners(self, monkeypatch, r, seed, pair_cap):
        # the first row too: it evaluates its most promising blocks first.  On
        # pipeline-l2 (seed 3) the audits evaluate 51,098 G_M and 27,906 H
        # distances a metric, against 380,079 and 129,419 with bounds from
        # sup-norm factors and a first row read whole
        h, sub, pos, space = product_instance_at(r, seed)
        reads = counted_reads(monkeypatch)
        pa = audit_product_map(h, pos, space, pair_cap=pair_cap,
                               rng=np.random.default_rng([seed, 3]))
        assert not pa.report.exhaustive
        for n in (sub.n, h.n):
            assert all(len(idx) < n - 1 for _, idx in reads[n])
        if r == 2.0:
            assert sum(len(idx) for _, idx in reads[sub.n]) // 2 <= 100_000
            assert sum(len(idx) for _, idx in reads[h.n]) // 2 <= 35_000

    def test_case_split_small_instance(self, triangle_embedding):
        space, emb = triangle_embedding
        m_val = 2 * emb.netgraph.graph.edge_count + 1
        sub, pos = mg_positions(emb, m_val)
        h = build_gadget(emb.netgraph.graph, m_val)
        assert verify_product_cases(h, pos, space)


# The constants that chunk the whole-gadget passes, and one no pass reaches.
CHUNK_CONSTANTS = [(embeddings, "_POSITION_ROWS"), (gadgets, "_ROWS"), (graphs, "_READ_IDS")]
UNCHUNKED = 1 << 40


def place_hand(desc):
    """Curves placed on a 5-point unit-scale hand net, so that exhaustive
    audits of its gadget stay small: (space, embedding)."""
    from netembed import Net, net_graph_from_net, parse_space
    space = parse_space(desc)
    pts = np.array([[0, 0, 0], [2, 0, 0], [1, 1.8, 0], [1, 0.6, 1.7], [-1.5, 1, 0.5]])
    ng = net_graph_from_net(Net(space, 1.0, 4.0, pts, 1.0))
    emb = place_edges(ng, practical_params(beta=0.02, seed=9))
    return space, emb


@pytest.fixture(scope="module", params=["lp:2:3", "lp:inf:3", "l1sum:lp:2:2+lp:1:1"])
def hand_embedding(request):
    return place_hand(request.param)


class TestChunkedPasses:
    @pytest.mark.parametrize("pair_cap", [10**6, 60])  # exhaustive, sampled
    def test_chunks_keep_every_bit(self, hand_embedding, pair_cap):
        space, emb = hand_embedding
        m_val = 2 * emb.netgraph.graph.edge_count + 1
        h = build_gadget(emb.netgraph.graph, m_val)

        def passes(chunk):
            with contextlib.ExitStack() as stack:
                for module, name in CHUNK_CONSTANTS:
                    stack.enter_context(mock.patch.object(module, name, chunk))
                sub, pos = mg_positions(emb, m_val)
                _, scaled, factor = gadgets._normalized(h, pos, space)
                pa = audit_product_map(h, pos, space, pair_cap=pair_cap,
                                       rng=np.random.default_rng(4))
            return sub.n, [pos, scaled], factor, repr(pa)

        n, want_arrays, *want = passes(UNCHUNKED)
        for chunk in (3, 7):
            assert chunk < n
            _, got_arrays, *got = passes(chunk)
            assert got == want
            for a, b in zip(got_arrays, want_arrays):
                assert np.array_equal(bits(a), bits(b))


def edge_list_factor(sub, pos, space):
    """Reference for _normalized's factor: the largest gap pos[u] - pos[v]
    over G_M's whole unit-edge list, or 1 when that is at most 1."""
    ends = sub.edge_ends()
    factor = float(norms(space, pos[ends[:, 0]] - pos[ends[:, 1]]).max())
    return factor if factor > 1.0 else 1.0


class TestNormalization:
    @pytest.mark.parametrize("desc", ["lp:2:3", "lp:inf:3", "lp:1:3", "l1sum:lp:2:2+lp:1:1"])
    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_factor_matches_the_edge_list(self, desc, scale):
        # scaled by 40, the positions' gaps exceed 1 and set the factor
        space, emb = place_hand(desc)
        m_val = 2 * emb.netgraph.graph.edge_count + 1
        h = build_gadget(emb.netgraph.graph, m_val)
        pos = mg_positions(emb, m_val)[1] * scale
        sub, scaled, factor = gadgets._normalized(h, pos, space)
        want = edge_list_factor(sub, pos, space)
        assert (want > 1.0) == (scale > 1.0)
        assert bits(factor) == bits(want)
        assert np.array_equal(bits(scaled), bits(pos / want if want > 1.0 else pos))

    def test_memory_stays_far_under_the_edge_list(self):
        # G_M of a 400-edge path at M = 801: its unit-edge list alone is 5.1 MB
        base = from_edges(401, [(i, i + 1) for i in range(400)])
        h = build_gadget(base, 801)
        pos = np.random.default_rng(0).uniform(0.0, 0.5, (subdivide(base, 801).n, 3))
        tracemalloc.start()
        try:
            _, scaled, factor = gadgets._normalized(h, pos, lp_space(2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor == 1.0 and scaled is pos
        assert peak < 16 * base.edge_count * h.M / 8


@pytest.fixture(scope="module", params=["lp:2:3", "lp:inf:3", "lp:1:3", "l1sum:lp:2:2+lp:1:1"])
def hand_product(request):
    """The gadget of a placed hand net, its G_M and the normalized G_M
    positions: (h, sub, positions, space)."""
    space, emb = place_hand(request.param)
    m_val = 2 * emb.netgraph.graph.edge_count + 1
    h = build_gadget(emb.netgraph.graph, m_val)
    sub, pos, _ = gadgets._normalized(h, mg_positions(emb, m_val)[1], space)
    return h, sub, pos, space


def product_and_reference(h, sub, pos, space):
    """product_metric over the blocked G_M point metric, and the point metric
    of its images built from the loop references, on H's hop blocks."""
    image = product_metric(h, FiniteMetric.from_points(space, pos, sub.hop_metric().blocks))
    target = direct_sum_l1(space, lp_space(1, 1))
    return image, FiniteMetric.from_points(target, loop_images(h, sub, pos), h.hop_metric().blocks)


class TestProductMetric:
    """product_metric reads H's image through G_M's: its values are the
    images' point metric bit for bit, and its bounds hold every value and
    are no looser than the images' box bounds."""

    def test_at_equals_the_images_bit_for_bit(self, hand_product):
        h = hand_product[0]
        image, ref = product_and_reference(*hand_product)
        ids = np.arange(h.n)
        for i in range(h.n):
            assert np.array_equal(bits(image.at(i, ids)), bits(ref.at(i, ids)))
            assert np.array_equal(bits(image.at(i, ids[::-7])), bits(ref.at(i, ids[::-7])))

    def test_bounds_hold_and_are_no_looser(self, hand_product):
        h = hand_product[0]
        image, ref = product_and_reference(*hand_product)
        assert np.array_equal(image.blocks, h.hop_metric().blocks)
        for i in range(h.n):
            row = image.row(i)
            lo, hi = image.bounds(i)
            assert np.all(lo <= np.minimum.reduceat(row, image.blocks))
            assert np.all(hi >= np.maximum.reduceat(row, image.blocks))
            ref_lo, ref_hi = ref.bounds(i)
            assert np.all(lo >= ref_lo) and np.all(hi <= ref_hi)

    @pytest.mark.parametrize("where", ["hub", "chain"])
    def test_nan_bounds_where_the_images_have_them(self, hand_product, where):
        h, sub, pos, space = hand_product
        pos = pos.copy()
        pos[0 if where == "hub" else sub.n - 5, 1] = np.nan
        image, ref = product_and_reference(h, sub, pos, space)
        for i in range(0, h.n, 7):
            for got, want in zip(image.bounds(i), ref.bounds(i)):
                assert np.array_equal(np.isnan(got), np.isnan(want))
                assert np.isnan(want).any()

    def test_custom_part_gets_no_blocks(self, hand_product):
        h, sub, pos, space = hand_product
        l1 = custom_space(space.dim, lambda v: np.abs(v).sum(axis=1), box_factor=1.0,
                          vectorized=True)
        image = product_metric(h, FiniteMetric.from_points(l1, pos, sub.hop_metric().blocks))
        assert image.blocks is None
        ref = FiniteMetric.from_points(direct_sum_l1(l1, lp_space(1, 1)), loop_images(h, sub, pos))
        for i in (0, h.n // 2, h.n - 1):
            assert np.array_equal(bits(image.row(i)), bits(ref.row(i)))
