import numpy as np
import pytest

from netembed import (ValidationError, classify, embeddability_verdict,
                      from_edges)


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def brute_is_path(edges, n):
    if n == 1:
        return not edges
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return (len(edges) == n - 1 and max(deg) <= 2
            and sorted(deg).count(1) == 2)


def brute_is_complete(edges, n):
    return len(edges) == n * (n - 1) // 2


class TestFixedVerdicts:
    def test_k4_complete(self):
        assert classify(complete_graph(4)).verdict == "Complete"

    def test_p5_path(self):
        assert classify(path_graph(5)).verdict == "Path"

    def test_c4_neither_with_cycle_certificate(self):
        c = classify(cycle_graph(4))
        assert c.verdict == "Neither"
        assert c.certificate["kind"] == "cycle"
        assert sorted(c.certificate["vertices"]) == [0, 1, 2, 3]

    def test_c3_complete_with_both_flag(self):
        c = classify(cycle_graph(3))
        assert c.verdict == "Complete"
        assert c.both

    def test_claw_neither_with_midpoint_certificate(self):
        c = classify(from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert c.verdict == "Neither"
        assert c.certificate == {"kind": "midpoint_conflict", "vertex": 0,
                                 "pair": [1, 2]}

    def test_trivial_graphs_report_path_both(self):
        for g in (from_edges(1, []), from_edges(2, [(0, 1)])):
            c = classify(g)
            assert c.verdict == "Path"
            assert c.both

    def test_petersen_not_embeddable(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        petersen = from_edges(10, outer + inner + spokes)
        assert embeddability_verdict(petersen) == "NotEmbeddable"

    def test_long_path_possibly_embeddable(self):
        assert embeddability_verdict(path_graph(10)) == "PossiblyEmbeddable"

    def test_c5_not_embeddable(self):
        assert embeddability_verdict(cycle_graph(5)) == "NotEmbeddable"

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            classify(from_edges(4, [(0, 1), (2, 3)]))


class TestExhaustiveAgreement:
    def test_atlas_up_to_seven_vertices(self):
        nx = pytest.importorskip("networkx")
        from networkx.generators.atlas import graph_atlas_g
        checked = 0
        for gx in graph_atlas_g()[1:]:
            n = gx.number_of_nodes()
            if n == 0 or not nx.is_connected(gx):
                continue
            relabel = {node: i for i, node in enumerate(sorted(gx.nodes()))}
            edges = [(relabel[u], relabel[v]) for u, v in gx.edges()]
            g = from_edges(n, edges)
            c = classify(g)
            want = ("Path" if brute_is_path(edges, n)
                    else "Complete" if brute_is_complete(edges, n)
                    else "Neither")
            assert c.verdict == want, (n, edges)
            checked += 1
        assert checked >= 800  # all connected graphs on <= 7 vertices

    def test_all_labeled_graphs_up_to_five(self):
        import itertools
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                adj = [set() for _ in range(n)]
                for u, v in edges:
                    adj[u].add(v)
                    adj[v].add(u)
                seen, stack = {0}, [0]
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                if len(seen) != n:
                    continue
                c = classify(from_edges(n, edges))
                want = ("Path" if brute_is_path(edges, n)
                        else "Complete" if brute_is_complete(edges, n)
                        else "Neither")
                assert c.verdict == want


class TestCertificatesAndInvariance:
    def test_certificates_reverify(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            edges = {(i, i + 1) for i in range(n - 1)}
            for _ in range(n):
                u, v = sorted(rng.integers(0, n, size=2).tolist())
                if u != v:
                    edges.add((u, v))
            g = from_edges(n, sorted(edges))
            c = classify(g)
            if c.certificate is None:
                continue
            if c.certificate["kind"] == "midpoint_conflict":
                v = c.certificate["vertex"]
                a, b = c.certificate["pair"]
                assert a in g.adj[v] and b in g.adj[v]
                assert b not in g.adj[a]
            else:
                cyc = c.certificate["vertices"]
                assert len(cyc) >= 4
                for i in range(len(cyc)):
                    assert cyc[(i + 1) % len(cyc)] in g.adj[cyc[i]]

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(123)
        graphs = [cycle_graph(6), complete_graph(5), path_graph(7),
                  from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])]
        for g in graphs:
            base = classify(g).verdict
            for _ in range(5):
                perm = rng.permutation(g.n)
                edges = [(int(perm[u]), int(perm[v])) for u, v in g.ends]
                assert classify(from_edges(g.n, edges)).verdict == base
