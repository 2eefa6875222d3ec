"""Degree-3 gadget expansions and their two audited maps.

Any connected graph G expands into a gadget H of maximum degree 3: a short
path per vertex (one slot per edge of G) and a long path of M unit edges
per edge of G, meeting only at matching slots.  The anchor map G -> H
stretches distances by a factor between M and 2e(G) + M, so H inherits G's
metric type at bounded distortion; composing with the points of the
subdivided graph along the placed curves lands H in the l1 sum  X + R.  The
product-map audit takes the embedding and computes those points as it reads
them.
"""

from netembed import (audit_anchor_map, audit_product_map, build_gadget,
                      build_net_graph, from_edges, lp_space, place_edges,
                      practical_params, subdivide)

k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
e = k3.edge_count

print("=" * 72)
print("Gadget over K3: degree and anchor-map distortion vs M")
print("=" * 72)
for m_val in (e, 2 * e, 10 * e, 100 * e):
    h = build_gadget(k3, m_val)
    rep = audit_anchor_map(h)
    print(f"  M = {m_val:4d}: |V(H)| = {h.n:5d}, "
          f"max degree {h.max_degree()}, "
          f"anchor distortion {rep.distortion:.4f} "
          f"(forward <= 2e+M = {2 * e + m_val}, inverse <= 1/M)")

print("\nSubdivision sanity: distances between original vertices scale by M")
sub = subdivide(k3, 5)
print(f"  K3 subdivided by 5: {sub.n} vertices "
      f"(3 originals + 3 edges x 4 interior)")

print("\n" + "=" * 72)
print("Product map H -> X + R on a small ball net graph in l2^3")
print("=" * 72)
space = lp_space(2, 3)
ng = build_net_graph(space, 1.0, 1.44)
emb = place_edges(ng, practical_params(beta=0.02, seed=5))
g = emb.netgraph.graph
m_val = 2 * g.edge_count + 1
h = build_gadget(g, m_val)
pa = audit_product_map(h, emb, pair_cap=3000)
print(f"  base graph: {g.n} vertices, {g.edge_count} edges; M = {m_val}; "
      f"|V(H)| = {h.n}")
print(f"  forward Lipschitz {pa.report.lip_forward:.6f} <= 1 "
      f"(after normalization factor {pa.normalization_factor:.4f})")
print(f"  inverse Lipschitz {pa.report.lip_inverse:.2f} <= "
      f"2 x {pa.lip_positions_inverse:.2f} = {pa.inverse_bound:.2f}")
print(f"  exhaustive over {pa.report.pairs_checked} vertex pairs: "
      f"{pa.forward_ok and pa.inverse_ok}")
