"""Randomized polyline embedding of a thickened graph.

Every edge of the ball net graph becomes a two-segment curve through a
random breakpoint near the edge's midpoint, kept only when it clears three
avoidance conditions against everything placed before it.  The audits then
measure what the conditions buy: a 4-Lipschitz forward map and an inverse
bounded by 1 + 6/gamma, plus a Monte Carlo look at how much of the
breakpoint ball stays admissible.
"""

import numpy as np

from netembed import (audit_tg, build_net_graph, default_strict_params,
                      estimate_suitable_fraction, lp_space, place_edges,
                      practical_params, verify_embedding)

space = lp_space(2, 3)
ng = build_net_graph(space, delta=1.0, r=2.0)
print("=" * 72)
print(f"Ball net graph in l2^3: {ng.graph.n} vertices, "
      f"{ng.graph.edge_count} edges")
print("=" * 72)

params = practical_params(beta=0.02, seed=7)
emb = place_edges(ng, params)
print(f"\npractical mode (beta = {params.beta}, alpha = {params.alpha}, "
      f"gamma = {params.gamma}):")
print(f"  placed {len(emb.ends)} curves, attempts: "
      f"max {emb.attempts.max()}, mean {emb.attempts.mean():.2f}")
print(f"  independent re-verification of all three conditions: "
      f"{verify_embedding(emb)['ok']}")

rep = audit_tg(emb, interior_samples=10_000, rng=np.random.default_rng([7, 2]))
print(f"  curve lengths <= {rep.max_curve_length:.3f} (< 3.5)")
print(f"  forward Lipschitz {rep.lip_forward:.3f} <= 4")
print(f"  inverse Lipschitz {rep.lip_inverse:.1f} <= 1 + 6/gamma = "
      f"{rep.inverse_bound:.0f}")

print("\n" + "=" * 72)
print("Strict constants and the volume argument")
print("=" * 72)
strict = default_strict_params(seed=11)
print(f"  beta = {strict.beta:.3e}, alpha = {strict.alpha:.3e}, "
      f"gamma = {strict.gamma:.3e}")
emb5 = place_edges(ng, strict, edge_limit=5)
print(f"  first five edges placed with attempts {list(map(int, emb5.attempts))}"
      f" (expected <= 4 each: over 1/4 of the ball stays suitable)")
for j in range(3):
    est = estimate_suitable_fraction(emb5, j, 50_000,
                                     np.random.default_rng([11, 5 + j]))
    print(f"  edge {j}: suitable fraction {est.fraction:.5f} "
          f"(95% Wilson half-width {est.half_width:.5f}) >= 0.25")
