"""The constructive pipelines end to end.

1. third_pipeline: a 3t-regular 2-connected graph, prescribed odd cycles,
   a forced edge -> t-factor meeting every cycle in a non-empty matching.
2. half_pipeline: a 2t-regular graph (t even) -> even-indegree orientation
   avoiding oriented prescribed cycles, split into a t-factor that both
   meets and co-meets every cycle.
3. extend_factor: grow any witness to an l-factor of the same parity.
"""

from cyclehit import (
    extend_factor,
    half_pipeline,
    pack_cycles,
    petersen,
    petersen_cycles,
    random_regular_multigraph,
    third_pipeline,
    verify_orientation,
)

# --- 1. matchings through every edge of the Petersen graph ---------------
G = petersen()
O = petersen_cycles(G)
print("Petersen, O = outer + inner 5-cycles")
for e in (0, 7, 14):
    rep = third_pipeline(G, O, e, t=1)
    print(f"  forced edge {e:2d}: 1-factor {rep.factor.edge_ids} "
          f"({rep.nodes} nodes)")

# --- 2. orientation lemma + half pipeline on a random instance -----------
H = random_regular_multigraph(10, 4, seed=42)
Q = pack_cycles(H, parity="odd")
print(f"\nrandom 4-regular n=10 (seed 42): {len(Q)} odd cycles packed")
rep = half_pipeline(H, Q, t=2)
D = rep.orientation
print(f"  indegrees: {D.indegrees()} (all even, no cycle oriented: "
      f"{verify_orientation(H, D, Q)})")
print(f"  2-factor: {rep.factor.edge_ids}")
for cyc in Q.cycles:
    shared = [e for e in cyc if e in rep.factor.edge_ids]
    print(f"    cycle {cyc}: shares {shared} (proper subset: "
          f"{0 < len(shared) < len(cyc)})")

# --- 3. extension ---------------------------------------------------------
F4 = extend_factor(H, rep.factor, 4)
print(f"\nextended to l=4: {len(F4)} edges = all {H.m} edges of the host")
