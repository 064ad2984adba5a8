"""Exhaustive verification of the covering genus floors.

For small base genus g and degree n the package accounts for every
monodromy tuple in S_n^(2g) and checks the two floors directly:

    genus >= n*g - (n - 1)             for every unbranched cover
    genus >= n*g - floor((n - 1) / 2)  when the boundary is one circle

together with exactly where equality occurs, including after one simple
branch point.  The scan is budgeted and deterministic.  It never visits
tuples one by one: the hook lengths and contents of the partitions of n
count the tuples by boundary circles, one integer power per partition at
any genus, and a few rows of generator pairs give the first pair of every
cover shape, so deep genus stays cheap.  A witness is a tuple of 0-indexed
image tuples; ``Permutation`` wraps each entry for printing or arithmetic.
"""

from satgenus import enumerate_covers, realizability_table, verify_sharpness
from satgenus.perms import Permutation, cycles_str

GRID = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 5), (10, 5)]

for g, n in GRID:
    r = enumerate_covers(g, n)
    sharp = verify_sharpness(g, n)
    floor_all = n * g - (n - 1)
    floor_k1 = n * g - (n - 1) // 2
    print(f"g={g} n={n}: {r.total_tuples} tuples, "
          f"min genus {r.min_genus_overall} (floor {floor_all}), "
          f"violations {len(r.violations)}, sharpness ok={sharp.ok}")
    if r.min_genus_connected_boundary is not None:
        wit = ", ".join(cycles_str(Permutation(p)) for p in r.connected_boundary_witness)
        print(f"        connected boundary: min genus "
              f"{r.min_genus_connected_boundary} (floor {floor_k1}) via [{wit}]")
    else:
        print(f"        no unbranched cover has connected boundary "
              f"(degree {n} is even)")

# Everything the scan found at g=1, n=3, class by class.  The witness is the
# lexicographically first monodromy tuple with that shape, so reruns cannot
# change this table.
print()
print("realizable (components, boundary, genus) classes at g=1, n=3:")
for (m, k, genus), wit in realizability_table(1, 3).items():
    images = ", ".join(cycles_str(Permutation(p)) for p in wit)
    print(f"  m={m} k={k} genus={genus}: [{images}]")
