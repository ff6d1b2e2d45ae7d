#!/usr/bin/env python3
"""Bottom Moebius numbers of subgroup lattices, against the known values
for symmetric groups.

The recursion walks nodes from the top down: mu(G,G) = 1 and each lower
subgroup receives minus the sum over everything strictly above it. For
symmetric groups of degree 3 to 6 the computed bottom value matches the
published case formulas; S6, with 1455 subgroups, takes a few seconds.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from permlat import (
    conjectured_mu_symmetric,
    enumerate_subgroups,
    make_named,
    moebius_table,
    predicted_mu_symmetric,
)
from permlat.groups import _bits

print(f"{'group':<6} {'|L|':>5} {'mu(1,G)':>9} {'predicted':>10} {'conjecture':>11}")
for n in [3, 4, 5, 6]:
    lat = enumerate_subgroups(make_named(f"S{n}"))
    mu = moebius_table(lat).bottom_value
    print(f"S{n:<5} {len(lat):>5} {mu:>9} {predicted_mu_symmetric(n):>10} "
          f"{str(conjectured_mu_symmetric(n)):>11}")

print()
print("Defining property: over every interval [H, G] the values sum to zero.")
lat = enumerate_subgroups(make_named("S4"))
mt = moebius_table(lat)
worst = max(abs(sum(mt[k] for k in _bits(lat.up_masks[h])))
            for h in range(len(lat) - 1))
print(f"largest interval sum over S4 (should be 0): {worst}")

print()
print("Groups whose lattice size equals the bottom Moebius number would admit")
print("a Moebius-phrased sd bound; none of the catalog groups do:")
for spec in ("S3", "A4", "Q8", "C12", "S4"):
    lat = enumerate_subgroups(make_named(spec))
    mu = moebius_table(lat).bottom_value
    print(f"  {spec:<5} |L| = {len(lat):>3}, mu(1,G) = {mu:>4}")
