#!/usr/bin/env python3
"""A guided tour of the library on the symmetric group of degree 3.

S3 is the smallest group where subgroup pairs can fail to permute, which
makes every quantity in the library visible by hand: six subgroups, one
non-normal conjugacy class of order-2 subgroups, and a subgroup
commutativity degree of exactly 5/6.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fractions import Fraction

from permlat import (
    all_subgroups,
    cauchy_bound_checks,
    element_commutativity_degree,
    enumerate_subgroups,
    make_named,
    maximal_subgroups,
    moebius_table,
    perp,
    permutes,
    sd,
    spd,
    subnormal_subgroups,
)

g = make_named("S3")
print(f"group {g.name}, order {g.order}")
print(f"element labels: {', '.join(g.element_labels)}")
print()

# The full subgroup lattice: trivial, three order-2, one order-3, and S3.
lat = enumerate_subgroups(g)
print(f"{len(lat)} subgroups:")
for i, mask in enumerate(lat.masks):  # bit x of a node's mask is element x
    elements = tuple(x for x in range(g.order) if mask >> x & 1)
    print(f"  node {i}: order {mask.bit_count()}, elements {elements}")
print()

# Two distinct order-2 subgroups do not permute: their product set has four
# elements, and a four-element subset of a six-element group is never a
# subgroup. The order-3 subgroup permutes with everything (it is normal).
twos = [i for i in range(len(lat)) if lat.node_order(i) == 2]
three = next(i for i in range(len(lat)) if lat.node_order(i) == 3)
a, b = lat.masks[twos[0]], lat.masks[twos[1]]
print(f"order-2 pair permutes? {permutes(g, a, b)}")
print(f"product set size: {g.product_mask(a, b).bit_count()}")
print(f"order-3 with order-2 permutes? {permutes(g, lat.masks[three], a)}")
print()

# Count over all ordered pairs: 30 of 36 permute.
print(f"sd(S3)  = {sd(lat)}   (expect 5/6)")
print(f"spd(S3) = {spd(lat, 'raw')}   (subnormal x maximal pairs, raw)")
print(f"d(S3)   = {element_commutativity_degree(g)}   (element pairs)")
print()

# The permutable-with-everything subgroups are exactly the normal ones here.
p = perp(lat, all_subgroups(lat))
print("perp of the full lattice:",
      [f"order {lat.node_order(i)}" for i in p.members])
print("subnormal:", [f"order {lat.node_order(i)}"
                     for i in subnormal_subgroups(lat).members])
print("maximal (raw):", [f"order {lat.node_order(i)}"
                         for i in maximal_subgroups(lat, 'raw').members])
print()

# A factorization S3 = N H with N the order-3 subgroup and H order 2 yields
# a geometric-mean lower bound for sd; stored in squared form, it reads
# (1/9)^2 <= (5/6)^2.
_, sd_bound = cauchy_bound_checks(lat, three, twos[0], "raw")
print(f"factorization bound (squared): {sd_bound.bound} <= {sd_bound.actual}")
assert sd_bound.bound == Fraction(1, 81)
print()

# The bottom Moebius number of the lattice is 3: one from the top,
# minus one from each of the four maximal subgroups.
print(f"mu(1, S3) = {moebius_table(lat).bottom_value}")
