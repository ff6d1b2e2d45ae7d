"""Moebius function of a subgroup lattice and symmetric-group predictions.

mu is computed top-down by the interval recursion
mu(K, G) = - sum of mu(J, G) over K < J <= G, with mu(G, G) = 1.
A proper supergroup is strictly larger, and nodes are sorted by cardinality,
so walking them by descending index visits every J before it is needed.
mu(K, G) = 0 unless K is an intersection of maximal subgroups (P. Hall,
1936), so many terms are zero (322 of 389 nodes of D4xD4), and the sum
reads only the nodes above K with a nonzero value: the AND of K's up mask
with a mask of those nodes. With the precomputed containment rows this is
O(|L|^2) integer arithmetic at worst.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .groups import is_prime
from .lattice import RAW, SubgroupLattice
from .bounds import (BoundCheckResult, _not_satisfied, _satisfied,
                     fitting_centralizer_check, sd_bound_poly)
from .degrees import sd


@dataclass(frozen=True)
class MoebiusTable:
    """mu(K, G) for every node K of a lattice, indexed like the node list."""

    values: tuple[int, ...]
    bottom_value: int

    def __getitem__(self, i: int) -> int:
        return self.values[i]


def moebius_table(lat: SubgroupLattice) -> MoebiusTable:
    up = lat.up_masks
    values = [0] * len(lat)
    values[lat.top] = 1
    nonzero = 1 << lat.top  # the nodes visited so far with mu != 0
    for i in range(lat.top - 1, -1, -1):
        rest, v = up[i] & nonzero, 0
        while rest:
            low = rest & -rest
            v -= values[low.bit_length() - 1]
            rest ^= low
        if v:
            values[i] = v
            nonzero |= 1 << i
    return MoebiusTable(tuple(values), values[lat.bottom])


def predicted_mu_symmetric(n: int) -> Optional[int]:
    """Known bottom Moebius numbers of symmetric-group lattices.

    Covered cases: n prime; n = 2p with p an odd prime; n a power of two.
    Returns None outside them (no extrapolation).
    """
    if n < 2:
        return None
    half = math.factorial(n) // 2
    if is_prime(n):
        return half if n % 2 else -half
    if n & (n - 1) == 0:
        return -half
    if n % 2 == 0 and is_prime(n // 2) and n // 2 % 2 == 1:
        p = n // 2
        if is_prime(n - 1) and p % 4 == 3:
            return -2 * half
        if n == 22:
            return half
        return -half
    return None


def conjectured_mu_symmetric(n: int) -> Fraction:
    """Conjectural value (-1)^(n-1) |Aut(S_n)| / 2 for n > 1.

    Conjectural: proved only for small n and the cases covered by
    :func:`predicted_mu_symmetric`; exposed for comparison, never asserted.
    """
    if n < 2:
        raise ValueError("defined for n > 1")
    if n == 2:
        aut = 1
    elif n == 6:
        aut = 2 * math.factorial(6)
    else:
        aut = math.factorial(n)
    return Fraction((-1) ** (n - 1) * aut, 2)


def mu_matching_bound_check(lat: SubgroupLattice, convention: str = RAW,
                            reading: str = "strict") -> BoundCheckResult:
    """sd(G) >= g / (2 mu(1,G)^2) when the Fitting-centralizer hypotheses
    hold and |L(G)| equals the bottom Moebius number. Claim key: mu-bound.

    The |L(G)| = mu(1,G) gate is expected to fail on ordinary groups; the
    checker reports non-qualification rather than asserting anything.
    """
    claim = "mu-bound"
    mu = moebius_table(lat).bottom_value
    context = {"group": lat.group.name, "mu_bottom": str(mu),
               "lattice_size": str(len(lat))}
    base = fitting_centralizer_check(lat, convention, reading)
    reasons = list(base.reasons)
    if len(lat) != mu:
        reasons.append(f"|L| = {len(lat)} differs from mu(1,G) = {mu}")
    if reasons:
        return _not_satisfied(claim, reasons, convention, context)
    bound = sd_bound_poly(base.shape).derivation / (2 * mu * mu)
    return _satisfied(claim, bound, sd(lat), convention, context)
