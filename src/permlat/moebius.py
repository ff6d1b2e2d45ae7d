"""Symmetric-group predictions for the bottom Moebius number mu(1, G).

The Moebius table is a class invariant of the lattice, decided once per
conjugacy class in :mod:`permlat.lattice` (:func:`moebius_table`), and the
Moebius-phrased bound is a checker in :mod:`permlat.bounds`
(:func:`mu_matching_bound_check`). Both, and :class:`MoebiusTable`, are
re-exported here as the same objects.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .groups import is_prime
from .lattice import MoebiusTable, moebius_table
from .bounds import mu_matching_bound_check


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
