"""Built-in group catalog used by batch processing and the verification suite.

Orders stay at or below 120. S6 (order 720, 1455 subgroups) is not in the
catalog: only the Moebius check ``moebius-s6-stretch`` uses it, which runs in
the default acceptance suite and with ``permlat verify-paper --stretch``.
"""
from __future__ import annotations

from .groups import DEFAULT_ORDER_CAP, FiniteGroup, make_named

CATALOG_SPECS: tuple[str, ...] = (
    "C1", "C2", "C3", "C5", "C12",
    "Z:2,2", "Z:2,4", "Z:2,2,2", "Z:3,3",
    "S3", "D4", "Q8", "A4", "D6", "S4", "S5",
    "S3xC5", "A4xC5",
)

NILPOTENT_SPECS: tuple[str, ...] = ("C12", "D4", "Q8", "Z:2,2,2", "Z:3,3")


def catalog_groups(max_order: int = DEFAULT_ORDER_CAP) -> list[FiniteGroup]:
    """Catalog groups with order <= max_order, in catalog order."""
    out = []
    for spec in CATALOG_SPECS:
        g = make_named(spec, max_order=DEFAULT_ORDER_CAP)
        if g.order <= max_order:
            out.append(g)
    return out
