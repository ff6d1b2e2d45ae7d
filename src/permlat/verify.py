"""One-shot verification suite over the built-in catalog.

Each check recomputes a documented exactness claim from scratch and reports
PASS, FAIL or SKIP (skips happen when the needed groups sit above the
configured order cap). Nothing here is ever loosened to force a pass: a
claim that does not hold is reported as FAIL with the computed values.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import cache as cache_mod
from .bounds import (
    Rank2AbelianShape,
    abelian_prime_index_sd_check,
    maximal_count_elementary,
    sd_bound_poly,
    sd_rank2_bound_check,
    spd_bound_poly,
    spd_bound_poly_gap,
    subgroup_count_rank2,
    sweep_factorization_bounds,
    sweep_rank2_bounds,
)
from .catalog import CATALOG_SPECS, NILPOTENT_SPECS
from .degrees import (
    check_extremal_spd,
    check_multiplicativity,
    check_restricted_degree_inequality,
    d_naive,
    element_commutativity_degree,
    sd,
    sd_naive,
    spd,
    spd_naive,
)
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, make_named
from .lattice import CONVENTIONS, SubgroupLattice, moebius_table
from .moebius import predicted_mu_symmetric

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    status: str
    detail: str
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.status != FAIL


SHAPE_GRID: tuple[Rank2AbelianShape, ...] = tuple(
    Rank2AbelianShape(p, a1, a2)
    for p in (2, 3)
    for a1 in (1, 2, 3)
    for a2 in (1, 2, 3)
    if a1 <= a2 and p ** (a1 + a2) <= DEFAULT_ORDER_CAP
)


class VerificationRun:
    """Drives the suite; lattices are shared between checks via a memo."""

    def __init__(self, max_order: int = DEFAULT_ORDER_CAP, stretch: bool = False,
                 cache_dir: Optional[str] = None):
        self.max_order = max_order
        self.stretch = stretch
        self.cache_dir = cache_dir
        self.outcomes: list[CheckOutcome] = []
        self._groups: dict[str, Optional[FiniteGroup]] = {}
        self._lats: dict[str, SubgroupLattice] = {}
        self._notes: list[str] = []

    # -- plumbing ---------------------------------------------------------

    def group(self, spec: str) -> Optional[FiniteGroup]:
        if spec not in self._groups:
            g = make_named(spec, max_order=DEFAULT_ORDER_CAP)
            self._groups[spec] = g if g.order <= self.max_order else None
        return self._groups[spec]

    def lattice(self, spec: str) -> SubgroupLattice:
        if spec not in self._lats:
            g = self.group(spec)
            if g is None:
                raise LookupError(spec)
            self._lats[spec] = cache_mod.cached_lattice(self.cache_dir, g)
        return self._lats[spec]

    def _run(self, name: str, fn: Callable[[], Optional[str]]):
        start = time.monotonic()
        self._notes = []
        try:
            failure = fn()
        except _Skip as skip:
            self.outcomes.append(CheckOutcome(name, SKIP, str(skip),
                                              time.monotonic() - start))
            return
        elapsed = time.monotonic() - start
        if failure is None:
            self.outcomes.append(CheckOutcome(name, PASS,
                                              "; ".join(self._notes), elapsed))
        else:
            self.outcomes.append(CheckOutcome(name, FAIL, failure, elapsed))

    def note(self, message: str):
        self._notes.append(message)

    def _need(self, *specs: str) -> list[str]:
        missing = [s for s in specs if self.group(s) is None]
        if missing:
            raise _Skip("above order cap: " + ", ".join(missing))
        return list(specs)

    def _available(self, specs) -> list[str]:
        present = [s for s in specs if self.group(s) is not None]
        missing = [s for s in specs if self.group(s) is None]
        if missing:
            self.note("skipped (above order cap): " + ", ".join(missing))
        return present

    def catalog_available(self) -> list[str]:
        return self._available(CATALOG_SPECS)

    # -- checks ------------------------------------------------------------

    def check_sd_s3(self) -> Optional[str]:
        self._need("S3")
        value = sd(self.lattice("S3"))
        if value != Fraction(5, 6):
            return f"sd(S3) = {value}, expected 5/6"
        return None

    def check_nilpotent_spd(self) -> Optional[str]:
        for spec in self._available(NILPOTENT_SPECS):
            lat = self.lattice(spec)
            for conv in CONVENTIONS:
                value = spd(lat, conv)
                if value != 1:
                    return f"spd({spec}, {conv}) = {value}, expected 1"
        return None

    def check_multiplicativity(self) -> Optional[str]:
        # sd is multiplicative over coprime factors; spd is the |M|-weighted
        # mean of the factor degrees under both conventions (see
        # degrees.check_multiplicativity). The paper's product rule for spd
        # is false, and its witnesses are reported on a pass.
        problems = []
        refuted = []
        for left, right in (("S3", "C5"), ("A4", "C5")):
            if self.group(left) is None or self.group(right) is None \
                    or self.group(left).order * self.group(right).order > self.max_order:
                self.note(f"skipped (above order cap): {left}x{right}")
                continue
            res = check_multiplicativity([self.group(left), self.group(right)])
            if not res.coprime:
                problems.append(f"{left}x{right}: factors not coprime")
                continue
            if not res.sd.equal:
                problems.append(
                    f"sd({left}x{right}) = {res.sd.product_degree} but factor "
                    f"product = {res.sd.degree_product}")
            for conv, law in res.spd_law.items():
                if not law.equal:
                    problems.append(
                        f"spd({left}x{right}, {conv}) = {law.product_degree} but "
                        f"weighted-mean law = {law.law_degree}")
            if not res.spd.equal:
                refuted.append(
                    f"spd({left}x{right}) = {res.spd.product_degree}, "
                    f"spd({left})*spd({right}) = {res.spd.degree_product}")
        if problems:
            return "; ".join(problems)
        if refuted:
            self.note("spd weighted-mean law holds; paper's spd product rule is "
                      "false: " + "; ".join(refuted))
        return None

    def check_rank2_count_grid(self) -> Optional[str]:
        for shape in SHAPE_GRID:
            if shape.group_order() > self.max_order:
                self.note(f"skipped (above order cap): {shape}")
                continue
            spec = f"Z:{shape.p ** shape.alpha1},{shape.p ** shape.alpha2}"
            lat = self.lattice(spec)
            formula = subgroup_count_rank2(shape)
            if formula != len(lat):
                return (f"{spec}: formula gives {formula}, enumeration "
                        f"gives {len(lat)}")
        return None

    def check_elementary_maximal_counts(self) -> Optional[str]:
        from .lattice import maximal_subgroups
        cases = {(2, 2): "Z:2,2", (2, 3): "Z:2,2,2", (3, 2): "Z:3,3"}
        for (p, k), spec in cases.items():
            if self.group(spec) is None:
                self.note(f"skipped (above order cap): {spec}")
                continue
            raw = len(maximal_subgroups(self.lattice(spec), "raw"))
            formula = maximal_count_elementary(p, k)
            if raw != formula:
                return f"{spec}: formula {formula} vs raw count {raw}"
        return None

    def check_bound_poly_forms(self) -> Optional[str]:
        for shape in SHAPE_GRID:
            forms = spd_bound_poly(shape)
            expected = (shape.p + 1) * subgroup_count_rank2(shape) + 4
            if forms.derivation != expected:
                return f"{shape}: derivation form mismatch"
            if forms.gap != spd_bound_poly_gap(shape):
                return (f"{shape}: expansion gap {forms.gap} differs from "
                        f"pinned {spd_bound_poly_gap(shape)}")
            sd_forms = sd_bound_poly(shape)  # raises if the forms disagree
            if sd_forms.derivation != subgroup_count_rank2(shape) ** 2 + 4:
                return f"{shape}: sd numerator mismatch"
        return None

    def _node_of_order(self, lat: SubgroupLattice, order: int) -> int:
        for i in range(len(lat)):
            if lat.node_order(i) == order:
                return i
        raise LookupError(f"no node of order {order}")

    def check_rank2_bound_instances(self) -> Optional[str]:
        self._need("A4", "D4", "S3")
        la4 = self.lattice("A4")
        v4 = self._node_of_order(la4, 4)
        res = sd_rank2_bound_check(la4, v4)
        if not (res.hypothesis_satisfied and res.bound == Fraction(29, 200)
                and res.actual == Fraction(16, 25) and res.holds):
            return f"A4/V4: bound={res.bound} actual={res.actual}"
        ld4 = self.lattice("D4")
        klein_checked = 0
        for i in range(len(ld4)):
            if ld4.node_order(i) != 4:
                continue
            r = sd_rank2_bound_check(ld4, i)
            if r.hypothesis_satisfied:
                klein_checked += 1
                if r.bound != Fraction(29, 200) or not r.holds:
                    return f"D4 node {i}: bound={r.bound} actual={r.actual}"
        if klein_checked == 0:
            return "D4: no qualifying rank-2 normal subgroup found"
        ls3 = self.lattice("S3")
        a3 = self._node_of_order(ls3, 3)
        r = abelian_prime_index_sd_check(ls3, a3)
        if not (r.hypothesis_satisfied and r.actual == 30 and r.bound == 9 and r.holds):
            return f"S3/A3 prime-index bound: actual={r.actual} bound={r.bound}"
        r = abelian_prime_index_sd_check(la4, v4)
        if not (r.hypothesis_satisfied and r.actual == 64 and r.bound == 36 and r.holds):
            return f"A4/V4 prime-index bound: actual={r.actual} bound={r.bound}"
        return None

    def check_moebius_symmetric(self) -> Optional[str]:
        expected = {"S3": 3, "S4": -12, "S5": 60}
        for spec, value in expected.items():
            if self.group(spec) is None:
                self.note(f"skipped (above order cap): {spec}")
                continue
            mu = moebius_table(self.lattice(spec)).bottom_value
            n = int(spec[1:])
            pred = predicted_mu_symmetric(n)
            if mu != value or pred != value:
                return f"{spec}: recursion {mu}, prediction {pred}, expected {value}"
        return None

    def check_restricted_degree_inequality(self) -> Optional[str]:
        for spec in self.catalog_available():
            if self.group(spec).order == 1:
                continue  # no maximal subgroups to restrict against
            lat = self.lattice(spec)
            for conv in CONVENTIONS:
                res = check_restricted_degree_inequality(lat, conv)
                if not res.holds:
                    return f"{spec} ({conv}): lhs={res.lhs} > rhs={res.rhs}"
                if res.equality != res.sn_eq_max_eq_all:
                    return (f"{spec} ({conv}): equality={res.equality} but "
                            f"sn=M=L is {res.sn_eq_max_eq_all}")
        return None

    def check_extremal_biconditional(self) -> Optional[str]:
        for spec in self.catalog_available():
            if self.group(spec).order == 1:
                continue
            lat = self.lattice(spec)
            for conv in CONVENTIONS:
                res = check_extremal_spd(lat, conv)
                if not res.biconditional_holds:
                    return f"{spec} ({conv}): {res}"
                if res.sn_in_max_perp != res.max_in_sn_perp:
                    return f"{spec} ({conv}): the two inclusions diverge: {res}"
        return None

    def check_factorization_bounds(self) -> Optional[str]:
        s3_instance_seen = False
        for spec in self.catalog_available():
            lat = self.lattice(spec)
            for conv in CONVENTIONS:
                for res in sweep_factorization_bounds(lat, conv):
                    if res.hypothesis_satisfied and not res.holds:
                        return (f"{spec} ({conv}) {res.claim} {res.context}: "
                                f"bound={res.bound} actual={res.actual}")
                    if (spec == "S3" and conv == "raw" and res.claim == "cauchy-sd"
                            and res.hypothesis_satisfied
                            and res.context.get("n", "").endswith("(order 3)")
                            and res.context.get("h", "").endswith("(order 2)")):
                        s3_instance_seen = True
                        if res.bound != Fraction(1, 81) or res.actual != Fraction(25, 36):
                            return (f"S3 factorization instance: bound^2={res.bound} "
                                    f"actual^2={res.actual}, expected (1/9)^2 and (5/6)^2")
        if self.group("S3") is not None and not s3_instance_seen:
            return "the S3 = (order 3) * (order 2) instance was never exercised"
        return None

    def check_bound_sweeps(self) -> Optional[str]:
        for spec in self.catalog_available():
            lat = self.lattice(spec)
            for conv in CONVENTIONS:
                for allow_rank1 in (False, True):
                    for res in sweep_rank2_bounds(lat, conv, allow_rank1):
                        if res.hypothesis_satisfied and not res.holds:
                            return (f"{spec} ({conv}, rank1={allow_rank1}) "
                                    f"{res.claim} {res.context}: bound={res.bound} "
                                    f"actual={res.actual}")
        return None

    def check_naive_oracle(self) -> Optional[str]:
        for spec in self.catalog_available():
            g = self.group(spec)
            if g.order > 60:
                continue
            lat = self.lattice(spec)
            if sd_naive(lat) != sd(lat):
                return f"sd mismatch on {spec}"
            if g.order > 1:
                for conv in CONVENTIONS:
                    if spd_naive(lat, conv) != spd(lat, conv):
                        return f"spd mismatch on {spec} ({conv})"
            if d_naive(g) != element_commutativity_degree(g):
                return f"d mismatch on {spec}"
        return None

    def check_element_degree_values(self) -> Optional[str]:
        self._need("S3")
        if element_commutativity_degree(self.group("S3")) != Fraction(1, 2):
            return "d(S3) != 1/2"
        for spec in self.catalog_available():
            g = self.group(spec)
            value = element_commutativity_degree(g)
            if g.is_abelian and value != 1:
                return f"d({spec}) = {value} on an abelian group"
            if not g.is_abelian and value == 1:
                return f"d({spec}) = 1 on a nonabelian group"
        return None

    def check_moebius_stretch(self) -> Optional[str]:
        if self.group("S6") is None:
            raise _Skip("S6 above order cap")
        mu = moebius_table(self.lattice("S6")).bottom_value
        pred = predicted_mu_symmetric(6)
        if mu != -720 or pred != -720:
            return f"S6: recursion {mu}, prediction {pred}, expected -720"
        return None

    # -- driver -------------------------------------------------------------

    def run(self) -> list[CheckOutcome]:
        checks = [
            ("sd-s3-exact", self.check_sd_s3),
            ("nilpotent-spd-one", self.check_nilpotent_spd),
            ("coprime-multiplicativity", self.check_multiplicativity),
            ("rank2-count-grid", self.check_rank2_count_grid),
            ("elementary-maximal-count", self.check_elementary_maximal_counts),
            ("bound-numerator-forms", self.check_bound_poly_forms),
            ("rank2-bound-instances", self.check_rank2_bound_instances),
            ("moebius-symmetric", self.check_moebius_symmetric),
            ("restricted-degree-inequality", self.check_restricted_degree_inequality),
            ("extremal-biconditional", self.check_extremal_biconditional),
            ("factorization-bounds", self.check_factorization_bounds),
            ("naive-oracle-equivalence", self.check_naive_oracle),
            ("element-degree-values", self.check_element_degree_values),
            ("rank2-bound-sweeps", self.check_bound_sweeps),
        ]
        if self.stretch:
            checks.append(("moebius-s6-stretch", self.check_moebius_stretch))
        for name, fn in checks:
            self._run(name, fn)
        return self.outcomes

    @property
    def all_ok(self) -> bool:
        return all(o.ok for o in self.outcomes)


class _Skip(Exception):
    pass


def run_verification(max_order: int = DEFAULT_ORDER_CAP, stretch: bool = False,
                     cache_dir: Optional[str] = None) -> VerificationRun:
    run = VerificationRun(max_order=max_order, stretch=stretch, cache_dir=cache_dir)
    run.run()
    return run
