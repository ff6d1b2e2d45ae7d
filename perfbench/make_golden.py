"""Regenerate ``golden.json``: the isomorphism invariants every job is checked
against, computed once from the canonical ``make_named`` labelling.

    python3 perfbench/make_golden.py

Cross-checks while generating: sd and spd against the naive product-set
oracles for groups of order <= 60, and mu(1, S5) against the known value.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

from workloads import (
    CHECKOUT,
    CONVENTIONS,
    GOLDEN_PATH,
    WORKLOADS,
    bounds_answer,
    bounds_job,
    degrees_answer,
    degrees_job,
    import_permlat,
    lattice_answer,
    lattice_job,
)

NAIVE_MAX_ORDER = 60


def cross_check(lib, spec: str, answer: dict) -> None:
    from permlat.degrees import sd_naive, spd_naive

    g = lib.make_named(spec)
    if g.order <= NAIVE_MAX_ORDER:
        lat = lib.enumerate_subgroups(g)
        if str(sd_naive(lat)) != answer["sd"]:
            raise AssertionError(f"{spec}: sd disagrees with the naive oracle")
        for conv in CONVENTIONS:
            if lib.spd(lat, conv) != spd_naive(lat, conv):
                raise AssertionError(f"{spec}: spd ({conv}) disagrees with the naive oracle")


def main() -> int:
    lib = import_permlat()
    pools = {w.golden_key: w.pool for w in WORKLOADS.values()}
    golden = {"degrees": {}, "lattice": {}, "bounds": {}}
    for spec in pools["degrees"]:
        answer = degrees_answer(degrees_job(lib, lib.make_named(spec), None))
        cross_check(lib, spec, answer)
        golden["degrees"][spec] = answer
    scratch = CHECKOUT / ".perfbench"
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as cache_dir:
        for spec in pools["lattice"]:
            out = lattice_job(lib, lib.make_named(spec), cache_dir)
            golden["lattice"][spec] = lattice_answer(out)
    predicted = lib.predicted_mu_symmetric(5)
    if golden["lattice"]["S5"]["mu_bottom"] != predicted:
        raise AssertionError(f"mu(1,S5) differs from the known value {predicted}")
    for spec in pools["bounds"]:
        golden["bounds"][spec] = bounds_answer(bounds_job(lib, lib.make_named(spec), None))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
