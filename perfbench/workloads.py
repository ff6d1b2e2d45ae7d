"""Workload definitions: base-group pools, seeded inputs, jobs and answers.

A *job* is the library-call equivalent of one ``permlat`` CLI command on one
group. Each workload has a fixed pool of base groups; the seed picks each base
group's relabelling and the job order of every pass. A pass runs one job per
base group, so every pass does the same mathematics.

The library is reached only through the module object returned by
:func:`import_permlat`, so that set-up can re-import it and the tracer can
patch it.
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
import importlib
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC_DIR = CHECKOUT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

CONVENTIONS = ("raw", "closed")


class BenchSetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_permlat():
    """Import ``permlat`` from the checkout's ``src``, dropping any earlier copy.

    Each call re-executes the package's modules, so a set-up repetition pays
    the import like a fresh CLI process does.
    """
    if not (SRC_DIR / "permlat" / "__init__.py").is_file():
        raise BenchSetupError(f"no permlat package under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if m == "permlat" or m.startswith("permlat.")]:
        del sys.modules[name]
    lib = importlib.import_module("permlat")
    importlib.import_module("permlat.cache")
    if Path(lib.__file__).resolve().parent != SRC_DIR / "permlat":
        raise BenchSetupError(f"permlat imported from {lib.__file__}, not {SRC_DIR}")
    return lib


# -- seeded inputs ----------------------------------------------------------

def relabelling(order: int, seed: int, spec: str) -> list[int]:
    """Seeded permutation of 0..order-1 that fixes the identity 0.

    Keyed by (seed, spec) only, so every workload sees the same labelling of a
    base group for one seed.
    """
    rest = list(range(1, order))
    random.Random(f"relabel/{seed}/{spec}").shuffle(rest)
    return [0] + rest


def relabel_table(table, sigma: list[int]) -> list[list[int]]:
    """Table of the same group with element x renamed sigma[x]."""
    n = len(table)
    inv = [0] * n
    for x, y in enumerate(sigma):
        inv[y] = x
    out = [None] * n
    for a in range(n):
        row = table[a]
        out[sigma[a]] = [sigma[row[inv[j]]] for j in range(n)]
    return out


def pass_order(seed: int, workload: str, pass_index: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"order/{seed}/{workload}/{pass_index}").shuffle(order)
    return order


@dataclass
class Input:
    """One relabelled base group, ingested and never used by a job directly:
    each job gets a shallow copy, so no cached group property leaks between
    jobs."""

    spec: str
    group: object
    masks: Optional[tuple] = None  # lattice-warm: masks enumerated at set-up


def make_inputs(lib, pool, seed: int) -> list[Input]:
    """Build each base group, relabel it and ingest it through the validated
    ``FiniteGroup.from_table`` (associativity check included)."""
    out = []
    for spec in pool:
        base = lib.make_named(spec)
        table = relabel_table(base.table, relabelling(base.order, seed, spec))
        group = lib.FiniteGroup.from_table(table, name=spec)
        out.append(Input(spec, group))
    return out


def prefill_cache(lib, inputs: list[Input], cache_dir: str) -> None:
    for inp in inputs:
        lat = lib.enumerate_subgroups(copy.copy(inp.group))
        lib.cache.store_lattice(cache_dir, lat)
        inp.masks = lat.masks


# -- jobs -------------------------------------------------------------------

def degrees_job(lib, group, cache_dir):
    """``permlat degrees``."""
    return lib.build_degree_report(lib.enumerate_subgroups(group))


@dataclass(frozen=True)
class LatticeOut:
    hit: bool
    masks: tuple
    sizes: dict
    mu_bottom: int


def lattice_job(lib, group, cache_dir):
    """``permlat moebius --cache`` plus the node flags of ``permlat lattice``."""
    lat = lib.cache.load_lattice(cache_dir, group)
    hit = lat is not None
    if lat is None:
        lat = lib.enumerate_subgroups(group)
        lib.cache.store_lattice(cache_dir, lat)
    sizes = {
        "lattice": len(lat),
        "normal": len(lib.normal_subgroups(lat)),
        "subnormal": len(lib.subnormal_subgroups(lat)),
        "maximal_raw": len(lib.maximal_subgroups(lat, "raw")),
        "maximal_closed": len(lib.maximal_subgroups(lat, "closed")),
        "sylow": len(lib.sylow_subgroups(lat)),
    }
    mu = lib.moebius_table(lat).bottom_value
    return LatticeOut(hit, lat.masks, sizes, mu)


def bounds_job(lib, group, cache_dir):
    """``permlat bounds --claim all`` under both conventions, plus the two
    sweeps of ``verify-paper``. Returns (claim, hypothesis, bound, actual,
    holds) rows."""
    bounds_mod, moebius_mod = lib.bounds, lib.moebius
    lat = lib.enumerate_subgroups(group)
    results = []
    for conv in CONVENTIONS:
        results += bounds_mod.sweep_factorization_bounds(lat, conv)
        results += bounds_mod.sweep_rank2_bounds(lat, conv, False)
        results += bounds_mod.sweep_rank2_bounds(lat, conv, True)
        check = bounds_mod.fitting_centralizer_check(lat, conv, "strict")
        if check.hypotheses:
            results += check.part_i
            if check.part_ii is not None:
                results.append(check.part_ii)
        else:
            results.append(("theorem1", False, None, None, None))
        results.append(moebius_mod.mu_matching_bound_check(lat, conv, "strict"))
    return results


# -- answers: isomorphism invariants compared against golden values ----------

def _frac(value) -> Optional[str]:
    return None if value is None else str(value)


def degrees_answer(report) -> dict:
    fields = dataclasses.asdict(report)
    del fields["group_name"]
    return {k: _frac(v) if k in ("sd", "spd", "d") else v for k, v in fields.items()}


def lattice_answer(out: LatticeOut) -> dict:
    return dict(out.sizes, mu_bottom=out.mu_bottom)


def bound_rows(results) -> list[tuple]:
    rows = []
    for r in results:
        if isinstance(r, tuple):
            rows.append(r)
        else:
            rows.append((r.claim, r.hypothesis_satisfied, _frac(r.bound),
                         _frac(r.actual), r.holds))
    return rows


def bounds_answer(results) -> dict:
    rows = sorted(json.dumps(row) for row in bound_rows(results))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    qualifying = sum(1 for row in bound_rows(results) if row[1])
    return {"instances": len(rows), "qualifying": qualifying, "digest": digest}


# -- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: tuple[str, ...]
    job: Callable
    answer: Callable
    golden_key: str
    min_passes: int
    prefill: bool = False
    expect_hit: Optional[bool] = None

    def tail_quantile(self) -> float:
        """Highest quantile with at least ten samples beyond it in a run of
        ``min_passes`` passes (linear interpolation between order statistics).
        """
        n = self.min_passes * len(self.pool)
        if n < 11:
            raise ValueError(f"{self.name}: {n} samples leave no ten beyond a percentile")
        return (n - 11) / (n - 1)


# min_passes: few enough passes to fit the run budget, enough to leave ten jobs
# beyond the tail percentile, which then falls inside one base group's block of
# samples instead of between two groups (a boundary would pick an outlier).
LATTICE_POOL = ("S5xC2", "D4xD4", "Z:2,2,2,2,2", "S4xS3", "A4xA4", "S5", "A5xC3")

WORKLOADS = {w.name: w for w in (
    Workload(
        "degrees-report",
        "enumerate_subgroups + build_degree_report; the only workload running chi_rows and is_modular_lattice",
        ("S5", "A5xC2", "D4xS3", "S4xC2", "S4xC3", "Q8xS3", "S3xS3", "Z:2,2,2,2",
         "S4xC5", "A4xC5", "S4", "D6"),
        degrees_job, degrees_answer, "degrees", min_passes=4),
    Workload(
        "lattice-cold",
        "cache miss, enumeration, store, selections and Moebius; enumeration and closures dominate, no chi_rows or modularity",
        LATTICE_POOL, lattice_job, lattice_answer, "lattice", min_passes=3,
        expect_hit=False),
    Workload(
        "lattice-warm",
        "same pool and labellings served from a cache filled at set-up; loads, SubgroupLattice construction and subnormality dominate",
        LATTICE_POOL, lattice_job, lattice_answer, "lattice", min_passes=4,
        prefill=True, expect_hit=True),
    Workload(
        "bounds-sweep",
        "factorization, rank-2, Fitting and Moebius bound sweeps under both conventions; re-roots every node",
        ("Z:2,2,2,2", "D4xS3", "S5", "Q8xS3", "S4xC2", "S4xC3", "Z:2,2,2xC3",
         "S3xS3", "Z:4,4", "S4", "A4xC5"),
        bounds_job, bounds_answer, "bounds", min_passes=3),
)}


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Outcome:
    """What the correctness check needs from one job's output. The output
    itself is dropped as soon as the job has been timed, so that results held
    for the check do not add to the process's memory high-water mark."""

    answer: dict
    hit: Optional[bool] = None
    masks: Optional[tuple] = None  # lattice-warm only


def outcome(workload: Workload, raw) -> Outcome:
    if workload.expect_hit is None:
        return Outcome(workload.answer(raw))
    return Outcome(workload.answer(raw), raw.hit,
                   raw.masks if workload.prefill else None)


def check_job(workload: Workload, inp: Input, out: Outcome, golden: dict) -> Optional[str]:
    """None when the job's output is right, else a one-line reason."""
    got = out.answer
    want = golden[workload.golden_key][inp.spec]
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"{inp.spec}: answer differs from golden in {diff}"
    if workload.expect_hit is not None and out.hit != workload.expect_hit:
        return f"{inp.spec}: cache {'hit' if out.hit else 'miss'} unexpected"
    if workload.prefill and out.masks != inp.masks:
        return f"{inp.spec}: loaded masks differ from the masks enumerated at set-up"
    return None


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
