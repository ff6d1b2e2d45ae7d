"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They use small sub-pools of the real workloads so that each run takes seconds.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CHECKOUT,
    WORKLOADS,
    import_permlat,
    load_golden,
    make_inputs,
)


def small(name: str, pool: tuple, min_passes: int = 1):
    return dataclasses.replace(WORKLOADS[name], name=f"test-{name}", pool=pool,
                               min_passes=min_passes)


SMALL = {
    "degrees": small("degrees-report", ("S4", "D6", "A4xC5"), min_passes=4),
    "cold": small("lattice-cold", ("Z:2,2,2,2,2", "S5")),
    "warm": small("lattice-warm", ("Z:2,2,2,2,2", "S5")),
    "bounds": small("bounds-sweep", ("Z:4,4", "S4")),
}

COUNT_UNITS = ("count", "bytes", "ratio")


def traced_counts(workload, seed: int) -> dict:
    result = bench_run.run(workload, seed, seconds=0, trace=True)
    assert result["correct"], result
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("key", ["degrees", "cold", "warm", "bounds"])
def test_layer_counts_repeat_for_a_seed(key):
    first = traced_counts(SMALL[key], seed=7)
    second = traced_counts(SMALL[key], seed=7)
    assert first == second


def test_traced_run_sees_calls_made_inside_the_package():
    result = bench_run.run(SMALL["degrees"], 3, seconds=0, trace=True)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # is_modular_lattice and chi_rows are reached only from build_degree_report
    assert values["lattice.modular_s"] > 0
    assert values["lattice.chi_rows_s"] > 0
    assert values["groups.closure_calls"] > 0
    assert values["lattice.nodes_enumerated"] == sum(
        load_golden()["degrees"][s]["lattice_size"] for s in ("S4", "D6", "A4xC5"))


def test_tracer_patches_every_importing_module_and_restores_them():
    lib = import_permlat()
    original = lib.lattice.is_modular_lattice
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        assert lib.degrees.is_modular_lattice is not original
        assert lib.degrees.is_modular_lattice is lib.lattice.is_modular_lattice
        assert lib.is_modular_lattice is lib.lattice.is_modular_lattice
    finally:
        tracer.uninstall()
    assert lib.degrees.is_modular_lattice is original
    assert lib.lattice.is_modular_lattice is original


def test_corrupted_golden_value_counts_as_failure():
    workload = SMALL["degrees"]
    clean = bench_run.run(workload, 5, seconds=0, trace=False)
    assert clean["correct"] and clean["failed"] == 0
    golden = copy.deepcopy(load_golden())
    golden["degrees"]["S4"]["sd"] = "1/2"
    result = bench_run.run(workload, 5, seconds=0, trace=False, golden=golden)
    assert not result["correct"]
    assert result["failed"] == workload.min_passes  # one S4 job per pass
    assert result["failed"] / result["attempted"] > 0


def test_warm_loads_must_match_setup_masks():
    bench = bench_run.Bench(SMALL["warm"], 2, load_golden(), str(bench_run.OUT_DIR / "test-warm"))
    try:
        bench.setup()
        first = bench.run_pass(0)
        assert bench.failures(first) == []
        s5 = next(inp for inp in bench.inputs if inp.spec == "S5")
        s5.masks = s5.masks[1:] + s5.masks[:1]
        assert any("masks differ" in r for r in bench.failures(first))
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)


def test_self_time_is_net_of_children_and_counted_calls():
    def span(name, start, end, parent, counted=None):
        s = tracing.Span(name, start, parent, "j")
        s.end, s.counted = end, counted
        return s

    spans = [
        span("job", 0.0, 10.0, -1),
        span("lattice.enumerate_subgroups", 1.0, 9.0, 0, {"closure": [40, 5.0]}),
        span("lattice.normal_subgroups", 2.0, 3.0, 1, {"product_mask": [3, 0.25]}),
    ]
    spans[1].value = 4
    values = tracing.layer_metrics(spans, {"j"}, [])
    assert values["lattice.enumerate_s"] == 8.0 - 1.0 - 5.0
    assert values["lattice.normal_s"] == 1.0 - 0.25
    assert values["groups.closure_s"] == 5.0
    assert values["lattice.closure_yield"] == 4 / 40


@pytest.mark.parametrize("key", ["degrees", "cold"])
def test_self_times_fit_in_the_traced_pass(key):
    bench = bench_run.Bench(SMALL[key], 4, load_golden(),
                            str(bench_run.OUT_DIR / f"test-self-{key}"))
    try:
        metrics, passes, _ = bench_run.per_layer(bench, seconds=0)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    values = {name: m["value"] for name, m in metrics.items()}
    traced = [p.measured for p in passes if p.tag == "t"]
    own = sum(values[m] for m, (_, kind) in tracing.TIME_METRICS.items() if kind == "self")
    counted = values["groups.closure_s"] + values["groups.product_mask_s"]
    assert own >= 0 and counted > 0
    assert own + counted <= sum(traced) / len(traced)


def test_overhead_cancels_linear_drift_and_reports_its_floor():
    def record(tag, seconds):
        return bench_run.PassRecord(
            tag, [bench_run.JobRecord(k, s, None, None) for k, s in enumerate(seconds)],
            [])

    over, floor = bench_run.overhead(record("a", [1.0, 2.0]), record("t", [1.5, 2.5]),
                                     record("b", [1.2, 2.0]))
    assert over == pytest.approx(0.4 + 0.5)
    assert floor == pytest.approx(0.1)


def test_two_seeds_relabel_differently_but_agree_on_invariants():
    lib = import_permlat()
    pool = ("S4", "D6", "A4xC5", "Z:4,4")
    one, two = make_inputs(lib, pool, 1), make_inputs(lib, pool, 2)
    digest = lib.cache.table_digest
    assert all(digest(a.group) != digest(b.group) for a, b in zip(one, two))
    golden = load_golden()
    deg = WORKLOADS["degrees-report"]
    bnd = WORKLOADS["bounds-sweep"]
    for a, b in zip(one, two):
        for w in (deg, bnd):
            if a.spec in golden[w.golden_key]:
                got_a = w.answer(w.job(lib, copy.copy(a.group), None))
                got_b = w.answer(w.job(lib, copy.copy(b.group), None))
                assert got_a == got_b == golden[w.golden_key][a.spec]


def test_benchmark_file_lists_what_the_runner_reports():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_fails_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
