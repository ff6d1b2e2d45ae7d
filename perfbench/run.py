"""permlat benchmark: seeded workloads, end-to-end metrics and a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload degrees-report --seed 1 --seconds 10 --trace 0

Load shape: a closed loop, one client in one process, jobs back to back. A
pass runs one job per base group of the workload's pool, in a seeded order;
the timed phase runs whole passes until ``--seconds`` have gone by and at least
the workload's minimum number of passes is done. Every answer is checked
against ``golden.json`` after the timed phase.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median of ``SETUP_REPS`` set-ups (import, input generation and
  ingestion, and the cache prefill of lattice-warm);
- ``jobs_per_s``: jobs per pass over the median pass time;
- ``job_p50_s``: median over passes of each pass's median job latency;
- ``job_tail_s``: job latency at the highest percentile that leaves ten jobs
  beyond it in a run of the workload's minimum number of passes (printed with
  the sample count on the line before the result);
- ``peak_rss_mb``: the process's resident-memory high-water mark.

Times are scaled to a fixed host speed with ``reference.py``; the unscaled
ratio is printed on the summary line.

``--trace 1`` runs every job of a pass three times back to back: untraced,
traced, untraced. It reports the per-layer metrics per pass from the traced
executions (span times unscaled) and the tracing overhead from all three (see
:func:`overhead`); its spans go to ``.perfbench/trace-<workload>-seed<n>.json``
in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from typing import Optional

import reference
import tracing
from tracing import LAYER_METRICS, Tracer, clock
from workloads import (
    CHECKOUT,
    WORKLOADS,
    BenchSetupError,
    Workload,
    Outcome,
    check_job,
    import_permlat,
    load_golden,
    make_inputs,
    outcome,
    pass_order,
    prefill_cache,
    reset_dir,
)

SETUP_REPS = 3
OUT_DIR = CHECKOUT / ".perfbench"

# name, unit, better: every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class JobRecord:
    input_index: int
    measured: float
    outcome: Optional[Outcome]  # None when the job raised
    error: Optional[str]
    seconds: float = 0.0  # ``measured`` scaled to the reference speed


@dataclass
class PassRecord:
    tag: str  # which of a pass's executions of every job ("" or "a", "t", "b")
    jobs: list
    job_ids: list

    @property
    def seconds(self) -> float:
        """Sum of the pass's scaled job latencies."""
        return sum(r.seconds for r in self.jobs)

    @property
    def measured(self) -> float:
        return sum(r.measured for r in self.jobs)


def scale(measured: float, refs: list[float]) -> float:
    """``measured`` at the reference speed, judged by the median of ``refs``."""
    return measured * reference.REF_SECONDS / statistics.median(refs)


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Bench:
    """One run of one workload: set-up, timed passes, checks."""

    def __init__(self, workload: Workload, seed: int, golden: dict, workdir):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.workdir = workdir
        self.lib = None
        self.inputs = []
        self.cache_dir = None

    def setup(self, tracer: Optional[Tracer] = None) -> list[float]:
        """Import, generate, ingest (and prefill): once under ``tracer`` when
        one is given, else ``SETUP_REPS`` times. The last repetition's state
        is kept. Returns each repetition's scaled seconds."""
        times = []
        for rep in range(1 if tracer is not None else SETUP_REPS):
            cache_dir = (os.path.join(self.workdir, f"setup-{rep}")
                         if self.workload.prefill else None)
            ref_before = reference.measure()
            t0 = clock()
            lib = import_permlat()
            if tracer is not None:
                tracer.install(lib)
                tracer.begin("setup", "setup")
            inputs = make_inputs(lib, self.workload.pool, self.seed)
            if self.workload.prefill:
                prefill_cache(lib, inputs, cache_dir)
            if tracer is not None:
                tracer.end()
                tracer.uninstall()
            times.append(scale(clock() - t0, [ref_before, reference.measure()]))
            if self.cache_dir is not None:  # the previous repetition's cache
                shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.lib, self.inputs, self.cache_dir = lib, inputs, cache_dir
        return times

    def run_pass(self, index: int,
                 modes: tuple = (("", None),)) -> list[PassRecord]:
        """One pass over the seeded job order. Each job runs once per
        ``(tag, tracer)`` in ``modes``, back to back; returns one record per
        mode. A job's output is reduced to its :class:`Outcome` as soon as it
        has been timed."""
        w = self.workload
        order = pass_order(self.seed, w.name, index, len(self.inputs))
        cache_dirs = {}
        for tag, _ in modes:
            cache_dirs[tag] = self.cache_dir
            if not w.prefill:
                cache_dirs[tag] = os.path.join(self.workdir, f"pass-{index}{tag}")
                reset_dir(cache_dirs[tag])
        passes = [PassRecord(tag, [], []) for tag, _ in modes]
        executed = []
        refs = [reference.measure()]  # refs[k] is taken just before execution k
        for i in order:
            for (tag, tracer), record in zip(modes, passes):
                group = copy.copy(self.inputs[i].group)
                job_id = f"{index}{tag}:{self.inputs[i].spec}"
                gc.collect()  # start each job as clean as a fresh CLI process
                if tracer is not None:
                    tracer.install(self.lib)
                    tracer.begin("job", job_id)
                error = None
                t0 = clock()
                try:
                    raw = w.job(self.lib, group, cache_dirs[tag])
                except Exception:
                    raw, error = None, traceback.format_exc()
                dt = clock() - t0
                if tracer is not None:
                    tracer.end()
                    tracer.uninstall()
                out = None
                if error is None:
                    try:
                        out = outcome(w, raw)
                    except Exception:
                        error = traceback.format_exc()
                del raw, group
                refs.append(reference.measure())
                rec = JobRecord(i, dt, out, error)
                record.jobs.append(rec)
                record.job_ids.append(job_id)
                executed.append(rec)
        if not w.prefill:
            for path in cache_dirs.values():
                shutil.rmtree(path, ignore_errors=True)
        for k, rec in enumerate(executed):  # the two references around the job, one more each side
            rec.seconds = scale(rec.measured, refs[max(0, k - 1):k + 3])
        return passes

    def failures(self, passes: list[PassRecord]) -> list[str]:
        out = []
        for p in passes:
            for rec in p.jobs:
                inp = self.inputs[rec.input_index]
                if rec.error is not None:
                    out.append(f"{inp.spec}: raised\n{rec.error}")
                    continue
                reason = check_job(self.workload, inp, rec.outcome, self.golden)
                if reason is not None:
                    out.append(reason)
        return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list, str]:
    w = bench.workload
    setup_times = bench.setup()
    passes = []
    start = clock()
    while len(passes) < w.min_passes or clock() - start < seconds:
        passes += bench.run_pass(len(passes))
    latencies = [rec.seconds for p in passes for rec in p.jobs]
    q = w.tail_quantile()
    values = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": len(w.pool) / statistics.median(p.seconds for p in passes),
        "job_p50_s": statistics.median(
            statistics.median(r.seconds for r in p.jobs) for p in passes),
        "job_tail_s": quantile(latencies, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: _metric(values[name], unit) for name, unit, _ in END_TO_END}
    speed = statistics.median(r.measured / r.seconds for p in passes for r in p.jobs)
    note = (f"setups={len(setup_times)} passes={len(passes)} jobs={len(latencies)} "
            f"job_tail_s=p{100 * q:.1f} of {len(latencies)} jobs; "
            f"measured/scaled time {speed:.3f}")
    return metrics, passes, note


def overhead(plain_a: PassRecord, traced: PassRecord,
             plain_b: PassRecord) -> tuple[float, float]:
    """Tracing overhead of one pass and its noise floor, in measured seconds.

    Every job ran untraced (a), traced (t) and untraced again (b), back to
    back. The overhead is the sum over jobs of t - (a + b) / 2, which cancels
    a linear drift of host speed across the three. The floor is the sum over
    jobs of |a - b| / 2: how far apart two untraced executions of the same
    jobs fell. An overhead below its floor is not resolved.
    """
    over = floor = 0.0
    for a, t, b in zip(plain_a.jobs, traced.jobs, plain_b.jobs):
        over += t.measured - (a.measured + b.measured) / 2
        floor += abs(a.measured - b.measured) / 2
    return over, floor


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list, str]:
    tracer = Tracer()
    bench.setup(tracer)
    modes = (("a", None), ("t", tracer), ("b", None))
    triples = []
    start = clock()
    while not triples or clock() - start < seconds:
        triples.append(bench.run_pass(len(triples), modes))
    per_pass = []
    for _, p, _ in triples:
        answers = [rec.outcome.answer for rec in p.jobs if rec.error is None]
        per_pass.append(tracing.layer_metrics(tracer.spans, set(p.job_ids), answers))
    values = {}
    for name in per_pass[0]:
        seen = [m[name] for m in per_pass]
        if name.endswith("_s"):
            values[name] = statistics.fmean(seen)
        else:  # counts repeat exactly from pass to pass
            if len(set(seen)) != 1:
                print(f"perfbench: {name} differs between passes: {seen}",
                      file=sys.stderr)
            values[name] = seen[0]
    values["groups.build_s"] = tracing.build_seconds(tracer.spans, "setup")
    overheads = [overhead(*triple) for triple in triples]
    values["trace.overhead_s"] = statistics.median(o for o, _ in overheads)
    values["trace.overhead_floor_s"] = statistics.median(f for _, f in overheads)
    tracer.write(str(OUT_DIR / f"trace-{bench.workload.name}-seed{bench.seed}.json"))
    metrics = {name: _metric(values[name], unit) for name, unit, _ in LAYER_METRICS}
    resolved = abs(values["trace.overhead_s"]) > values["trace.overhead_floor_s"]
    note = (f"triples={len(triples)} spans={len(tracer.spans)} "
            f"trace overhead {'resolved' if resolved else 'unresolved (below its floor)'} "
            f"(per-layer values are per pass)")
    return metrics, [p for triple in triples for p in triple], note


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        golden: Optional[dict] = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if golden is None:
        golden = load_golden()
    workdir = str(OUT_DIR / f"run-{os.getpid()}")
    reset_dir(workdir)
    try:
        bench = Bench(workload, seed, golden, workdir)
        measure = per_layer if trace else end_to_end
        metrics, passes, note = measure(bench, seconds)
        failures = bench.failures(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.jobs) for p in passes)
    for reason in failures[:5]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(f"perfbench {workload.name} seed={seed} trace={int(trace)} {note} "
          f"failed_frac={len(failures) / attempted:.4g}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except BenchSetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
