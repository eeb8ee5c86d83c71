#!/usr/bin/env python3
"""Run one workload of the delpezzo benchmark and print its metrics.

    python3 perfbench/run.py --workload h0-stream --seed 3 --seconds 15 --trace 0

Run it from the root of a checkout: the program under test is ``src/delpezzo``
next to this directory.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  ``--trace 0`` measures the end-to-end metrics with
no tracing; ``--trace 1`` is the separate traced run that gives the per-layer
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import workloads as wl
from tracer import Tracer

PROBE_REPEATS = 5

END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

CHECK_SLUGS = (
    "gram_diagonal", "canonical_class", "curve_basis_renderings", "chi", "ten_lines",
    "minus_one_counts", "minus_two_inventories", "rulings", "h0_goldens", "effectivity",
    "half_anticanonical_scan", "pullbacks", "sigma_intersections", "singularity_types",
    "group", "transitivity", "cremona_identities", "transport", "double_cover_scenarios",
    "bidouble_scenarios", "ramification_and_numerology", "table_p4", "table_p5", "table_p6",
    "preimage_search", "decompositions",
)
CLI_COMMANDS = ("curves", "h0", "pullback", "orbits", "transport", "cover", "tables", "decompose", "verify")

PER_LAYER = {
    "lattice.DivisorClass.count": ("count", "lower"),
    "lattice.intersect.count": ("count", "lower"),
    "lattice.parse_class_label.self_s": ("s", "lower"),
    "lattice.to_curve_basis.self_s": ("s", "lower"),
    "curves.negative_curve_classes.count": ("count", "lower"),
    "cohomology.h0.count": ("count", "lower"),
    "cohomology.h0.self_s": ("s", "lower"),
    "cohomology.reduction_steps": ("count", "lower"),
    "cohomology.reduction_steps_max": ("count", "lower"),
    "cohomology.h0.failed": ("count", "lower"),
    "cohomology.find_half_anticanonical_pencils.self_s": ("s", "lower"),
    "cohomology.scan.yield": ("ratio", "higher"),
    "contraction.mumford_pullback.count": ("count", "lower"),
    "contraction.mumford_pullback.self_s": ("s", "lower"),
    "contraction.sigma_intersect.self_s": ("s", "lower"),
    "symmetry.generate_group.self_s": ("s", "lower"),
    "symmetry.LatticeAutomorphism.count": ("count", "lower"),
    "symmetry.generate_group.yield": ("ratio", "higher"),
    "symmetry.line_transitivity_report.self_s": ("s", "lower"),
    "covers.load_scenario.self_s": ("s", "lower"),
    "covers.double_cover_invariants.count": ("count", "lower"),
    "casework.enumerate_table.count": ("count", "lower"),
    "casework.enumerate_table.self_s": ("s", "lower"),
    "casework.table.yield": ("ratio", "higher"),
    "casework.preimage_configuration_search.self_s": ("s", "lower"),
    "casework.diff_tables.self_s": ("s", "lower"),
    "casework.decompose_class.self_s": ("s", "lower"),
    **{f"verify.check.{slug}.s": ("s", "lower") for slug in CHECK_SLUGS},
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.run.{command}.self_s": ("s", "lower") for command in CLI_COMMANDS},
    "cli.exit.0.count": ("count", "higher"),
    "cli.exit.1.count": ("count", "lower"),
    "cli.exit.2.count": ("count", "higher"),
    "cli.exit.3.count": ("count", "higher"),
    "trace.overhead_share": ("share", "lower"),
}


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(res: wl.RunResult) -> dict[str, float]:
    """The gated metrics.  Set-up and op times are scaled to the reference
    machine speed by the speed index measured around each (workloads.Sampler)."""
    times = res.sampler.op_times(res, scaled=True)
    return {
        "setup_s": statistics.median(res.sampler.setup_s(scaled=True)),
        "ops_per_s": res.completed / sum(times),
        "op_ms_p50": quantile(times, 50) * 1000,
        "peak_rss_mib": res.peak_rss_mib,
    }


def report_metrics(w: wl.Workload, res: wl.RunResult) -> list[tuple[str, float, str]]:
    """The raw measurements under the names of the metric table in README.md,
    with the tail percentiles that BENCHMARK.json does not gate."""
    ms = [t * 1000 for t in res.sampler.op_times(res, scaled=False)]
    rows = [("setup_s", statistics.median(res.sampler.setup_s(scaled=False)), "s")]
    if w.name == "golden-suite":
        rows.append(("verify_s", quantile(ms, 50) / 1000, "s"))
    elif w.name == "cli-queries":
        rows += [("cli_ms_p50", quantile(ms, 50), "ms"), ("cli_ms_p90", quantile(ms, 90), "ms")]
    else:
        rows += [("ops_per_s", res.completed / sum(ms) * 1000, "1/s"),
                 ("op_us_p50", quantile(ms, 50) * 1000, "us"), ("op_us_p99", quantile(ms, 99) * 1000, "us")]
    rows += [("failed_share", res.failed / res.attempted, "share"), ("peak_rss_mib", res.peak_rss_mib, "MiB"),
             ("speed_index", res.sampler.speed, "ratio")]
    return rows


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------

def traced(workload: str, seed: int, seconds: float) -> tuple[wl.RunResult, dict[str, float]]:
    """Alternate untraced and traced passes over the same inputs, every op in
    this interpreter, until the time is up (at least one of each).  Counts
    come from the first traced pass and repeat exactly at a seed; times are
    medians over traced passes; the overhead compares the median op time of
    the passes.  Output checks run on both passes, untimed and untraced."""
    w = wl.make(workload, seed, in_process=True)
    res = wl.RunResult()
    tracer = Tracer()
    op_times = {False: [], True: []}
    snapshots = []
    start = time.perf_counter()
    index = 0
    while not snapshots or time.perf_counter() - start < seconds:
        for tracing in (False, True):
            before = len(res.starts)
            wl.check_pass(w, wl.run_pass(w, index, res, tracer if tracing else None), res)
            op_times[tracing].append(sum(res.ends[before:]) - sum(res.starts[before:]))
        snapshots.append(tracer.snapshot())
        tracer.reset()
        index += 1
    w.finish(res)

    interpreter = statistics.median(timed_child(["-c", "pass"]) for _ in range(PROBE_REPEATS))
    imported = statistics.median(timed_child(["-c", "import delpezzo.cli"]) for _ in range(PROBE_REPEATS))
    first = snapshots[0]
    layer = {}
    for name in PER_LAYER:
        if is_time(name):
            layer[name] = statistics.median(s.get(name, 0.0) for s in snapshots)
        else:
            layer[name] = first.get(name, 0)
    layer["cli.interpreter_s"] = interpreter
    layer["cli.import_s"] = imported - interpreter
    plain, with_trace = statistics.median(op_times[False]), statistics.median(op_times[True])
    layer["trace.overhead_share"] = with_trace / plain - 1
    res.notes.append(f"{len(snapshots)} pairs of untraced and traced passes; median op time per pass "
                     f"{plain:.4f} s untraced, {with_trace:.4f} s traced")
    return res, layer


def timed_child(argv: list[str]) -> float:
    """Wall time of one fresh interpreter, start to exit."""
    t0 = time.perf_counter()
    wl.run_child(argv)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(wl.ROOT)
    wl.load_package()
    print(f"delpezzo benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} python={sys.version.split()[0]}")
    if args.trace:
        res, layer = traced(args.workload, args.seed, args.seconds)
        metrics = {name: {"value": layer[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:<52} {layer[name]:>14.6g} {unit}")
    else:
        w = wl.make(args.workload, args.seed)
        res = wl.measure(w, args.seconds)
        e2e = end_to_end(res)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
        print("  raw measurements:")
        for name, value, unit in report_metrics(w, res):
            print(f"    {name:<14} {value:>14.6g} {unit}")
        print("  gated metrics (BENCHMARK.json):")
        for name, (unit, _) in END_TO_END.items():
            print(f"    {name:<14} {e2e[name]:>14.6g} {unit}")
        print(f"  ({len(res.starts)} ops timed, {sum(res.sampler.op_times(res, scaled=False)):.2f} s "
              f"of op time; {len(res.sampler.slices)} speed slices; {len(res.sampler.setup)} set-up probes)")
    for note in res.notes:
        print(f"  {note}")
    print(f"  attempted {res.attempted}, failed {res.failed}, wrong answers {res.wrong}, "
          f"stored answers {'ok' if res.digest_ok else 'MISMATCH'}")
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
