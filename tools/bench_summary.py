#!/usr/bin/env python3
"""Folds google-benchmark JSON output into BENCH_summary.json.

CI runs several bench binaries and archives each raw JSON; this script
reduces them to the handful of headline numbers a human (or a trend
dashboard) actually tracks per commit:

  * batched simulation throughput (wall-clock sims/sec) at 1 worker and
    at 8 workers, from BM_FarmRunAllBatched — the batch-of-seeds kernel
    path, the repo's primary throughput headline;
  * the batched-vs-scalar-dispatch speedup (BM_FarmRunAllBatched over
    BM_FarmRunAllScalar at 8 workers), taken from the medians of the
    pair's repetitions and reported with each side's coefficient of
    variation (CV) across those repetitions;
  * the fork-based process backend's wall-clock sims/sec at 1 and 8
    workers (BM_ProcessFarmRunAll) — informational, no regression gate:
    the pipe-protocol overhead is the price of crash isolation, and its
    cost profile is workload-shaped rather than code-shaped;
  * wall-clock sims/sec at 1 and 8 workers from the BM_FarmRun scaling
    sweep, plus the farm's full wall-clock worker-scaling curve;
  * the --timeline sampling cost (BM_TimeSeriesSample);
  * per-benchmark medians (real time + items/sec) across every input
    file, so repeated or re-run benches aggregate instead of clobbering.

Stdlib only — CI must not need a pip install. Exits non-zero when a
required headline benchmark is missing from the inputs, so a silently
renamed bench fails the pipeline instead of producing a hollow summary —
and when the median batched farm throughput is below the median
scalar-dispatch baseline, so a regression that undoes the batching win
fails the build.

Usage: bench_summary.py -o BENCH_summary.json BENCH_a.json [BENCH_b.json ...]
"""

import argparse
import json
import re
import statistics
import sys

SCHEMA = "ascdg-bench-summary-v2"

# Headline benches the summary cannot do without. Every farm bench
# carries google-benchmark's /real_time suffix (UseRealTime): wall-clock
# sims/sec is the headline, not the submitting thread's CPU time.
REQUIRED = [
    "BM_FarmRun/1/real_time",
    "BM_FarmRun/8/real_time",
    "BM_FarmRunAllBatched/1/real_time",
    "BM_FarmRunAllBatched/8/real_time",
    "BM_FarmRunAllScalar/8/real_time",
    "BM_TimeSeriesSample",
]

# google-benchmark appends aggregate suffixes when repetitions are on;
# fold them into the base name and let the median handle the rest.
AGGREGATE_RE = re.compile(r"_(mean|median|stddev|cv|min|max)$")


def load_entries(paths):
    """Yields (name, entry) for every non-aggregate benchmark record."""
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        for entry in doc.get("benchmarks", []):
            if entry.get("run_type") == "aggregate":
                continue
            name = AGGREGATE_RE.sub("", entry["name"])
            yield name, entry


def median_of(entries, key):
    values = [e[key] for e in entries if key in e]
    return statistics.median(values) if values else None


def cv_of(entries, key):
    """Sample stdev over mean across repetitions (None below two)."""
    values = [e[key] for e in entries if key in e]
    if len(values) < 2 or statistics.mean(values) == 0:
        return None
    return statistics.stdev(values) / statistics.mean(values)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", help="benchmark JSON files")
    parser.add_argument("-o", "--output", default="BENCH_summary.json")
    args = parser.parse_args(argv)

    by_name = {}
    for name, entry in load_entries(args.inputs):
        by_name.setdefault(name, []).append(entry)
    if not by_name:
        print("bench_summary: no benchmark records in inputs", file=sys.stderr)
        return 1

    missing = [name for name in REQUIRED if name not in by_name]
    if missing:
        print(
            "bench_summary: required benchmarks missing: " + ", ".join(missing),
            file=sys.stderr,
        )
        return 1

    medians = {}
    for name in sorted(by_name):
        entries = by_name[name]
        record = {
            "runs": len(entries),
            "real_time": median_of(entries, "real_time"),
            "time_unit": entries[0].get("time_unit", "ns"),
        }
        items = median_of(entries, "items_per_second")
        if items is not None:
            record["items_per_second"] = items
        medians[name] = record

    farm_scaling = {}
    for name, entries in by_name.items():
        match = re.fullmatch(r"BM_FarmRun/(\d+)/real_time", name)
        if match:
            farm_scaling[match.group(1)] = median_of(entries, "items_per_second")

    def batched(workers):
        return median_of(
            by_name["BM_FarmRunAllBatched/%d/real_time" % workers],
            "items_per_second",
        )

    def scalar(workers):
        return median_of(
            by_name["BM_FarmRunAllScalar/%d/real_time" % workers],
            "items_per_second",
        )

    def gate_entries(prefix):
        return by_name["%s/8/real_time" % prefix]

    # Optional: the process backend rides along when its bench ran (it
    # is not in REQUIRED — older branches predate exec::ProcessFarm).
    def process_farm(workers):
        entries = by_name.get("BM_ProcessFarmRunAll/%d/real_time" % workers)
        return median_of(entries, "items_per_second") if entries else None

    batched_8w = batched(8)
    scalar_8w = scalar(8)
    batched_speedup = (
        batched_8w / scalar_8w if batched_8w and scalar_8w else None
    )

    summary = {
        "schema": SCHEMA,
        "inputs": args.inputs,
        # The headline: wall-clock simulations per second through the
        # batched (simulate_batch) farm path, serially and at the
        # paper's 8-worker configuration.
        "batched_sims_per_sec_1_worker": batched(1),
        "batched_sims_per_sec_8_workers": batched_8w,
        # Scalar-dispatch baseline (one simulate() per instance, no
        # shared compiled tables) and the batched-over-scalar ratio of
        # the medians, which the gate below checks; the CVs say how far
        # each side moved across its repetitions.
        "scalar_sims_per_sec_8_workers": scalar_8w,
        "batched_speedup_8_workers": batched_speedup,
        "gate_repetitions": min(
            len(gate_entries("BM_FarmRunAllBatched")),
            len(gate_entries("BM_FarmRunAllScalar")),
        ),
        "batched_8_workers_cv": cv_of(
            gate_entries("BM_FarmRunAllBatched"), "items_per_second"
        ),
        "scalar_8_workers_cv": cv_of(
            gate_entries("BM_FarmRunAllScalar"), "items_per_second"
        ),
        # Fork-based process backend throughput (None when the bench did
        # not run). Tracked for trend visibility only — never gated.
        "process_sims_per_sec_1_worker": process_farm(1),
        "process_sims_per_sec_8_workers": process_farm(8),
        # Wall-clock sims/sec of the BM_FarmRun sweep (one 256-sim job
        # per call) at 1 and 8 workers, and its worker-scaling curve.
        "farm_wall_sims_per_sec_1_worker": farm_scaling.get("1"),
        "farm_wall_sims_per_sec_8_workers": farm_scaling.get("8"),
        "farm_wall_sims_per_sec_by_workers": farm_scaling,
        "timeline_sample_ns": median_of(
            by_name["BM_TimeSeriesSample"], "real_time"
        ),
        "medians": medians,
    }

    if batched_speedup is not None and batched_speedup < 1.0:
        print(
            "bench_summary: median batched farm throughput regressed below "
            "the scalar baseline (%.0f vs %.0f sims/s at 8 workers, "
            "speedup %.2fx)"
            % (batched_8w, scalar_8w, batched_speedup),
            file=sys.stderr,
        )
        return 1

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=False)
        handle.write("\n")
    process_8w = summary["process_sims_per_sec_8_workers"]
    print(
        "bench_summary: %d benchmarks -> %s "
        "(batched 1w %.0f sims/s, 8w %.0f sims/s, %.2fx over scalar%s)"
        % (
            len(medians),
            args.output,
            summary["batched_sims_per_sec_1_worker"] or 0.0,
            summary["batched_sims_per_sec_8_workers"] or 0.0,
            batched_speedup or 0.0,
            ", process 8w %.0f sims/s" % process_8w if process_8w else "",
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
