#!/usr/bin/env python3
"""End-to-end benchmark of the AS-CDG flow (see README.md next to this file).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library, the
`ascdg` CLI and the traced-pass harness (Release) into .bench_build/.

--trace 0 times the real `ascdg` CLI in a closed loop (one caller; the
next operation starts when the previous one exits) and reports the
end-to-end metrics. --trace 1 runs the same operations through the
library harness, whose timed Duv and exec::Backend wrappers give the
per-layer metrics. Every operation's output is checked: a digest of its
total simulations, per-target harvest hits and best template must match
every other operation on the same seed, traced or not.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it is another, {"nproc", "build_type", "digests":
{workload: {op seed: digest}}}, so runs and commits can be compared.
The exit code is 0 only when every check passed.

The DUV models are synthetic and unvalidated, so no accuracy figure is
reported: only host time, simulation counts and coverage counts.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
CLI = CMAKE_DIR / "ascdg" / "tools" / "ascdg"
HARNESS = CMAKE_DIR / "ascdg_e2e"

WORKERS = 4  # every farm is pinned; never the hardware default
TIMELINE_MS = 50
OP_TIMEOUT_S = 60  # an operation takes a few seconds
RUN_DEADLINE_S = 160  # after the build; a run must end within 180 s


@dataclasses.dataclass(frozen=True)
class Workload:
    command: str  # "run" or "campaign"
    unit: str
    target: tuple  # --family F / --families F1,F2
    backend: str
    budget: tuple  # (flag, value) pairs, every budget flag pinned
    session: bool  # the measured operation keeps a durable session
    obs: bool  # ... and records a trace and a timeline into it
    distinct_seeds: int  # operation seeds per run; the loop cycles them


WORKLOADS = {
    "run_ifu_kernel": Workload(
        command="run", unit="ifu", target=("--family", "ifu"),
        backend=f"thread:{WORKERS}",
        budget=(("before-sims", 5000), ("samples", 200), ("sample-sims", 100),
                ("iterations", 6), ("directions", 19), ("point-sims", 1000),
                ("harvest", 25000), ("eval-cache", "on")),
        session=False, obs=False, distinct_seeds=10),
    "run_io_session": Workload(
        command="run", unit="io_unit", target=("--family", "crc"),
        backend=f"thread:{WORKERS}",
        budget=(("before-sims", 500), ("samples", 200), ("sample-sims", 10),
                ("iterations", 200), ("directions", 40), ("point-sims", 10),
                ("harvest", 1000), ("eval-cache", "on")),
        session=True, obs=True, distinct_seeds=10),
    "campaign_l3_process": Workload(
        command="campaign", unit="l3_cache", target=("--families", "byp_reqs,l3_wrq"),
        backend=f"process:{WORKERS}",
        budget=(("before-sims", 5000), ("samples", 200), ("sample-sims", 100),
                ("iterations", 8), ("directions", 19), ("point-sims", 200),
                ("harvest", 10000), ("eval-cache", "on")),
        session=False, obs=False, distinct_seeds=10),
}

END_TO_END = [  # name, unit
    ("wall_s", "s"),
    ("sims_per_s", "1/s"),
    ("sims_per_covered_target", "sims"),
    ("targets_covered", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("duv.sims", "count"), ("duv.calls", "count"), ("duv.busy_core_s", "core-s"),
    ("duv.sims_per_core_s", "1/core-s"),
    ("stimgen.compiles", "count"), ("stimgen.compile_s", "s"),
    ("exec.run_all_calls", "count"), ("exec.jobs_per_call", "count"),
    ("exec.sims_per_job", "count"), ("exec.run_all_s", "s"),
    ("exec.sims_per_s", "1/s"), ("exec.efficiency", "ratio"),
    ("exec.worker_overhead_core_s", "core-s"),
    ("cdg.eval_cache_hit_ratio", "ratio"), ("cdg.eval_cache_hits", "count"),
    ("cdg.eval_cache_lookups", "count"), ("opt.evaluations", "count"),
    ("flow.run_s", "s"), ("flow.self_s", "s"), ("flow.efficiency", "ratio"),
    ("flow.regression_s", "s"), ("flow.session_s", "s"),
    ("flow.unstaged_sims", "count"), ("flow.resume_sims", "count"),
    ("obs.overhead_s", "s"), ("bench.trace_overhead_s", "s"),
]


class CheckFailed(Exception):
    """An operation failed or its output did not check out."""


# --- build -------------------------------------------------------------------

def build():
    """Configures (once) and builds the CLI and the harness, Release."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"error: no AS-CDG sources at {ROOT}; run from a checkout")
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", str(WORKERS),
                  "--target", "ascdg_cli", "ascdg_e2e"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = build_log.read_text().splitlines()[-30:]
                raise SystemExit("error: build failed:\n" + "\n".join(tail))


def build_type():
    match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(\w*)$",
                      (CMAKE_DIR / "CMakeCache.txt").read_text(), re.M)
    return match.group(1) if match else "unknown"


# --- one process -------------------------------------------------------------

@dataclasses.dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    stdout: str


def run_process(argv, workdir, timeout):
    """Runs argv to completion in its own process group, killing the group
    after `timeout` seconds; wall time and the peak RSS of it and the
    workers it reaped."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir,
                                start_new_session=True)
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or ^C: take the operation down too
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    try:  # a worker the operation failed to reap must not outlive it
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = err_path.read_text().splitlines()[-5:]
        raise CheckFailed(f"{argv[0]} {argv[1]} exited {code}: " + " | ".join(tail))
    return Proc(wall, usage.ru_maxrss / 1024.0, out_path.read_text())


# --- operations --------------------------------------------------------------

@dataclasses.dataclass
class Op:
    seed: int
    wall_s: float
    peak_rss_mb: float
    total_sims: int
    covered: int
    digest: str
    layers: dict = None
    ledger_sims: int = None  # summed stage sims of the session manifests


def op_flags(wl, seed, outputs, session, obs):
    flags = [wl.command, wl.unit, *wl.target, f"--backend={wl.backend}"]
    for name, value in wl.budget:
        flags += [f"--{name}", str(value)]
    flags += ["--seed", str(seed), *outputs]
    if session is not None:
        flags += ["--session", str(session)]
    if obs:
        flags.append(f"--timeline={TIMELINE_MS}")
        if wl.command == "run":
            flags.append("--trace")  # bare: into the session; must come last
    return flags


def digest(total_sims, per_target, best_text):
    doc = {"total_sims": total_sims, "per_target": per_target, "best": best_text}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def count(text):
    return int(text.replace(",", ""))


def parse_cli_run(stdout, csv_path, resumed):
    """Total sims, per-target harvest hits and covered targets of `ascdg run`.
    A resumed run's total is only what the resume simulated."""
    targets = re.search(r"^targets \(\d+\):(.*)$", stdout, re.M).group(1).split()
    total = count(re.search(r"^total simulations: ([\d,]+)$", stdout, re.M).group(1))
    # The caption is the stage ledger; the CLI total must equal its sum.
    cap = re.search(r"^Before CDG \(([\d,]+) sims\); Sampling \(([\d,]+) tests x "
                    r"([\d,]+) sims each\); Optimization \(\d+ iterations, ([\d,]+) "
                    r"sims\); Best test \(([\d,]+) sims\)$", stdout, re.M)
    before, samples, per_sample, opt, harvest = (count(g) for g in cap.groups())
    if not resumed and before + samples * per_sample + opt + harvest != total:
        raise CheckFailed(f"CLI total {total} != sum of its phases")
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    column = max(i for i, h in enumerate(rows[0]) if h.endswith("#hits"))
    harvest_hits = {row[0]: count(row[column]) for row in rows[1:]}
    hits = {name: harvest_hits[name] for name in targets}
    return total, hits, sum(1 for h in hits.values() if h > 0)


def parse_cli_campaign(stdout, before_sims, resumed):
    """Total sims, per-family (hit, targets, flow sims) of `ascdg campaign`."""
    total = count(re.search(r"^total simulations: ([\d,]+)$", stdout, re.M).group(1))
    families = {}
    for m in re.finditer(r"^\| (\S+) +\| +\S+ +\| +([\d,]+) +\| +(\d+)/(\d+) +\|$",
                         stdout, re.M):
        families[m.group(1)] = {"hit": int(m.group(3)), "targets": int(m.group(4)),
                                "flow_sims": count(m.group(2))}
    unstaged = total - sum(f["flow_sims"] for f in families.values())
    if not families or (not resumed and (unstaged < 0 or unstaged % before_sims)):
        raise CheckFailed(f"campaign total {total} is not its flows plus suite runs")
    return total, families, sum(f["hit"] for f in families.values())


def ledger_sims(session):
    """Simulations the session manifests account for (campaign sub-sessions too)."""
    return sum(stage["sims"] for manifest in Path(session).glob("**/manifest.json")
               for stage in json.loads(manifest.read_text())["stages"])


class Runner:
    """Runs CLI and harness operations of one workload in a scratch directory."""

    def __init__(self, wl, workdir, deadline):
        self.wl = wl
        self.workdir = workdir
        self.deadline = deadline
        self.ops = 0
        self.before_sims = dict(wl.budget)["before-sims"]

    def _run(self, argv, opdir):
        remaining = self.deadline - time.perf_counter()
        return run_process(argv, opdir, max(0.1, min(OP_TIMEOUT_S, remaining)))

    def _opdir(self):
        self.ops += 1
        path = self.workdir / f"op{self.ops}"
        path.mkdir()
        return path

    def cli(self, seed, session=False, obs=False, resume_of=None):
        """One `ascdg` operation. resume_of: the op directory of a finished
        sessioned operation to resume (only its total is checked)."""
        opdir = self._opdir()
        best, table = opdir / "best.tmpl", opdir / "phases.csv"
        outputs = ["--save-best", str(best)]
        if self.wl.command == "run":
            outputs += ["--csv", str(table)]
        sess = (resume_of if resume_of is not None else opdir) / "session"
        flags = op_flags(self.wl, seed, outputs, sess if session else None, obs)
        if resume_of is not None:
            flags.insert(flags.index("--session"), "--resume")
        proc = self._run([str(CLI), *flags], opdir)
        resumed = resume_of is not None
        if self.wl.command == "run":
            total, per_target, covered = parse_cli_run(proc.stdout, table, resumed)
        else:
            total, per_target, covered = parse_cli_campaign(
                proc.stdout, self.before_sims, resumed)
        op = Op(seed, proc.wall_s, proc.peak_rss_mb, total, covered,
                digest(total, per_target, best.read_text()))
        if session and not resumed:
            op.ledger_sims = ledger_sims(sess)
        return op, opdir

    def harness(self, seed, session=False, obs=False):
        """One traced operation through the library harness."""
        opdir = self._opdir()
        best = opdir / "best.tmpl"
        flags = op_flags(self.wl, seed, ["--save-best", str(best)],
                         opdir / "session" if session else None, obs)
        proc = self._run([str(HARNESS), *flags], opdir)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if self.wl.command == "run":
            per_target = doc["harvest_hits"]
        else:
            per_target = doc["families"]
        return Op(seed, proc.wall_s, proc.peak_rss_mb, doc["total_sims"], doc["covered"],
                  digest(doc["total_sims"], per_target, best.read_text()),
                  layers=doc["layers"]), opdir

    def setup_times(self):
        opdir = self._opdir()
        proc = self._run([str(HARNESS), "setup", self.wl.unit, "--backend",
                          self.wl.backend], opdir)
        shutil.rmtree(opdir)
        return [ns / 1e9 for ns in
                json.loads(proc.stdout.strip().splitlines()[-1])["setup_ns"]]


class Checker:
    """Counts attempted/failed operations; equal seeds must give equal digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.errors = []

    # What a failed process or an output that does not parse raises.
    ERRORS = (CheckFailed, AttributeError, KeyError, ValueError, OSError)

    def attempt(self, fn, *args, may_be_empty=False, **kwargs):
        """Runs one operation. may_be_empty: a `--resume` of a finished
        session, which may rightly simulate nothing."""
        self.attempted += 1
        try:
            op, opdir = fn(*args, **kwargs)
            if not may_be_empty and (op.covered == 0 or op.total_sims == 0):
                raise CheckFailed("operation simulated or covered nothing")
            return op, opdir
        except self.ERRORS as err:
            self.fail(err)
            return None

    def fail(self, err):
        self.failed += 1
        self.errors.append(f"{type(err).__name__}: {err}")

    def same_output(self, op, label):
        """Compares op with every earlier operation on its seed."""
        first = self.digests.setdefault(op.seed, (op.digest, label))
        if first[0] != op.digest:
            self.fail(CheckFailed(f"seed {op.seed}: {label} digest {op.digest} != "
                                  f"{first[1]} digest {first[0]}"))
            return False
        return True


def op_seeds(seed, wl):
    return [(seed * 1009 + k) % 2**31 for k in range(wl.distinct_seeds)]


# --- passes ------------------------------------------------------------------

def untraced_pass(wl, runner, checker, seeds, seconds):
    """Closed loop over the CLI, cycling the seeds; at least one repeat."""
    setup = []

    def time_setup():
        checker.attempted += 1
        try:
            setup.extend(runner.setup_times())
        except checker.ERRORS as err:
            checker.fail(err)

    time_setup()
    ops = []
    start = time.perf_counter()
    i = 0
    while i <= len(seeds) or time.perf_counter() - start < seconds:
        if time.perf_counter() > runner.deadline:
            break
        result = checker.attempt(runner.cli, seeds[i % len(seeds)],
                                 session=wl.session, obs=wl.obs)
        if result is not None:
            op, opdir = result
            if checker.same_output(op, f"cli op {i}"):
                ops.append(op)
            shutil.rmtree(opdir)
        i += 1
    time_setup()
    if not ops or not setup:
        return {}, ops
    first_of_seed = list({op.seed: op for op in reversed(ops)}.values())
    covered = sum(op.covered for op in first_of_seed)
    metrics = {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "sims_per_s": statistics.median(op.total_sims / op.wall_s for op in ops),
        "sims_per_covered_target": sum(op.total_sims for op in first_of_seed) / covered,
        "targets_covered": covered / len(first_of_seed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
    }
    return metrics, ops


def layer_metrics(cli_base, traced, with_session, without_session,
                  obs_on, obs_off, resumed):
    """Per-layer metrics of one round; see README.md for each definition."""
    lay = traced.layers
    workers = lay["workers"]
    core_rate = lay["duv_sims"] / lay["duv_busy_s"]
    exec_rate = lay["exec_sims"] / lay["exec_run_all_s"]
    if lay["kernel_source"] == "farm":
        sims, busy, per_job = lay["duv_sims"], lay["duv_busy_s"], 1.0
    else:
        # A process farm's kernel runs in its workers, out of sight. Every
        # farm sim is a kernel sim; its busy time is the farm's sims at the
        # replay's kernel rate; calls and compiles are the replay's, scaled
        # from the replayed jobs to all of the farm's jobs.
        sims, busy = lay["exec_sims"], lay["exec_sims"] / core_rate
        per_job = lay["exec_jobs"] / lay["replay_jobs"]
    lookups = lay["eval_cache_hits"] + lay["eval_cache_misses"]
    return {
        "duv.sims": sims,
        "duv.calls": lay["duv_calls"] * per_job,
        "duv.busy_core_s": busy,
        "duv.sims_per_core_s": core_rate,
        "stimgen.compiles": lay["compiles"] * per_job,
        "stimgen.compile_s": lay["compile_s"] * per_job,
        "exec.run_all_calls": lay["exec_calls"],
        "exec.jobs_per_call": lay["exec_jobs"] / lay["exec_calls"],
        "exec.sims_per_job": lay["exec_sims"] / lay["exec_jobs"],
        "exec.run_all_s": lay["exec_run_all_s"],
        "exec.sims_per_s": exec_rate,
        "exec.efficiency": exec_rate / (workers * core_rate),
        "exec.worker_overhead_core_s": workers * lay["exec_run_all_s"] - busy,
        "cdg.eval_cache_hit_ratio": lay["eval_cache_hits"] / lookups if lookups else 0.0,
        "cdg.eval_cache_hits": lay["eval_cache_hits"],
        "cdg.eval_cache_lookups": lookups,
        "opt.evaluations": lay["opt_evaluations"],
        "flow.run_s": lay["flow_run_s"],
        "flow.self_s": lay["flow_run_s"] - lay["flow_exec_s"],
        "flow.efficiency": (cli_base.total_sims / cli_base.wall_s) / exec_rate,
        "flow.regression_s": lay["regression_s"],
        "flow.session_s": (with_session.layers["flow_run_s"]
                           - without_session.layers["flow_run_s"]),
        "flow.unstaged_sims": obs_off.total_sims - obs_off.ledger_sims,
        "flow.resume_sims": resumed.total_sims,
        "obs.overhead_s": obs_on.wall_s - obs_off.wall_s,
        # The kernel replay is part of the traced operation, not of tracing.
        "bench.trace_overhead_s": traced.wall_s - lay["replay_s"] - cli_base.wall_s,
    }


def traced_pass(wl, runner, checker, seeds, seconds):
    """Rounds of: the CLI operation, the same operation traced, and the
    session / telemetry / resume variants the flow and obs metrics need.
    Session and telemetry never change results, so every operation of a
    round must have the same digest."""
    # key, runner method, (session, obs); a variant with the workload's own
    # flags is the CLI or traced base operation and is not run twice.
    variants = (("with_session", runner.harness, (True, False)),
                ("without_session", runner.harness, (False, False)),
                ("obs_on", runner.cli, (True, True)),
                ("obs_off", runner.cli, (True, False)))
    rounds = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        if time.perf_counter() > runner.deadline:
            break
        seed = seeds[r % len(seeds)]
        r += 1
        ops, dirs = {}, {}

        def attempt(key, fn, resumed=False, **kwargs):
            result = checker.attempt(fn, seed, may_be_empty=resumed, **kwargs)
            if result is not None:
                dirs[key] = result[1]
                if resumed or checker.same_output(result[0], key):
                    ops[key] = result[0]

        attempt("cli_base", runner.cli, session=wl.session, obs=wl.obs)
        attempt("traced", runner.harness, session=wl.session, obs=wl.obs)
        for key, fn, (session, obs) in variants:
            if (session, obs) != (wl.session, wl.obs):
                attempt(key, fn, session=session, obs=obs)
            else:
                base = "traced" if fn == runner.harness else "cli_base"
                if base in ops:
                    ops[key], dirs[key] = ops[base], dirs[base]
        if "obs_off" in ops:
            attempt("resumed", runner.cli, resumed=True, session=True,
                    resume_of=dirs["obs_off"])
        if len(ops) == len(variants) + 3:
            rounds.append(layer_metrics(**ops))
        for opdir in set(dirs.values()):
            shutil.rmtree(opdir)
    if not rounds:
        return {}, 0
    return {name: statistics.median(rnd[name] for rnd in rounds)
            for name, _ in PER_LAYER}, len(rounds)


# --- reporting ---------------------------------------------------------------

def report(name, wl, seed, trace, metrics, checker, detail):
    cpus = len(os.sched_getaffinity(0))
    print(f"workload {name}  seed {seed}  pass {'traced' if trace else 'untraced'}"
          f"  nproc {cpus}  build {build_type()}  backend {wl.backend}"
          f"  closed loop, 1 caller")
    print(f"  {detail}")
    units = dict(PER_LAYER if trace else END_TO_END)
    for metric, unit in units.items():
        value = metrics.get(metric)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {metric:<30} {shown:>14} {unit}")
    rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'error_rate':<30} {rate:>14.6g} ratio"
          f" ({checker.failed} failed / {checker.attempted} attempted)")
    for error in checker.errors:
        print(f"  error: {error}")


def run_workload(name, seed, seconds, trace, deadline):
    wl = WORKLOADS[name]
    checker = Checker()
    workdir = BUILD_DIR / "runs" / f"{name}.{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(wl, workdir, deadline)
    seeds = op_seeds(seed, wl)
    try:
        if trace:
            metrics, n = traced_pass(wl, runner, checker, seeds, seconds)
            detail = f"{n} rounds over seeds {seeds}; per-layer values are medians"
            names = PER_LAYER
        else:
            metrics, ops = untraced_pass(wl, runner, checker, seeds, seconds)
            detail = (f"{len(ops)} ok operations over seeds {seeds}; digests "
                      + " ".join(sorted({f"{op.seed}:{op.digest}" for op in ops})))
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(name, wl, seed, trace, metrics, checker, detail)
    if any(metric not in metrics for metric, _ in names):
        checker.failed = max(checker.failed, 1)
    return metrics, names, checker


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_DEADLINE_S * len(names)
    out, attempted, failed, digests = {}, 0, 0, {}
    for name in names:
        metrics, units, checker = run_workload(name, args.seed, args.seconds,
                                               args.trace == 1, deadline)
        attempted += checker.attempted
        failed += checker.failed
        digests[name] = {str(seed): d for seed, (d, _) in checker.digests.items()}
        prefix = "" if len(names) == 1 else name + "."
        for metric, unit in units:
            if metric in metrics:
                out[prefix + metric] = {"value": metrics[metric], "unit": unit}
    print(json.dumps({"nproc": len(os.sched_getaffinity(0)),
                      "build_type": build_type(), "digests": digests}))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
