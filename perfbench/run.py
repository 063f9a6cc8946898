"""stoclaw benchmark: time from a config to a verified report.

    python3 perfbench/run.py --workload residual-1d --seed 0 --seconds 40 \\
        --trace 0

Runs on the checkout it lives in.  Each measured repeat starts a fresh
interpreter (``child.py``) that resolves the workload's generated config and
then runs the real ``stoclaw run`` / ``stoclaw study`` verb through the CLI.

``--trace 0`` repeats the verb at the workload's worker count until
``--seconds`` are used (at least three repeats) and prints the end-to-end
metrics as medians: ``setup_s``, ``report_s``, ``paths_per_s``, ``cpu_s``
and ``peak_rss_mb``.

``--trace 1`` makes four runs at the same seed: untraced at one worker,
traced twice at one worker (so every span lands in one process), untraced
at the workload's worker count.  It prints the per-layer metrics from the
traced runs, the tracing overhead and the parallel speed-up, and asserts
that both traced runs count the same and match the workload's closed forms.

Every repeat's report is checked against the recorded reference (see
``gate.py``) and every repeat of one run must write byte-identical reports;
failures are counted per report row, per exit code and per count
assertion.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import tracing
from workloads import (HELD_OUT_SEEDS, WORKLOADS, config_text,
                       worker_count)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".bench_run"
MIN_REPEATS = 3
SETUP_SAMPLES = 5
BUDGET_S = 170.0          # every run ends well inside 180 s
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class Launcher:
    """Starts child interpreters in one scratch directory under a deadline."""

    def __init__(self, workload, work: str, config_path: str,
                 deadline: float):
        self.workload, self.work, self.config_path = workload, work, config_path
        self.deadline = deadline
        self.env = dict(os.environ, **PINNED_ENV)
        self.env.pop("PYTHONPATH", None)
        self._n = 0

    def launch(self, workers: int = 1, trace: bool = False,
               setup_only: bool = False) -> dict:
        self._n += 1
        tag = "r%03d" % self._n
        out = os.path.join(self.work, tag)
        result_path = os.path.join(self.work, tag + ".json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--root", ROOT, "--config", self.config_path,
               "--verb", self.workload.verb, "--workers", str(workers),
               "--out", out, "--result", result_path]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        load_start = os.getloadavg()
        steal_start = _steal_ticks()
        t0 = time.time_ns()
        proc = subprocess.Popen(cmd + ["--t0-ns", str(t0)], env=self.env,
                                cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
        wall = (time.time_ns() - t0) / 1e9
        res = {}
        if proc.returncode == 0 and os.path.isfile(result_path):
            with open(result_path) as fh:
                res = json.load(fh)
        steal_end = _steal_ticks()
        res.update(wall_s=wall, returncode=proc.returncode,
                   stderr=err.decode(errors="replace")[-2000:],
                   load=[load_start[0], os.getloadavg()[0]],
                   steal=(steal_end[0] - steal_start[0])
                   / max(steal_end[1] - steal_start[1], 1))
        if not setup_only:
            artifact = self.workload.artifact
            report = os.path.join(out, artifact)
            res["rows"] = gate.read_rows(report, artifact) \
                if "exit_code" in res else None
            res["digest"] = gate.digest(report)
            res["artifact_bytes"] = _tree_bytes(out)
            shutil.rmtree(out, ignore_errors=True)
        return res

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


@contextlib.contextmanager
def launcher_for(workload, seed: int, budget_s: float):
    """A Launcher whose scratch directory under WORK_DIR holds the
    workload's generated config; the directory is removed afterwards."""
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-" % workload.name,
                            dir=os.path.join(ROOT, WORK_DIR))
    try:
        config_path = os.path.join(work, "workload.cfg")
        with open(config_path, "w") as fh:
            fh.write(config_text(ROOT, workload, seed))
        yield Launcher(workload, work, config_path,
                       time.monotonic() + budget_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _steal_ticks():
    """(steal, total) CPU ticks summed over this machine's CPUs, from
    /proc/stat; steal is time a hypervisor gave those CPUs to another guest."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def _tree_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


class Tally:
    """Operations attempted and failed over one benchmark run."""

    def __init__(self, workload, reference):
        self.workload, self.reference = workload, reference
        self.attempted = self.failed = 0
        self.problems = []
        self.first_digest = None

    def add(self, attempted: int, failed: int, problems=()):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def verb_run(self, label: str, res: dict):
        """Gate one repeat against the reference and the run's first
        repeat (byte identity across repeats, worker counts and tracing)."""
        rows = res.get("rows")
        attempted, failed, problems = gate.check(
            self.reference, rows, res.get("exit_code"))
        problems = ["%s %s" % (label, p) for p in problems]
        if rows is not None:
            if self.first_digest is None:
                self.first_digest = res["digest"]
            elif res["digest"] != self.first_digest:
                failed = attempted
                problems.append("%s: %s differs from the first repeat's bytes"
                                % (label, self.workload.artifact))
        if res.get("returncode"):
            problems.append("%s: child exited %r: %s" % (
                label, res["returncode"], res["stderr"].strip()[-500:]))
        self.add(attempted, failed, problems)

    def assertion(self, ok: bool, problem: str):
        self.add(1, 0 if ok else 1, () if ok else [problem])


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_run(launcher: Launcher, workload, tally: Tally, seconds: float):
    workers = worker_count(workload)
    end = time.monotonic() + seconds
    launcher.launch(setup_only=True)  # warm caches; not counted
    setups = [launcher.launch(setup_only=True) for _ in range(SETUP_SAMPLES)]
    reps = []
    while not launcher.expired():
        res = launcher.launch(workers=workers)
        tally.verb_run("repeat %d" % (len(reps) + 1), res)
        reps.append(res)
        if "report_s" not in res:
            break
        if len(reps) >= MIN_REPEATS and time.monotonic() + res["wall_s"] > end:
            break
    ok = [r for r in reps if "report_s" in r]
    setup_samples = [r["setup_s"] for r in setups + reps if "setup_s" in r]
    metrics = {
        "setup_s": (_median(setup_samples), "s"),
        "report_s": (_median([r["report_s"] for r in ok]), "s"),
        "paths_per_s": (_median([workload.paths / r["report_s"]
                                 for r in ok]), "1/s"),
        "cpu_s": (_median([r["cpu_s"] for r in ok]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ok]), "MB"),
    }
    samples = {"workers": workers,
               "setup_s": [round(x, 4) for x in setup_samples],
               "report_s": [round(r["report_s"], 4) for r in ok]}
    return metrics, samples, setups + reps


def traced_run(launcher: Launcher, workload, tally: Tally):
    workers = worker_count(workload)
    plain_1 = launcher.launch(workers=1)
    tally.verb_run("untraced --workers 1", plain_1)
    traced = []
    for label in ("traced run A", "traced run B"):
        res = launcher.launch(workers=1, trace=True)
        tally.verb_run(label, res)
        traced.append(res)
    plain_n = launcher.launch(workers=workers)
    tally.verb_run("untraced --workers %d" % workers, plain_n)
    runs = [plain_1] + traced + [plain_n]
    if not all("report_s" in r for r in runs) or \
            not all("layers" in r for r in traced):
        return None, runs

    layers = []
    for res in traced:
        vals = dict(res["layers"])
        vals.update({
            "config.resolve_s": res["resolve_s"],
            "harness.artifact_bytes": res["artifact_bytes"],
            "harness.parallel_speedup":
                plain_1["report_s"] / plain_n["report_s"],
            "cli.exit_code": res["exit_code"],
            "trace.overhead": res["report_s"] / plain_1["report_s"],
        })
        layers.append(vals)
    a, b = layers
    for name in tracing.EXACT_COUNTS:
        tally.assertion(a[name] == b[name], "%s differs between traced runs:"
                        " %r vs %r" % (name, a[name], b[name]))
    for name, form in workload.counts.items():
        want = form(workload.paths)
        tally.assertion(a[name] == want, "%s = %r, closed form gives %r"
                        % (name, a[name], want))
    metrics = {name: (a[name] if name in tracing.EXACT_COUNTS
                      else (a[name] + b[name]) / 2.0, unit)
               for name, unit in tracing.LAYER_METRICS}
    return metrics, runs


def machine_record(runs) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = next((r["versions"] for r in runs if "versions" in r),
                    {"python": platform.python_version()})
    return {"versions": versions, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "pinned_env": PINNED_ENV,
            "load_avg_start_end": [r["load"] for r in runs],
            "steal_share": [round(r["steal"], 4) for r in runs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    workload = WORKLOADS[args.workload]
    for need in ("src/stoclaw/cli.py", workload.base_config):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print("error: %s not found under %s: the benchmark needs the "
                  "repository's sources" % (need, ROOT), file=sys.stderr)
            return 2

    references = gate.load_references(workload.name)
    reference = references.get(str(args.seed))
    tally = Tally(workload, reference)
    with launcher_for(workload, args.seed, BUDGET_S) as launcher:
        if args.trace:
            metrics, runs = traced_run(launcher, workload, tally)
            samples = {"traced_runs": 2, "workers_untraced": [
                1, worker_count(workload)]}
        else:
            metrics, samples, runs = timed_run(launcher, workload, tally,
                                               args.seconds)

    print(json.dumps({"machine": machine_record(runs)}))
    ref_note = ("reference recorded for seed %d%s" % (
        args.seed, " (held out)" if args.seed in HELD_OUT_SEEDS else "")
        if reference is not None else
        "no recorded reference for seed %d: only exit-code consistency and "
        "byte identity are gated" % args.seed)
    print("%s seed %d: %s" % (workload.name, args.seed, ref_note))
    for problem in tally.problems:
        print("FAILED %s" % problem)
    if metrics is None:
        metrics = {name: (0.0, unit) for name, unit in tracing.LAYER_METRICS}
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("samples %s; failed_frac %.6g (%d of %d operations)" % (
        json.dumps(samples), tally.failed / max(tally.attempted, 1),
        tally.failed, tally.attempted))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
