"""covlat benchmark: one closed-loop client driving covlat on generated inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cover-dense --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``.  A run generates its inputs from
the seed under ``perfbench/_run/<workload>/``, then repeats rounds (one pass
over the workload's job list) until ``--seconds`` have passed, checking every
job's exit code and report against its expected value.

Times are reported in seconds at a reference interpreter speed: each job's
wall time is rescaled by how long a fixed loop takes just before and after
it (``Scaled``), which cancels the drift in speed of a shared machine.  The
report line keeps the unscaled wall-clock medians too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with the tracer of ``tracer.py`` installed, and
reports the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full report with provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")

SETUP_REPS = 5
JOB_TIMEOUT_S = 10.0
IMPORT_REPS = 7
TAIL_BEYOND = 10
# The speed of the machine a run lands on drifts by half within seconds (other
# tenants share the cores), so every time is rescaled to the speed at which
# ``reference_loop`` takes REFERENCE_S, measured just before and after each job.
REFERENCE_S = 0.0013

perf = time.perf_counter


def reference_loop():
    """Fixed interpreter work with covlat's mix: bit operations and dicts."""
    table = {}
    acc = 0
    for i in range(5000):
        m = i & 1023
        table[m] = table.get(m, 0) + (m >> 3 & 5)
        acc ^= m | (acc << 1) & 0xFFFF
    return acc


def speed() -> float:
    """Seconds per reference loop now; the median of three."""
    times = []
    for _ in range(3):
        start = perf()
        reference_loop()
        times.append(perf() - start)
    return statistics.median(times)


class Scaled:
    """Converts wall seconds measured between two ``mark`` calls to seconds
    at reference speed."""

    def __init__(self):
        self.last = speed()

    def mark(self, wall_s: float) -> float:
        now = speed()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return wall_s * factor


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def child_env() -> dict:
    """Children import covlat from this checkout's src, with default caps."""
    env = dict(os.environ)
    env.pop("COVLAT_MAX_BASE", None)
    env["PYTHONPATH"] = SRC
    return env


def import_covlat():
    if not os.path.isfile(os.path.join(SRC, "covlat", "cli.py")):
        sys.exit(f"error: no covlat sources under {SRC}")
    os.environ.pop("COVLAT_MAX_BASE", None)
    sys.path.insert(0, SRC)
    import covlat.cli

    if not os.path.abspath(covlat.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported covlat from {covlat.cli.__file__}, not from {SRC}")
    return covlat.cli


def timed_child(cmd, cwd) -> float:
    start = perf()
    subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True, check=True,
                   timeout=JOB_TIMEOUT_S)
    return perf() - start


# -- running jobs -----------------------------------------------------------------


class Runner:
    """Runs one job and returns (exit code, stdout or library result)."""

    def __init__(self, cli, workdir, tracer=None):
        signal.signal(signal.SIGALRM, _alarm)
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.launches = 0
        self.child_traces: list[str] = []  # aggregate files not yet collected

    def __call__(self, job):
        if job.kind == "child":
            return self._child(job)
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            if self.tracer is not None:
                return self.tracer.call("job:" + job.name, self._inprocess, job)
            return self._inprocess(job)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _inprocess(self, job):
        if job.kind == "lib":
            return 0, job.call()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue()

    def _child(self, job):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "covlat.cli", *job.argv]
        else:
            self.launches += 1
            stem = os.path.join(self.workdir, "trace", f"child-{self.launches}")
            self.child_traces.append(stem + ".agg.json")
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), stem, *job.argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=child_env(), capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
        return proc.returncode, proc.stdout


def run_round(jobs, runner, log, scale=None):
    """One pass over the job list: (summed scaled job time, summed wall time)."""
    total = wall = 0.0
    for job in jobs:
        start = perf()
        try:
            code, out = runner(job)
            error = None
        except JobTimeout:
            error = f"timed out after {JOB_TIMEOUT_S} s"
        except subprocess.TimeoutExpired:
            error = f"child timed out after {JOB_TIMEOUT_S} s"
        except Exception as exc:  # a raising job is a failed job, and the loop goes on
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf() - start
        wall += elapsed
        total += elapsed if scale is None else scale.mark(elapsed)
        if error is None:
            error = job.expect(code, out)
        log["attempted"] += 1
        log["job_s"].setdefault(job.name, []).append(elapsed)
        if error is not None:
            log["failed"] += 1
            if len(log["errors"]) < 20:
                log["errors"].append(f"{job.name}: {error}")
    return total, wall


def run_phase(jobs, runner, seconds, log, after_round=None):
    """Rounds until ``seconds`` have passed: (scaled round times, wall round
    times); ``after_round(scale factor)`` runs after each round."""
    scaled, wall = [], []
    start = perf()
    while True:
        gc.collect()
        scale = Scaled()
        round_scaled, round_wall = run_round(jobs, runner, log, scale)
        scaled.append(round_scaled)
        wall.append(round_wall)
        if after_round is not None:
            after_round(scaled[-1] / wall[-1])
        if perf() - start >= seconds:
            return scaled, wall


# -- statistics ---------------------------------------------------------------------


def tail(values):
    """The highest whole percentile (nearest rank) with at least TAIL_BEYOND
    rounds above it, and never below the median: (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50, ordered[math.ceil(n / 2) - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def provenance(seed):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- the run --------------------------------------------------------------------------


def setup(name, seed, workdir):
    """Generate and write the inputs, then import covlat.cli in a fresh child;
    repeated SETUP_REPS times, returning the last workload and all timings."""
    import workloads

    times = []
    scale = Scaled()
    for _ in range(SETUP_REPS):
        start = perf()
        workload = workloads.build(name, seed, workdir)
        subprocess.run([sys.executable, "-c", "import covlat.cli"], cwd=workdir,
                       env=child_env(), check=True, timeout=JOB_TIMEOUT_S)
        times.append(scale.mark(perf() - start))
    return workload, times


def measure_import(workdir):
    """Scaled medians of a bare interpreter start and of the extra time
    taken by ``import covlat.cli``."""
    bare, full = [], []
    scale = Scaled()
    for _ in range(IMPORT_REPS):
        bare.append(scale.mark(timed_child([sys.executable, "-c", "pass"], workdir)))
        full.append(scale.mark(timed_child([sys.executable, "-c", "import covlat.cli"], workdir)))
    startup = statistics.median(bare)
    return startup, statistics.median(full) - startup


def collect_children(runner) -> list[dict]:
    """Aggregates written by the traced children started since the last call."""
    snaps = []
    for path in runner.child_traces:
        if os.path.exists(path):  # absent if the child died; its job already failed
            with open(path, encoding="utf-8") as fh:
                snaps.append(json.load(fh))
    runner.child_traces.clear()
    return snaps


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = import_covlat()
    workdir = os.path.join(RUN_DIR, args.workload)
    workload, setup_times = setup(args.workload, args.seed, workdir)
    os.chdir(workdir)
    children = any(job.kind == "child" for job in workload.jobs)
    log = {"attempted": 0, "failed": 0, "errors": [], "job_s": {}}
    runner = Runner(cli, workdir)
    run_round(workload.jobs, runner, log)  # warm-up: page cache, lazy imports

    report = {
        "workload": args.workload,
        "rationale": workloads.WORKLOADS[args.workload],
        "jobs": [j.name for j in workload.jobs],
        "client": "closed loop, one client",
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "setup_s_reps": setup_times,
    }
    if args.trace == 0:
        rounds, wall = run_phase(workload.jobs, runner, args.seconds, log)
        pct, tail_value = tail(rounds)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "round_s.p50": (statistics.median(rounds), "s"),
            "round_s.tail": (tail_value, "s"),
            "jobs_per_s": (len(rounds) * len(workload.jobs) / sum(rounds), "1/s"),
            "peak_rss_mb": (peak_rss_mb(children), "MB"),
        }
        report["round_s.tail"] = {"percentile": pct, "rounds": len(rounds)}
        report["wall_round_s.p50"] = statistics.median(wall)
    else:
        import tracer as tr

        untraced, _ = run_phase(workload.jobs, runner, args.seconds / 2, log)
        tracer = tr.Tracer()
        tracer.install()
        traced_runner = Runner(cli, workdir, tracer)
        shutil.rmtree(os.path.join(workdir, "trace"), ignore_errors=True)
        os.makedirs(os.path.join(workdir, "trace"))
        per_round = []

        def snapshot(factor):
            snap = tr.merge([tracer.snapshot_and_reset(), *collect_children(traced_runner)])
            for stat in snap.values():
                stat["self_s"] *= factor
            per_round.append(snap)

        traced, _ = run_phase(workload.jobs, traced_runner, args.seconds / 2, log, snapshot)
        tracer.uninstall()
        startup, import_s = measure_import(workdir)
        values = tr.layer_metrics(per_round)
        values["cli.startup_s"] = startup
        values["cli.import_s"] = import_s
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        metrics = {name: (values[name], unit) for name, (unit, *_rest) in tr.METRICS.items()}
        with open(os.path.join(workdir, f"trace-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
        report["untraced_round_s.p50"] = statistics.median(untraced)
        report["traced_round_s.p50"] = statistics.median(traced)
        report["rounds"] = {"untraced": len(untraced), "traced": len(traced)}
        report["untraced_targets"] = tracer.missing
        report["moves"] = {name: spec[3] for name, spec in tr.METRICS.items()}

    report["job_wall_s.p50"] = {k: statistics.median(v) for k, v in log["job_s"].items()}
    report["failed_frac"] = log["failed"] / log["attempted"]
    report["errors"] = log["errors"]
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": log["failed"] == 0,
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
