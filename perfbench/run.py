"""pdwell benchmark: run `pdwell sweep` on seeded workloads and report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

With no arguments every workload runs untraced and then traced. `--trace 0`
measures end-to-end metrics: each repetition is one `pdwell sweep` in a fresh
interpreter, plus fresh-interpreter set-up probes. `--trace 1` measures
per-layer metrics from sweeps traced in one process, at the default BLAS
thread count and again at one thread. Every sweep's output is checked; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every row passed the check, 1
when a row failed or was wrong, and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import check
import selftest
import tracing
from envinfo import THREAD_VARS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

SETUP_PROBES = 5        # fewest fresh interpreters per run for the set-up median
CHILD_TIMEOUT = 150.0   # seconds before a hung child is killed

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# per-layer time metrics that also get a ".blas1" twin from the one-thread run
LAYER_TIMES = (tuple(tracing.TOTALS.values()) + tuple(tracing.SELF.values())
               + ("harness.self_s",))
PER_ROW = tuple(tracing.COUNTS.values()) + ("quantize.matrix_bytes",)


def _layer_units():
    units = {name: "count" for name in tracing.COUNTS.values()}
    units.update({name: "s" for name in LAYER_TIMES})
    units.update({"quantize.matrix_bytes": "bytes", "harness.rows": "count",
                  "cli.import_s": "s"})
    units.update({f"{name}.blas1": "s" for name in LAYER_TIMES})
    units.update({"trace.wall_s": "s", "trace.wall_s.blas1": "s",
                  "trace.overhead_s": "s"})
    units.update({f"{name}_per_row": units[name] for name in PER_ROW})
    units["harness.rows_flagged"] = "share"
    return units


PER_LAYER = _layer_units()


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(blas_threads=None):
    """The caller's environment without thread settings, pdwell from src/."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return env


def run_child(argv, env, log_prefix):
    """Run one child to completion; returns (t_spawn, wall, cpu, rss_mib, code).

    stdout and stderr go to log_prefix + ".out" / ".err". t_spawn is on the
    CLOCK_MONOTONIC time line, which every process of the machine shares.
    """
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return t0, wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def read_text(path):
    with open(path, errors="replace") as fh:
        return fh.read()


def describe(samples, unit):
    """Median and sample count, plus the highest percentile that has at least
    ten samples beyond it when there are that many samples."""
    n = len(samples)
    text = f"{statistics.median(samples):.6g} {unit}  (median of {n}"
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"{text}; p{p:g} {cut[round(p * 10) - 1]:.6g})"
    return text + ")"


class Run:
    """One workload at one seed, with its config and logs in `work`."""

    def __init__(self, workload, seed, seconds, work):
        self.w = workload
        self.seconds = seconds
        self.work = work
        self.h_list = workload.h_list(seed)
        self.out_dir = os.path.join(work, "out")
        self.config = os.path.join(work, "sweep.ini")
        with open(self.config, "w") as fh:
            fh.write(workload.config_text(seed, self.out_dir))
        self.reference = None
        if seed == DEFAULT_SEED:
            path = os.path.join(HERE, "reference", f"{workload.name}.csv")
            self.reference = check.parse_sweep(read_text(path))
        self.children = 0
        self.rows = {"attempted": 0, "failed": 0, "wrong": 0, "flagged": 0}
        self.problems = []

    def _log(self, tag):
        self.children += 1
        return os.path.join(self.work, f"{self.children:03d}-{tag}")

    def _expect_pdwell(self, env_record):
        found = env_record["pdwell"]
        if os.path.realpath(found) != os.path.realpath(os.path.join(SRC, "pdwell")):
            raise BenchError(f"pdwell was imported from {found}, not from {SRC}")

    def _check_output(self, code, stdout_text):
        """Check the sweep CSV just written and tally its rows."""
        n = len(self.h_list)
        self.rows["attempted"] += n
        csv_path = os.path.join(self.out_dir, "sweep.csv")
        if code != 0 or not os.path.exists(csv_path):
            self.rows["failed"] += n
            self.rows["wrong"] += n
            self.problems.append(f"sweep exited with code {code}")
            return
        rows = check.parse_sweep(read_text(csv_path), stdout_text)
        os.remove(csv_path)
        for h, failed, problems in check.check_sweep(rows, self.h_list, self.w.N,
                                                     self.reference):
            self.rows["failed"] += failed
            self.rows["wrong"] += bool(problems)
            self.problems.extend(f"h={h}: {p}" for p in problems)
        self.rows["flagged"] += sum(r.get("precision_flag") == 1.0 for r in rows)

    def sweep(self):
        """One untraced `pdwell sweep`: (wall, cpu, peak rss) of the command."""
        prefix = self._log("sweep")
        _, wall, cpu, rss, code = run_child(
            [sys.executable, "-m", "pdwell.cli", "sweep", self.config],
            child_env(), prefix)
        self._check_output(code, read_text(prefix + ".out"))
        return wall, cpu, rss

    def probe(self, with_env=False):
        """(seconds from spawn until the first row can start, probe wall, output)."""
        prefix = self._log("probe")
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), self.config]
        t0, wall, _, _, code = run_child(argv + ["--env"] * with_env, child_env(), prefix)
        if code != 0:
            raise BenchError(f"set-up probe failed:\n{read_text(prefix + '.err')}")
        result = json.loads(read_text(prefix + ".out").splitlines()[-1])
        if with_env:
            self._expect_pdwell(result["env"])
            if set(result["N"]) != {self.w.N}:
                raise BenchError(f"grid sizes {result['N']} differ from N = {self.w.N}")
        return result["ready"] - t0, wall, result

    def traced(self, blas_threads=None):
        """One traced sweep in a fresh interpreter: (wall, record or None)."""
        prefix = self._log("traced")
        argv = [sys.executable, os.path.join(HERE, "traced_sweep.py"),
                self.config, prefix + ".json"]
        _, wall, _, _, code = run_child(argv, child_env(blas_threads), prefix)
        self._check_output(code, read_text(prefix + ".out"))
        if code != 0:
            return wall, None
        with open(prefix + ".json") as fh:
            record = json.load(fh)
        self._expect_pdwell(record["env"])
        return wall, record

    def end_to_end(self):
        """Untraced sweeps until the time is up, then set-up probes in the rest
        of it; at least SETUP_PROBES probes."""
        deadline = time.monotonic() + self.seconds
        seconds, probe_wall, first = self.probe(with_env=True)
        samples = {"wall_s": [], "setup_s": [seconds], "cpu_s": [], "peak_rss_mb": []}
        while True:
            wall, cpu, rss = self.sweep()
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(cpu)
            samples["peak_rss_mb"].append(rss)
            reserve = (SETUP_PROBES - 1) * probe_wall
            if self.problems or time.monotonic() + max(samples["wall_s"]) + reserve > deadline:
                break
        while (len(samples["setup_s"]) < SETUP_PROBES
               or time.monotonic() + probe_wall <= deadline):
            seconds, wall, _ = self.probe()
            samples["setup_s"].append(seconds)
            probe_wall = max(probe_wall, wall)
        return samples, [f"env {json.dumps(first['env'], sort_keys=True)}"]

    def per_layer(self):
        """Cycles of untraced, traced and one-thread traced sweeps."""
        deadline = time.monotonic() + self.seconds
        cycles = []
        while True:
            start = time.monotonic()
            plain, _, _ = self.sweep()
            wall, record = self.traced()
            wall1, record1 = self.traced(blas_threads=1)
            if record is None or record1 is None:
                return {}, []
            cycles.append((plain, wall, record, wall1, record1))
            now = time.monotonic()
            if self.problems or now + (now - start) > deadline:
                break
        samples = {name: [] for name in PER_LAYER}
        counts = set()
        for plain, wall, record, wall1, record1 in cycles:
            layers, per_row = tracing.layer_metrics(record["spans"])
            layers1, per_row1 = tracing.layer_metrics(record1["spans"])
            counts.update(json.dumps(r, sort_keys=True) for r in (per_row, per_row1))
            layers.update({f"{k}.blas1": layers1[k] for k in LAYER_TIMES})
            layers.update({"cli.import_s": record["import_s"], "trace.wall_s": wall,
                           "trace.wall_s.blas1": wall1, "trace.overhead_s": wall - plain})
            layers.update({f"{k}_per_row": statistics.mean(v) for k, v in per_row.items()})
            for name, value in layers.items():
                samples[name].append(value)
        attempted = max(self.rows["attempted"], 1)
        samples["harness.rows_flagged"] = [self.rows["flagged"] / attempted]
        lines = [f"env {json.dumps(cycles[-1][2]['env'], sort_keys=True)}",
                 f"env.blas1 {json.dumps(cycles[-1][4]['env'], sort_keys=True)}",
                 f"counts per row {json.dumps(per_row)}",
                 f"counts repeat exactly across {2 * len(cycles)} traced sweeps: "
                 f"{len(counts) == 1}"]
        return samples, lines


def run_workload(workload, seed, seconds, trace):
    """Measure one workload in one mode; print its report; return its result."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        run = Run(workload, seed, seconds, work)
        samples, lines = run.per_layer() if trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END

    mode = "traced, per-layer metrics" if trace else "untraced, end-to-end metrics"
    print(f"== {workload.name}  seed {seed}  {mode}")
    print(f"h_list {list(run.h_list)}  N {workload.N}")
    for line in lines:
        print(line)
    for name, values in samples.items():
        if values:
            print(f"{name} = {describe(values, units[name])}")
    rows = run.rows
    for name in ("failed", "wrong", "flagged"):
        share = rows[name] / max(rows["attempted"], 1)
        print(f"rows_{name} = {share:.6g} share ({rows[name]} of {rows['attempted']} rows)")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")

    correct = rows["attempted"] > 0 and rows["wrong"] == 0 and not run.problems
    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in samples.items() if values}
    return {"correct": correct, "attempted": rows["attempted"],
            "failed": rows["failed"], "metrics": metrics}


def check_manifest():
    """BENCHMARK.json must declare exactly the metrics this script reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [{m["name"]: m["unit"] for m in bench[key]}
                for key in ("end_to_end", "per_layer")]
    if declared != [END_TO_END, PER_LAYER]:
        raise BenchError("BENCHMARK.json declares other metrics than run.py reports")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdwell", "__init__.py")):
        print(f"error: no pdwell sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    try:
        check_manifest()
        broken = selftest.failures()
        if broken:
            raise BenchError("the correctness check fails its self-test:\n  "
                             + "\n  ".join(broken))
        for name in names:
            for trace in modes:
                results[(name, trace)] = run_workload(
                    WORKLOADS[name], args.seed, args.seconds, trace)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": value
                             for (name, _), r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
