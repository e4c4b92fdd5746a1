"""gbmfolio benchmark: the CLI timed the way users run it.

    python3 perfbench/run.py --workload report-paper --seed 1 --seconds 30 --trace 0

Run it from the root of a gbmfolio source tree; it imports nothing but the
tree's own `src/`. Each run writes the workload's synthetic universe from
the seed (set-up, timed several times), then drives one `gbmfolio`
invocation at a time through the `gbmfolio.cli:main` entry point, each in
a fresh child process with a fresh `--out-dir` (a closed loop with one
client), for about `--seconds` and at least MIN_SAMPLES invocations. The
first output is checked in full (check.py); every later one must have
byte-identical output files.

With `--trace 1` untraced and traced invocations (spans.py) alternate,
and the run reports per-layer metrics instead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it list every
metric with its unit and the run context. The full record, with every
sample, goes to `.perfbench/BENCH_<workload>_seed<seed>_trace<trace>.json`.
"""

import argparse
import datetime as dt
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import check
import spans

# The program is single-threaded Python; pin BLAS in every child so that
# runs on machines with different core counts stay comparable.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 3
SETUP_REPEATS = 3
TRACED_RUNS = 2
# hard stop for one run, whatever --seconds says
DEADLINE_S = 165.0
WORK_DIR = ".perfbench"
CLI = "import sys; from gbmfolio.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    """A synthetic universe plus one CLI command run over it."""

    command: str  # "report" or "simulate-all"
    trials: int
    paths: int
    start: dt.date = dt.date(2016, 1, 4)
    end: dt.date = dt.date(2019, 12, 30)
    n_assets: int = 78
    group_count: int = 6
    group_size: int = 13

    def cli_args(self, data_dir, out_dir, seed):
        args = [
            "--data-dir", str(data_dir), "--out-dir", str(out_dir), "--seed", str(seed),
            "--trials", str(self.trials), "--paths", str(self.paths),
            "--group-count", str(self.group_count), "--group-size", str(self.group_size),
        ]
        if self.command == "report":
            return args + ["report"]
        return args + ["simulate", "--subject", "all"]


# Why each workload exists, and which layer it isolates, is in README.md.
WORKLOADS = {
    "report-paper": Workload("report", trials=10_000, paths=100),
    "forecast-all": Workload("simulate-all", trials=1, paths=1000),
    "history-long": Workload("report", trials=200, paths=100, start=dt.date(2008, 1, 2)),
}

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}


class SourceTree:
    """The source tree under test and the environment its children get."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        src = self.root / "src"
        if not (src / "gbmfolio" / "cli.py").is_file():
            raise FileNotFoundError(f"no gbmfolio source tree under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import gbmfolio.synthetic

        package = Path(gbmfolio.synthetic.__file__).resolve().parent
        if package != src / "gbmfolio":
            raise ImportError(f"gbmfolio was imported from {package}, not from {src}")
        self.make_universe = gbmfolio.synthetic.make_universe
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})


def run_child(argv, env, log, timeout):
    """Run one child to exit: (wall seconds, peak RSS in MB, exit code).

    The child is reaped with wait4, which gives its own ru_maxrss. It is
    killed after `timeout` seconds, or when this process is interrupted.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def describe_input(data_dir):
    files = sorted(Path(data_dir).glob("*.csv"))
    rows = sorted({sum(1 for _ in open(f, encoding="utf-8")) - 1 for f in files})
    return {
        "files": len(files),
        "rows_per_file": rows[0] if len(rows) == 1 else rows,
        "bytes_on_disk": sum(f.stat().st_size for f in files),
    }


class Run:
    """One benchmark run of one workload in its own scratch directory."""

    def __init__(self, tree, workload, seed, work, deadline):
        self.tree = tree
        self.workload = workload
        self.seed = seed
        self.work = Path(work)
        self.deadline = deadline
        self.count = 0
        self.data_dir = None
        self.reference = None  # output digests of the fully checked invocation
        self.reference_ok = False
        self.problems = []

    def remaining(self):
        return max(self.deadline - time.perf_counter(), 1.0)

    def prepare(self):
        """Write the universe and cold-import the CLI, SETUP_REPEATS times."""
        w = self.workload
        samples = []
        for k in range(SETUP_REPEATS):
            data_dir = self.work / f"data-{k}"
            start = time.perf_counter()
            self.tree.make_universe(
                data_dir, n_assets=w.n_assets, start=w.start, end=w.end, seed=self.seed
            )
            written = time.perf_counter() - start
            imported, _, code = run_child(
                [sys.executable, "-c", "import gbmfolio.cli"],
                self.tree.env,
                self.work / f"import-{k}.log",
                self.remaining(),
            )
            if code != 0:
                raise RuntimeError(f"import gbmfolio.cli exited {code}")
            samples.append(written + imported)
            if self.data_dir is not None:
                shutil.rmtree(data_dir)
            else:
                self.data_dir = data_dir
        return samples

    def invoke(self, traced):
        """One invocation; returns (wall_s, rss_mb, ok, out_dir, spans_file)."""
        self.count += 1
        name = f"{'traced' if traced else 'run'}-{self.count}"
        out = self.work / f"out-{name}"
        args = self.workload.cli_args(self.data_dir, out, self.seed)
        spans_file = self.work / f"spans-{name}.json"
        if traced:
            tracer = Path(spans.__file__).resolve()
            argv = [sys.executable, str(tracer), str(spans_file), "--", *args]
        else:
            argv = [sys.executable, "-c", CLI, *args]
        log = self.work / f"{name}.log"
        wall, rss, code = run_child(argv, self.tree.env, log, self.remaining())
        if code != 0:
            tail = log.read_text(errors="replace")[-500:]
            self.problems.append(f"{name}: exit code {code}: {tail}")
            return wall, rss, False, out, spans_file
        return wall, rss, self.verify(out, name), out, spans_file

    def verify(self, out, name):
        """Full check of the first output. The others must be byte-identical
        to it and agree with their own manifest, whose other fields may
        carry details of the run."""
        digests = check.output_hashes(out)
        if self.reference is None:
            problems = check.check_outputs(out, self.data_dir, self.workload)
            self.problems.extend(f"{name}: {p}" for p in problems)
            self.reference = digests
            self.reference_ok = not problems
            return self.reference_ok
        if digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            self.problems.append(f"{name}: outputs differ from the first run: {changed[:5]}")
            return False
        try:
            problems = check.manifest_problems(check.manifest_hashes(out), digests)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"{check.MANIFEST}: unreadable ({exc})"]
        self.problems.extend(f"{name}: {p}" for p in problems)
        return self.reference_ok and not problems


def another_round(done, minimum, start, seconds, deadline):
    """Closed-loop stop rule: at least `minimum` rounds, then one more only
    while a round of average length still ends within `seconds`."""
    now = time.perf_counter()
    if now > deadline:
        return False
    return done < minimum or (now - start) * (done + 1) / done <= seconds


def end_to_end(run, seconds):
    setup_samples = run.prepare()
    walls, rss, failed = [], [], 0
    start = time.perf_counter()
    while another_round(len(walls), MIN_SAMPLES, start, seconds, run.deadline):
        wall, peak, ok, out, _ = run.invoke(traced=False)
        walls.append(wall)
        rss.append(peak)
        failed += not ok
        shutil.rmtree(out, ignore_errors=True)
    attempted = len(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_samples),
        "ok_ratio": (attempted - failed) / attempted,
    }
    samples = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup_samples}
    units = END_TO_END_UNITS
    return attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}, samples


def per_layer(run, seconds):
    """Untraced and traced invocations in turn, so that both see the same
    machine state; per-layer metrics come from the traced ones."""
    run.prepare()
    walls = {False: [], True: []}
    layer_runs, outputs, failed = [], [], 0
    start = time.perf_counter()
    while another_round(len(layer_runs), TRACED_RUNS, start, seconds, run.deadline):
        for traced in (False, True):
            wall, _, ok, out, spans_file = run.invoke(traced)
            walls[traced].append(wall)
            failed += not ok
            if traced and ok:
                record = json.loads(spans_file.read_text(encoding="utf-8"))
                layer_runs.append(spans.layer_metrics(record["spans"]))
                files = list(out.iterdir())
                outputs.append((len(files), sum(p.stat().st_size for p in files)))
            shutil.rmtree(out, ignore_errors=True)
        if failed:
            break
    if not layer_runs:
        raise RuntimeError("no traced run completed: " + "; ".join(run.problems))

    metrics = {}
    for name, (value, unit) in layer_runs[0].items():
        values = [m[name][0] for m in layer_runs]
        if unit == "count" and len(set(values)) != 1:
            run.problems.append(f"{name}: count differs across traced runs: {values}")
        metrics[name] = (value if unit == "count" else statistics.median(values), unit)
    if len(set(outputs)) != 1:
        run.problems.append(f"files written differ across traced runs: {outputs}")
    metrics["cli.files_written"] = (outputs[0][0], "count")
    metrics["cli.bytes_written"] = (outputs[0][1], "B")
    # like for like: spawn to exit of traced children against untraced ones
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]}
    return len(walls[False]) + len(walls[True]), failed, metrics, samples


def context(workload_name, workload, seed, seconds, trace, data_dir):
    return {
        "workload": workload_name,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "cli_args": workload.cli_args("DATA", "OUT", seed),
        "universe": {**asdict(workload), "start": workload.start.isoformat(),
                     "end": workload.end.isoformat()},
        "input": describe_input(data_dir),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_benchmark(root, workload_name, seed, seconds, trace, workload=None):
    """One benchmark run; returns the full record (result line plus context)."""
    workload = workload or WORKLOADS[workload_name]
    tree = SourceTree(root)
    started = time.perf_counter()
    work_root = tree.root / WORK_DIR
    work = work_root / f"{workload_name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(tree, workload, seed, work, started + DEADLINE_S)
        measure = per_layer if trace else end_to_end
        attempted, failed, metrics, samples = measure(run, seconds)
        ctx = context(workload_name, workload, seed, seconds, trace, run.data_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "problems": run.problems,
        "context": ctx,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run_benchmark(Path.cwd(), args.workload, args.seed, args.seconds, args.trace)
    except (OSError, ImportError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for problem in record["problems"]:
        print(f"FAIL {problem}")
    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:>18.6f} {m['unit']}")
    print("samples " + json.dumps(record["samples"]))
    print("context " + json.dumps(record["context"], sort_keys=True))
    out = Path.cwd() / WORK_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
