"""dpckpt benchmark: seeded task workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload uq_theory --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
src/ and the workload configs are read from configs/. Each benchmark
process runs one workload through dpckpt.harness.run_experiment with
workers = 1, repeating it for --seconds, and checks every run's outputs.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s      median time from the start of a fresh interpreter to a
               parsed config (imports of numpy and dpckpt, config load)
  wall_s       median wall time of one workload run: run_experiment,
               and for agg_persist also reloading and re-scoring the
               saved runs
  items_per_s  config-declared work items / wall_s
  peak_rss_mb  peak resident memory of this process

Both times are scaled to a fixed machine speed. The benchmark's own
reference loop (small-array steps with a Philox generator each, and
bulk draws over large arrays, the shapes of the program's work; no
dpckpt code) is timed between every two runs and setup launches, and
each measured time t becomes
t * REF_SECONDS / (mean of the reference times on either side of it);
the scaled median is reported.
On a shared host the speed a process gets drifts by tens of percent
within seconds, and the raw medians of two sets of runs differ by that
much; the reference moves with the drift and the program does not move
it, so a change to the program still moves the scaled times as much as
the raw ones. The raw medians and the machine speed are printed too.

--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of bench/layers.py; the trace is written to .bench_work/ once,
at the end.

A run fails if it raises, leaves a status.json other than complete,
fails an output check, or writes a table.csv that differs from the
first run's (all noise is counter-addressed, so traced, untraced and
repeated runs must agree byte for byte). The last stdout line is one
JSON object: correct, attempted, failed (error_rate = failed /
attempted) and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 9

# Runs in a fresh interpreter; prints the monotonic clock (system-wide on
# Linux) once the config is parsed, so the parent can time the interval.
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
import dpckpt
from dpckpt.harness import ConfigView, load_config
ConfigView(load_config(sys.argv[2]))
print(repr(time.monotonic()))
"""


# Seconds the reference loop takes at the nominal machine speed; near its
# time on the 2-vCPU Xeon host the bounds in BENCHMARK.json were set on.
REF_SECONDS = 0.14


class Reference:
    """A fixed loop, shaped like the program's two kinds of work, to time.

    One part is per-step work on small arrays, dominated by interpreter
    and call overhead (the trainers and the Langevin trial loop); the
    other is bulk draws over large arrays (the dpld oracle, data
    synthesis). A shared host slows the two kinds by different amounts,
    so the reference holds both. It uses numpy only, never dpckpt, so no
    change to the program moves it. The bulk part works in buffers
    allocated once, so that it neither adds to peak_rss_mb beyond their
    1 MiB nor changes how the allocator serves the program.
    """

    def __init__(self, pieces: int = 8):
        import numpy as np

        self.pieces = pieces
        gen = np.random.Generator(np.random.Philox(key=12345))
        self.x = gen.standard_normal((1000, 10))
        self.y = (self.x[:, 0] > 0).astype(np.float64)
        self.draws = np.empty((20_000, 4))
        self.v = np.empty(20_000)
        self.c = np.empty(20_000)
        self.seconds()  # first numpy calls pay one-off costs

    def seconds(self) -> float:
        """Time of one pass; each part runs in pieces and its median counts.

        A burst from a neighbour on the host slows one short piece a lot,
        and would otherwise swing the scale of a whole run.
        """
        import numpy as np

        x, y, w = self.x, self.y, np.zeros(10)
        small, bulk = [], []
        for _ in range(self.pieces):
            start = time.perf_counter()
            for step in range(250):
                p = 1.0 / (1.0 + np.exp(-(x @ w)))
                w = w - 0.1 * (x.T @ (p - y)) / 1000.0
                w = w + 1e-3 * np.random.Generator(np.random.Philox(key=step)).standard_normal(10)
            small.append(time.perf_counter() - start)
        for piece in range(self.pieces):
            start = time.perf_counter()
            gen = np.random.Generator(np.random.Philox(key=piece))
            for _ in range(5):
                gen.standard_normal(out=self.draws)
                np.clip(self.draws[:, 0], -2.0, 2.0, out=self.v)
                np.subtract(self.v, self.v.mean(), out=self.c)
                np.dot(self.c, self.c)
                np.square(self.c, out=self.c)
                np.dot(self.c, self.c)
            bulk.append(time.perf_counter() - start)
        return self.pieces * (statistics.median(small) + statistics.median(bulk))


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """A measured time at the nominal speed the reference loop defines."""
    return seconds * REF_SECONDS / ((ref_before + ref_after) / 2.0)


def measure_setup(config_path: str, reference: Reference) -> tuple[list[float], list[float]]:
    """Raw and scaled setup times of SETUP_REPEATS fresh interpreters."""
    raw, times = [], []
    before = reference.seconds()
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, SRC, config_path],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        raw.append(float(done.stdout.strip().splitlines()[-1]) - start)
        after = reference.seconds()
        times.append(scaled(raw[-1], before, after))
        before = after
    return raw, times


def environment(seed: int, workload, items: int) -> dict:
    import numpy as np

    env = {
        "git_rev": "none (not a git checkout)",
        "git_dirty": None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workload": workload.name,
        "config": workload.config,
        "seed": seed,
        "sizes": workload.overrides,
        "items": items,
    }
    # only ask git inside a checkout of its own, never a repository above it
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            env["git_rev"], env["git_dirty"] = rev, bool(dirty)
        except (OSError, subprocess.SubprocessError):
            env["git_rev"] = "unknown (git failed)"
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _blas_threads(np):
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def tail_percentile(values: list[float]):
    """(percent, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Runner:
    """Runs one workload repeatedly and keeps what each run produced."""

    def __init__(self, workload, values: dict, seed: int):
        from dpckpt.harness import ConfigView

        self.workload = workload
        self.values = values
        self.seed = seed
        self.reader = ConfigView(values)
        self.prepared = workload.prepare(self.reader) if workload.prepare else None
        self.walls = {False: [], True: []}  # raw wall times of passing runs
        self.scaled = {False: [], True: []}  # the same, scaled by scaled()
        self.reference = Reference()
        self.refs = [self.reference.seconds()]
        self.shas = {False: [], True: []}
        self.failures: list[str] = []
        self.attempted = 0
        self.bytes_written = 0
        self.t_quantile = [0, 0]  # hits, misses summed over traced runs
        self.gates = None

    def run(self, tracer=None) -> None:
        from dpckpt import harness, trainer, uncertainty

        import layers

        traced = tracer is not None
        self.attempted += 1
        out = tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=WORK)
        # in-process caches start cold, as they do for a CLI call
        uncertainty.t_quantile.cache_clear()
        getattr(trainer, "_MINIMIZER_CACHE", {}).clear()
        view = harness.ConfigView(dict(self.values))
        try:
            if traced:
                tracer.trace_id = f"{self.workload.name}-seed{self.seed}-run{self.attempted}"
                patch = layers.install(tracer)
                root = tracer.begin("bench.workload")
            try:
                start = time.perf_counter()
                # looked up at call time, so a traced run calls the wrapper
                harness.run_experiment(view, out, master_seed=self.seed, workers=1)
                after = self.workload.after(out, self.prepared) if self.workload.after else None
                wall = time.perf_counter() - start
            finally:
                if traced:
                    tracer.end(root)
                    patch.restore()
            self.refs.append(self.reference.seconds())
            problems = self._check(out, after)
        except Exception:  # a failed run is counted, and the benchmark goes on
            problems = ["raised:\n" + traceback.format_exc()]
        if traced:
            info = uncertainty.t_quantile.cache_info()
            self.t_quantile[0] += info.hits
            self.t_quantile[1] += info.misses
        if problems:
            self.failures.append(f"run {self.attempted} ({'traced' if traced else 'untraced'}): "
                                 + "; ".join(problems))
        else:
            self.walls[traced].append(wall)
            self.scaled[traced].append(scaled(wall, *self.refs[-2:]))
            self.shas[traced].append(sha256_file(os.path.join(out, "table.csv")))
            self.bytes_written = dir_bytes(out)
            if self.gates is None and self.workload.gates is not None:
                self.gates = self.workload.gates(out, self.reader)
        shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: str, after) -> list[str]:
        with open(os.path.join(out, "status.json"), encoding="utf-8") as fh:
            status = json.load(fh).get("status")
        problems = [] if status == "complete" else [f"status.json says {status!r}"]
        problems += self.workload.check(out, self.reader, self.prepared, after)
        sha = sha256_file(os.path.join(out, "table.csv"))
        first = next((s[0] for s in self.shas.values() if s), sha)
        if sha != first:
            problems.append(f"table.csv sha256 {sha} differs from the first run's {first}")
        return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dpckpt", "__init__.py")):
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    config_path = os.path.join(ROOT, workload.config)
    if not os.path.isfile(config_path):
        print(f"bench: missing workload config {config_path}", file=sys.stderr)
        return 2

    import dpckpt
    from dpckpt.harness import ConfigView, load_config

    if not os.path.abspath(dpckpt.__file__).startswith(SRC + os.sep):
        print(f"bench: imported dpckpt from {dpckpt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    values = load_config(config_path)
    values.update(workload.overrides)
    items = workload.items(ConfigView(values))
    print("env " + json.dumps(environment(args.seed, workload, items), sort_keys=True))

    runner = Runner(workload, values, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    # at least three runs, and in trace mode at least two of each kind
    while runner.attempted < 3 + args.trace or time.perf_counter() < deadline:
        runner.run(tracer if args.trace and runner.attempted % 2 else None)

    for failure in runner.failures:
        print("FAIL " + failure)
    untraced = runner.scaled[False]
    print(f"table.csv sha256 {(runner.shas[False] or ['none'])[0]}")
    if runner.gates:
        print(f"gates (information only, reduced sizes): {runner.gates}")
    wall = statistics.median(untraced) if untraced else 0.0
    print(f"wall_s samples {len(untraced)}")
    tail = tail_percentile(untraced)
    if tail:
        print(f"wall_s p{tail[0]:.0f} {tail[1]:.6f} s")
    if untraced:
        print(f"wall_s raw (unscaled) median {statistics.median(runner.walls[False]):.6f} s")
    print(f"error_rate {len(runner.failures) / runner.attempted:.4f} fraction")

    if args.trace:
        import layers

        traced = runner.scaled[True]
        runs = len(traced)
        overhead = statistics.median(traced) / wall - 1.0 if traced and wall else 0.0
        same = bool(traced) and set(runner.shas[True]) <= set(runner.shas[False])
        print(f"traced table.csv identical to untraced: {same}")
        metrics = layers.layer_metrics(
            tracer, runs, items, runner.bytes_written, tuple(runner.t_quantile), overhead
        ) if runs else {name: 0.0 for name, _, _ in layers.PER_LAYER}
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
        for layer, moves in layers.MOVES.items():
            print(f"layer {layer} should move: {moves}")
    else:
        setup_raw, setup = measure_setup(config_path, runner.reference)
        print(f"setup_s raw (unscaled) median {statistics.median(setup_raw):.6f} s")
        print(f"reference loop median {statistics.median(runner.refs):.6f} s,"
              f" nominal {REF_SECONDS} s")
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "items_per_s": items / wall if wall else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MiB"}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
