"""Closed-loop benchmark of fednoise training workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-proposed --seed 1 --seconds 30 --trace 0

One process runs one workload's experiment to completion, again and
again, until --seconds have passed: build the data, partition it,
corrupt the labels, train, write the metrics CSV. These are the steps of
`fednoise.run_experiment`, taken through the public API so each can be
timed from outside. Every experiment's output is checked.

--trace 0 reports the end-to-end metrics (medians over the experiments),
with times in calibrated seconds (see SpeedProbe).
--trace 1 alternates untraced and traced experiments (see spans.py) and
then makes one untimed call-counting pass; it reports per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See NOTE.md for the workloads
and metrics.
"""

import os

# Pinned before numpy is first imported: at 784-d the CSV bytes depend
# on the BLAS thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BASE_CONFIG = os.path.join(ROOT, "configs", "blobs.cfg")
WORKERS_ENV = "FEDNOISE_WORKERS"

# MNIST-shaped synthetic data: 784-d, 10 classes, 10k training points.
# Ten rounds keep one experiment at a few seconds.
MNIST784 = (
    "dataset.dim=784",
    "dataset.classes=10",
    "dataset.train_per_class=1000",
    "dataset.test_per_class=200",
    "fed.rounds=10",
)
# blobs.cfg's schedule (pseudo-labels from round 30, keep-fraction decay
# over 10 rounds) scaled to a 10-round run, so its second half runs the
# pseudo-label phase.
SHORT_SCHEDULE = ("hp.t_pl=5", "hp.t_horizon=5")

# name -> (config overrides on top of blobs.cfg, FEDNOISE_WORKERS or None)
WORKLOADS = {
    "desk-proposed": (("method=proposed",), None),
    "mnist784-ce": (MNIST784 + ("method=ce_baseline",), None),
    "mnist784-proposed-pool2": (MNIST784 + SHORT_SCHEDULE + ("method=proposed",), "2"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "acc_last10": "ratio",
}

PER_LAYER_UNITS = {
    "bench.build_datasets_s": "s",
    "datagen.partition_iid_s": "s",
    "noise.apply_noise_s": "s",
    "numkit.mlp_forward_s": "s",
    "numkit.mlp_forward_calls": "count",
    "numkit.mlp_backward_s": "s",
    "numkit.sgd_step_s": "s",
    "numkit.sgd_step_calls": "count",
    "numkit.gflop": "GFLOP",
    "numkit.gflop_per_s": "GFLOP/s",
    "numkit.sgd_step_new_bytes": "B",
    "localnode.local_update_s": "s",
    "localnode.local_update_calls": "count",
    "localnode.local_update_self_s": "s",
    "localnode.total_loss_and_grads_s": "s",
    "localnode.per_example_ce_s": "s",
    "localnode.small_loss_filter_s": "s",
    "localnode.similarity_labels_s": "s",
    "localnode.class_mean_features_s": "s",
    "localnode.blend_with_global_s": "s",
    "localnode.global_pseudo_labels_s": "s",
    "localnode.calls_per_step": "count",
    "localnode.small_loss_keep_ratio": "ratio",
    "localnode.confident_ratio": "ratio",
    "coordinator.client_phase_s": "s",
    "coordinator.pool_overlap": "ratio",
    "coordinator.round_self_s": "s",
    "coordinator.fedavg_s": "s",
    "coordinator.aggregate_global_centroids_s": "s",
    "coordinator.evaluate_accuracy_s": "s",
    "metrics.weight_divergence_s": "s",
    "coordinator.exchange_bytes_per_round": "B",
    "metrics.write_csv_s": "s",
    "trace.overhead_ratio": "ratio",
}

CSV_TAG = "# fednoise-v1"
CSV_COLUMNS = 8
LAST_ROUNDS = 10
# setup_s is the median of at least this many set-ups: the experiments'
# own, topped up with set-up-only repetitions.
SETUP_SAMPLES = 11
# SpeedProbe.time() on the reference machine (a quiet 2-vCPU Xeon KVM
# guest, Python 3.11, numpy 2.4, OpenBLAS 0.3.31), by probe thread count.
# Calibrated seconds are seconds on a machine as fast as that one was for
# the probe.
REFERENCE_PROBE_S = {1: 0.017, 2: 0.035}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def import_fednoise():
    """Import fednoise from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fednoise", "__init__.py")):
        raise BenchError(f"no fednoise sources under {SRC}")
    if not os.path.isfile(BASE_CONFIG):
        raise BenchError(f"missing {BASE_CONFIG}")
    sys.path.insert(0, SRC)
    import fednoise
    import fednoise.bench
    import fednoise.coordinator
    import fednoise.datagen
    import fednoise.metrics
    import fednoise.noise

    if not os.path.realpath(fednoise.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"fednoise imported from {fednoise.__file__}, not {SRC}")
    return fednoise


def load_workload(pkg, name: str, seed: int):
    overrides, workers = WORKLOADS[name]
    if workers is None:
        os.environ.pop(WORKERS_ENV, None)
    else:
        os.environ[WORKERS_ENV] = workers
    seeds = (f"seed={seed}", f"dataset.seed={seed}", f"noise.seed={seed}")
    return pkg.bench.resolve_config(pkg.bench.load_config(BASE_CONFIG, list(overrides + seeds)))


def setup(pkg, cfg):
    """Data generation, partitioning and corruption. Module attributes are
    looked up at call time so the tracer's wrappers, when installed, see
    every call."""
    train, test = pkg.bench.build_datasets(cfg.dataset)
    shards = pkg.datagen.partition_iid(train, cfg.fed.num_clients, cfg.seed)
    pkg.noise.apply_noise(train, shards, cfg.noise)
    return train, test, shards


def experiment(pkg, cfg, csv_path: str):
    """One job, timed from outside."""
    t0 = time.perf_counter()
    train, test, shards = setup(pkg, cfg)
    t1 = time.perf_counter()
    _, records = pkg.coordinator.run_training(
        train, test, shards, cfg.fed, cfg.hp, cfg.seed, method=cfg.method
    )
    t2 = time.perf_counter()
    pkg.metrics.write_csv(csv_path, records)
    t3 = time.perf_counter()
    examples = cfg.fed.rounds * cfg.fed.clients_per_round * cfg.hp.local_epochs * train.n / cfg.fed.num_clients
    sample = {
        "setup_s": t1 - t0,
        "train_s": t2 - t1,
        "run_s": t3 - t0,
        "samples_per_s": examples / (t2 - t1),
    }
    return sample


def check_output(csv_path: str, rounds: int, classes: int, reference: dict) -> tuple[list[str], float]:
    """Problems with one experiment's CSV, and its mean accuracy over the
    last rounds. The first checked CSV of a run becomes the reference that
    every later one must equal byte for byte."""
    with open(csv_path, "rb") as fh:
        data = fh.read()
    problems = []
    digest = hashlib.sha256(data).hexdigest()
    reference.setdefault("sha256", digest)
    if digest != reference["sha256"]:
        problems.append("CSV bytes differ from the run's first experiment")
    lines = data.decode().splitlines()
    if len(lines) < 2 or lines[0] != CSV_TAG:
        return problems + ["CSV header missing"], math.nan
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    if len(header) != CSV_COLUMNS or header[0] != "round" or header[1] != "test_accuracy":
        problems.append(f"unexpected CSV columns {header}")
    if len(rows) != rounds:
        problems.append(f"{len(rows)} CSV rows for {rounds} rounds")
    for i, row in enumerate(rows, 1):
        if len(row) != len(header) or row[0] != str(i):
            problems.append(f"CSV row {i} malformed: {row}")
            continue
        if not all(math.isfinite(float(v)) for v in row[1:]):
            problems.append(f"CSV row {i} has a non-finite value")
    if problems or not rows:
        return problems, math.nan
    tail = [float(row[1]) for row in rows[-LAST_ROUNDS:]]
    acc_last = sum(tail) / len(tail)
    if acc_last <= 2.0 / classes:
        problems.append(f"acc_last10 {acc_last} is near chance")
    return problems, acc_last


def source_hash() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "fednoise"))):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config's layout differs across numpy versions
        blas = "unknown"
    git = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git = proc.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git": git,
        "source_sha256": source_hash(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class SpeedProbe:
    """Fixed reference work, timed between experiments to calibrate them.

    The machine the benchmark was set on is shared, and its speed moves by
    up to half over tens of seconds, in CPU time as much as in wall time.
    The same work timed just before and just after an experiment moves
    with it, so an experiment's time over the mean of its two probes holds
    steadier than the time alone. The probe is SGD on a fixed numpy MLP at
    the two array sizes fednoise trains (batches of 50 with 784 and with
    10 inputs), run in as many threads at once as the workload trains in,
    so that it meets the contention the workload meets on every CPU it
    uses. It calls no fednoise code, so a change to fednoise moves the
    calibrated time in full.
    """

    SHAPES = ((784, 10, 20), (10, 4, 200))  # (inputs, classes, steps)
    # time() is the median of this many timed rounds of the work: one
    # round is easily caught whole by a short stall.
    ROUNDS = 3

    def __init__(self, threads: int, batch=50, hidden=64):
        rng = np.random.default_rng(0)
        self.nets = [
            (
                rng.standard_normal((batch, d)),
                rng.standard_normal((d, hidden)) / math.sqrt(d),
                rng.standard_normal((hidden, c)) * 0.1,
                steps,
            )
            for d, c, steps in self.SHAPES
        ]
        self.threads = threads
        self.reference_s = REFERENCE_PROBE_S[threads]
        self.time()  # first-call costs
        self.last = self.time()

    def _work(self):
        for X, W1, W2, steps in self.nets:
            for _ in range(steps):
                h = np.tanh(X @ W1)
                z = h @ W2
                p = np.exp(z - z.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                dh = (p @ W2.T) * (1.0 - h * h)
                W1 = W1 - 0.01 * (X.T @ dh)
                W2 = W2 - 0.01 * (h.T @ p)

    def _round(self) -> float:
        started = time.perf_counter()
        if self.threads == 1:
            self._work()
        else:
            workers = [threading.Thread(target=self._work) for _ in range(self.threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        return time.perf_counter() - started

    def time(self) -> float:
        return statistics.median(self._round() for _ in range(self.ROUNDS))

    def scale(self) -> float:
        """Probe once more; the factor from seconds to calibrated seconds
        for the work done since the previous probe."""
        now = self.time()
        factor = 2 * self.reference_s / (self.last + now)
        self.last = now
        return factor


class Runner:
    """Runs experiments of one workload and tallies attempts and failures."""

    def __init__(self, pkg, cfg, workdir: str):
        self.pkg = pkg
        self.cfg = cfg
        self.workdir = workdir
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.acc_last10 = []

    def run(self, instrument=None):
        """One checked experiment, optionally inside an instrument (a
        spans.Tracer or spans.CallCounter) whose self-checks count too.
        Returns the timing sample, or None when the experiment failed."""
        self.attempted += 1
        path = os.path.join(self.workdir, f"run{self.attempted}.csv")
        try:
            if instrument is None:
                sample = experiment(self.pkg, self.cfg, path)
            else:
                with instrument:
                    sample = experiment(self.pkg, self.cfg, path)
            problems, acc = check_output(path, self.cfg.fed.rounds, self.cfg.dataset.classes, self.reference)
            if instrument is not None:
                problems += instrument.finish(sample["run_s"])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            if os.path.exists(path):
                os.remove(path)
        if problems:
            for p in problems:
                print(f"experiment {self.attempted}: {p}", file=sys.stderr)
            self.failed += 1
            return None
        self.acc_last10.append(acc)
        return sample


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    """Medians over the run's experiments, times in calibrated seconds."""
    probe = SpeedProbe(int(os.environ.get(WORKERS_ENV, "1")))
    samples, setups = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        sample = runner.run()
        scale = probe.scale()
        if sample is not None:
            samples.append({k: sample[k] * scale for k in ("setup_s", "train_s", "run_s")})
            samples[-1]["samples_per_s"] = sample["samples_per_s"] / scale
            setups.append(samples[-1]["setup_s"])
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    if not samples:
        raise BenchError("no experiment succeeded")
    while len(setups) < SETUP_SAMPLES:
        started = time.perf_counter()
        setup(runner.pkg, runner.cfg)
        elapsed = time.perf_counter() - started
        setups.append(elapsed * probe.scale())
    metrics = {key: statistics.median(s[key] for s in samples) for key in ("run_s", "samples_per_s")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["acc_last10"] = statistics.median(runner.acc_last10)
    return {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}


def measure_per_layer(runner: Runner, seconds: float) -> dict:
    pkg = runner.pkg
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        sample = runner.run()
        if sample is not None:
            untraced.append(sample["train_s"])
        tracer = spans.Tracer(pkg)
        sample = runner.run(tracer)
        if sample is not None:
            traced.append((sample["train_s"], tracer.times, tracer.exact))
        # Leave room for this pair once more and for the counting pass.
        if time.perf_counter() + 2 * (time.perf_counter() - started) > deadline:
            break
    counter = spans.CallCounter(pkg.localnode.local_update, pkg.numkit.sgd_step)
    runner.run(counter)
    if not untraced or not traced:
        raise BenchError("no traced/untraced experiment pair succeeded")

    metrics = {}
    for key in traced[0][1]:
        metrics[key] = statistics.median(t[1][key] for t in traced)
    # Counted quantities are exact: every traced repeat must agree.
    for key, value in traced[0][2].items():
        if any(t[2][key] != value for t in traced[1:]):
            print(f"counted {key} differs across traced repeats", file=sys.stderr)
            runner.failed += 1
        metrics[key] = value
    metrics["localnode.calls_per_step"] = counter.calls_per_step()
    metrics["trace.overhead_ratio"] = statistics.median(t[0] for t in traced) / statistics.median(untraced)
    return {k: (metrics[k], u) for k, u in PER_LAYER_UNITS.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pkg = import_fednoise()
    except (BenchError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        cfg = load_workload(pkg, args.workload, args.seed)
        runner = Runner(pkg, cfg, workdir)
        # Untimed warm-up of the set-up: first-call costs are not a
        # property of the code under test.
        setup(pkg, cfg)
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics = measure(runner, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<42} {value:>16.6g} {unit}")
    print(f"{args.workload}  {'error_rate':<42} {runner.failed / runner.attempted:>16.6g} ratio")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
