#!/usr/bin/env python3
"""SHA-256 of the metrics CSVs of nine reference runs, to check that a
change keeps the CSV bytes the same.

The runs are the four methods on configs/blobs.cfg; `proposed` on it for
40 rounds (past hp.t_pl = 30) under each other noise setting: pair
noise, noise.client_variance and single-class noise; and the
benchmark's mnist784-ce and mnist784-proposed-pool2 workloads at seed 1,
configured by perfbench/run.py itself. The first line names the numpy and BLAS
versions and the core type whose kernels OpenBLAS chose, since the bytes
depend on them, and the number of processes each run trains in, which
they must not depend on; then one `<sha256>  <run>` line per run.

With --check, the digests are also compared with the reference ones
below, which hold for numpy 2.4.6 with scipy-openblas 0.3.31 on its
SkylakeX kernels (another core, Haswell say, gives other bytes): the script
exits 1 and names each run whose digest differs, or exits 2 at once on
other versions, where the references do not apply. If the reader of
standard output goes away (as in `| head -1`), it prints nothing more
but still runs and checks every run, and exits with the same status.

Usage, from the root of a checkout (about 8 s on 2 CPUs, 9 s on one):

    python3 scripts/csv_digests.py [--check]
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

# Pins BLAS to one thread before numpy is first imported.
import run as perfbench  # noqa: E402

DESK_CONFIG = os.path.join(ROOT, "configs", "blobs.cfg")
NOISE_SETTINGS = (
    ["noise.kind=pair", "noise.epsilon=0.3"],
    ["noise.client_variance=0.2"],
    ["noise.kind=single_class"],
)
BENCH_WORKLOADS = ("mnist784-ce", "mnist784-proposed-pool2")
BENCH_SEED = 1

REFERENCE_NUMPY = "2.4.6"
REFERENCE_BLAS = "scipy-openblas 0.3.31"
REFERENCE_DIGESTS = {
    "desk proposed": "46d1d043612bb0287daea02b8625b0482cee30b8a60206805bc12b3d31ae0d7c",
    "desk ce_baseline": "2c7abada98e425a756555373c950ab8a53d5d105e5b693457e3277387d448061",
    "desk naive_pseudo_ablation": "d829c947090969744c9576bcc86015d33faeebb25197b635f52b5b981e1db144",
    "desk no_global_centroids_ablation": "548da1e0a2427f274bb9f87636cacb0042b93e670bf05ca33df00463e767d830",
    "desk proposed 40 rounds noise.kind=pair noise.epsilon=0.3":
        "a0c2d33b8c861202a451f2ab4396584fdb9921aea8784443c9d69e76998a59b8",
    "desk proposed 40 rounds noise.client_variance=0.2":
        "d221e6ef68f999fd77aa6d9c3608dfb3151826c56e0c8f93e1df959814ed975b",
    "desk proposed 40 rounds noise.kind=single_class":
        "5abe61ed2428141e949b3c3163fed79a1be03b348aa6e18c5b8a97e23d248fe9",
    "mnist784-ce seed 1": "4ea99e3ed66a9b0da97c348ff5230492ca92fd0e742041f026b595676f2c62ad",
    "mnist784-proposed-pool2 seed 1": "2f78d47978ca71840a6a0783d04fd5fd8dc9e670811798502d235e39933cd8de",
}


def say(line: str) -> None:
    """Print one line, or nothing once standard output's reader is gone."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # Later lines, and the flush at exit, go to the null device instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main() -> int:
    check = "--check" in sys.argv[1:]
    pkg = perfbench.import_fednoise()
    env = perfbench.environment()
    # A BLAS version may carry a build suffix, as in scipy-openblas 0.3.31.188.0.
    known = env["numpy"] == REFERENCE_NUMPY and f"{env['blas']}.".startswith(f"{REFERENCE_BLAS}.")
    if check and not known:
        say(
            f"no reference digests for numpy {env['numpy']}, BLAS {env['blas']}: "
            f"they hold for numpy {REFERENCE_NUMPY}, BLAS {REFERENCE_BLAS}"
        )
        return 2
    runs = [
        (f"desk {method}", pkg.bench.load_config(DESK_CONFIG, [f"method={method}"]))
        for method in pkg.localnode.METHODS
    ]
    runs += [
        (
            f"desk proposed 40 rounds {' '.join(noise)}",
            pkg.bench.load_config(DESK_CONFIG, ["method=proposed", "fed.rounds=40"] + noise),
        )
        for noise in NOISE_SETTINGS
    ]
    runs += [
        (f"{name} seed {BENCH_SEED}", perfbench.load_workload(pkg, name, BENCH_SEED))
        for name in BENCH_WORKLOADS
    ]
    processes = sorted({pkg.coordinator._process_count(cfg.fed.clients_per_round) for _, cfg in runs})
    say(
        f"numpy {env['numpy']}, BLAS {env['blas']}, core {pkg._native.blas_core()}, "
        f"processes {'/'.join(map(str, processes))}"
    )
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, cfg in runs:
            cfg.output = os.path.join(tmp, "metrics.csv")
            pkg.bench.run_experiment(cfg)
            with open(cfg.output, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            say(f"{digest}  {label}")
            if digest != REFERENCE_DIGESTS[label]:
                differ.append(label)
    if check:
        for label in differ:
            say(f"differs from the reference: {label}")
        say("check failed" if differ else "check passed: all nine digests match the reference")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
