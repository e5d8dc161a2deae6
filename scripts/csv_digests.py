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

With --check, the digests are also compared with the reference set
below for this (numpy, BLAS, core type): numpy 2.4.6 with scipy-openblas
0.3.31 on its SkylakeX, Haswell (which a forced Zen also picks) or
Sandybridge kernels, each of which gives its own bytes. The script exits
1 and names each run whose digest differs, or exits 2 at once where no
set applies. If the reader of standard output goes away (as in `| head
-1`), it prints nothing more but still runs and checks every run, and
exits with the same status.

Usage, from the root of a checkout (about 8 s on 2 CPUs, 9 s on one):

    python3 scripts/csv_digests.py [--check]

A core type is forced for this process alone with OPENBLAS_CORETYPE, as
in `OPENBLAS_CORETYPE=Haswell python3 scripts/csv_digests.py --check`;
that is how the Haswell and Sandybridge sets were taken.
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

# The reference digests by (numpy, BLAS, the core type _native.blas_core()
# names). A BLAS version may carry a build suffix, as in
# scipy-openblas 0.3.31.188.0.
REFERENCE_DIGESTS = {
    ("2.4.6", "scipy-openblas 0.3.31", "SkylakeX"): {
        "desk proposed": "46d1d043612bb0287daea02b8625b0482cee30b8a60206805bc12b3d31ae0d7c",
        "desk ce_baseline": "2c7abada98e425a756555373c950ab8a53d5d105e5b693457e3277387d448061",
        "desk naive_pseudo_ablation": "d829c947090969744c9576bcc86015d33faeebb25197b635f52b5b981e1db144",
        "desk no_global_centroids_ablation":
            "548da1e0a2427f274bb9f87636cacb0042b93e670bf05ca33df00463e767d830",
        "desk proposed 40 rounds noise.kind=pair noise.epsilon=0.3":
            "a0c2d33b8c861202a451f2ab4396584fdb9921aea8784443c9d69e76998a59b8",
        "desk proposed 40 rounds noise.client_variance=0.2":
            "d221e6ef68f999fd77aa6d9c3608dfb3151826c56e0c8f93e1df959814ed975b",
        "desk proposed 40 rounds noise.kind=single_class":
            "5abe61ed2428141e949b3c3163fed79a1be03b348aa6e18c5b8a97e23d248fe9",
        "mnist784-ce seed 1": "4ea99e3ed66a9b0da97c348ff5230492ca92fd0e742041f026b595676f2c62ad",
        "mnist784-proposed-pool2 seed 1": "2f78d47978ca71840a6a0783d04fd5fd8dc9e670811798502d235e39933cd8de",
    },
    ("2.4.6", "scipy-openblas 0.3.31", "Haswell"): {
        "desk proposed": "ef586b616de05ee9302410db2441694d1af2eb4aa8df71c56a709670a0621e35",
        "desk ce_baseline": "3c48e561573e15bf5c58768ad8a0396ab76aec5b66a0db596ce509c9f5a3b379",
        "desk naive_pseudo_ablation": "1a396f9a4330e5f644eefdacdd32d8b2f02b1569a10f75c526419cad553b86f0",
        "desk no_global_centroids_ablation":
            "918f817dec702efcdbd630874ee7d849916548c7a25383de0b91b1e8248b7ce2",
        "desk proposed 40 rounds noise.kind=pair noise.epsilon=0.3":
            "65a3457c29c4f92017891ab9de8e380955b556b57bee6ad41ce876432055b5f3",
        "desk proposed 40 rounds noise.client_variance=0.2":
            "ad119472983918e3370fdf52098c75bf4f64a7b8a234bb2b9a30b5dca3ae4c13",
        "desk proposed 40 rounds noise.kind=single_class":
            "28bed066b9370860f9d868a4863e1ec2b24d37111bee4072db67d11678545281",
        "mnist784-ce seed 1": "bc0ef383894e5661ef947ab8fb156fea18a75833152cf96d5a368366acce738a",
        "mnist784-proposed-pool2 seed 1": "6c912ab904a61a22dcddc561bc2b5035e04b40e03050b823cddaef07a71610c0",
    },
    ("2.4.6", "scipy-openblas 0.3.31", "Sandybridge"): {
        "desk proposed": "6767128a638114fc07adcc6b8d1e868a1c80df9385ce21191ded09469885c927",
        "desk ce_baseline": "14e28656e37a8df9ec06c699e792cb65876f15d4b3763d87fa35c442933dee2f",
        "desk naive_pseudo_ablation": "92e73ecf5df802e16819932fb51ca26c2b8ac71a0f0d260f8f5f38dcf06af8ba",
        "desk no_global_centroids_ablation":
            "c931137e39fcd633d609e0c71a3f367f07e6259139789dc7567d0991f53e46f7",
        "desk proposed 40 rounds noise.kind=pair noise.epsilon=0.3":
            "f7118a5ef63c9c5901c969dce51eb7d8e81142e9fce4a2a702ef4751b58df960",
        "desk proposed 40 rounds noise.client_variance=0.2":
            "6827aeabdf9c26ab8f433b5acceb10d792fc1cb1156537dbfe83dc913d39fe8c",
        "desk proposed 40 rounds noise.kind=single_class":
            "5895d6de53f33caa77abf6d706cb4136d6c2f8d843249ad45e208876ac5c5c09",
        "mnist784-ce seed 1": "924c3cda3ab4b4c4243dc1c509bcd1ea6b934bb24253515f027e6826bf33ee2d",
        "mnist784-proposed-pool2 seed 1": "c77fb8aad75fd7175664f70a0068caa3d586114e15e0f5facb959b973266aad5",
    },
}


def say(line: str) -> None:
    """Print one line, or nothing once standard output's reader is gone."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # Later lines, and the flush at exit, go to the null device instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def references(numpy: str, blas: str, core: str) -> dict | None:
    """The reference digests for this numpy, BLAS and core type, or None."""
    for (ref_numpy, ref_blas, ref_core), digests in REFERENCE_DIGESTS.items():
        if (numpy, core) == (ref_numpy, ref_core) and f"{blas}.".startswith(f"{ref_blas}."):
            return digests
    return None


def main() -> int:
    check = "--check" in sys.argv[1:]
    pkg = perfbench.import_fednoise()
    env = perfbench.environment()
    core = pkg._native.blas_core()
    reference = references(env["numpy"], env["blas"], core)
    if check and reference is None:
        say(
            f"no reference digests for numpy {env['numpy']}, BLAS {env['blas']}, core {core}: "
            f"they hold for {'; '.join(f'numpy {n}, BLAS {b}, core {c}' for n, b, c in REFERENCE_DIGESTS)}"
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
    say(f"numpy {env['numpy']}, BLAS {env['blas']}, core {core}, processes {'/'.join(map(str, processes))}")
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, cfg in runs:
            cfg.output = os.path.join(tmp, "metrics.csv")
            pkg.bench.run_experiment(cfg)
            with open(cfg.output, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            say(f"{digest}  {label}")
            if check and digest != reference[label]:
                differ.append(label)
    if check:
        for label in differ:
            say(f"differs from the reference: {label}")
        say("check failed" if differ else "check passed: all nine digests match the reference")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
