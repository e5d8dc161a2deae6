#!/usr/bin/env python3
"""SHA-256 of the metrics CSVs of six reference runs, to check that a
change keeps the CSV bytes the same.

The runs are the four methods on configs/blobs.cfg, and the benchmark's
mnist784-ce and mnist784-proposed-pool2 workloads at seed 1, configured
by perfbench/run.py itself. The first line names the numpy and BLAS
versions, since the bytes depend on them, and the number of processes
each run trains in, which they must not depend on; then one
`<sha256>  <run>` line per run.

Usage, from the root of a checkout (about 15 s on one CPU):

    python3 scripts/csv_digests.py
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
BENCH_WORKLOADS = ("mnist784-ce", "mnist784-proposed-pool2")
BENCH_SEED = 1


def main() -> int:
    pkg = perfbench.import_fednoise()
    env = perfbench.environment()
    runs = [
        (f"desk {method}", pkg.bench.load_config(DESK_CONFIG, [f"method={method}"]))
        for method in pkg.localnode.METHODS
    ]
    runs += [
        (f"{name} seed {BENCH_SEED}", perfbench.load_workload(pkg, name, BENCH_SEED))
        for name in BENCH_WORKLOADS
    ]
    # As run_training chooses: one per usable CPU, at most one per client of a round.
    processes = sorted({min(pkg.coordinator._usable_cpus(), cfg.fed.clients_per_round) for _, cfg in runs})
    print(f"numpy {env['numpy']}, BLAS {env['blas']}, processes {'/'.join(map(str, processes))}")
    with tempfile.TemporaryDirectory() as tmp:
        for label, cfg in runs:
            cfg.output = os.path.join(tmp, "metrics.csv")
            pkg.bench.run_experiment(cfg)
            with open(cfg.output, "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
