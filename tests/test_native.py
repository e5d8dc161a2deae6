"""The build, cache and fallback of the C kernels (fednoise._native): the
SGD step of numkit, the blob draw of datagen and the local step's
bookkeeping of localnode, each test in a fresh interpreter with a fresh
cache directory."""

import os
import shutil
import stat
import subprocess
import sys

import pytest

from fednoise import _native, datagen, localnode, numkit

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOBS_CFG = os.path.join(REPO_ROOT, "configs", "blobs.cfg")
CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler named cc")

# Prints whether numkit, datagen and localnode loaded their kernels, then
# runs the CLI on the rest of the command line, if any.
IMPORT_AND_RUN = (
    "import sys\n"
    "from fednoise import bench, datagen, localnode, numkit\n"
    "print(numkit._sgd_kernel is not None, datagen._normal_kernel is not None,\n"
    "      localnode._local is not None, flush=True)\n"
    "sys.exit(bench.main(sys.argv[1:]) if sys.argv[1:] else 0)\n"
)


def _python(tmp_path, args=(), **env) -> tuple[bool, bool, bool]:
    """Run IMPORT_AND_RUN in a fresh interpreter with XDG_CACHE_HOME under
    tmp_path and the given environment; whether it loaded the SGD kernel,
    the draw kernel and the local step's kernels."""
    full = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"), XDG_CACHE_HOME=str(tmp_path / "cache"))
    full.pop("CC", None)
    full.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_AND_RUN, *args], env=full, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(word == "True" for word in proc.stdout.splitlines()[0].split())


@needs_cc
def test_first_import_compiles_and_a_second_reuses_the_cache(tmp_path):
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "cc-logged"
    wrapper.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexec "{CC}" "$@"\n')
    wrapper.chmod(0o755)
    assert _python(tmp_path, CC=str(wrapper)) == (True, True, True)
    cache = tmp_path / "cache" / "fednoise"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    (library,) = cache.iterdir()  # no temporary file is left beside it
    assert library.name.startswith("kernels-") and library.suffix == ".so"
    calls = log.read_text().splitlines()
    assert calls[0] == "--version" and len(calls) == 2  # one library for every kernel
    args = calls[1].split()
    assert "-ffp-contract=off" in args and "-ffast-math" not in calls[1]
    assert [os.path.basename(a) for a in args if a.endswith(".c")] == ["_sgd.c", "_normal.c", "_local.c"]
    built = library.stat()
    assert _python(tmp_path, CC=str(wrapper)) == (True, True, True)
    assert log.read_text().splitlines() == calls + ["--version"]  # no second compile
    assert list(cache.iterdir()) == [library]
    assert (library.stat().st_ino, library.stat().st_mtime_ns) == (built.st_ino, built.st_mtime_ns)


@needs_cc
def test_numpy_path_writes_the_kernels_csv(tmp_path):
    # Without a compiler the step, the blob draw and the local step's
    # bookkeeping run in numpy, and a 3-round 784-d run of each method,
    # whose data is drawn on each path, writes the same bytes as with the
    # kernels. The proposed run takes pseudo-labels in rounds 2 and 3.
    overrides = [
        "dataset.dim=784", "dataset.classes=10", "dataset.train_per_class=1000",
        "dataset.test_per_class=200", "fed.rounds=3", "hp.t_pl=2", "hp.t_horizon=2",
    ]
    for method in ("ce_baseline", "proposed"):
        args = ["run", "--config", BLOBS_CFG, "--method", method]
        args += [a for item in overrides for a in ("--override", item)]
        kernel, numpy_csv = tmp_path / f"{method}-kernel.csv", tmp_path / f"{method}-numpy.csv"
        assert _python(tmp_path, args + ["--output", str(kernel)]) == (True, True, True)
        assert _python(tmp_path, args + ["--output", str(numpy_csv)], CC="false") == (False, False, False)
        assert kernel.read_bytes() == numpy_csv.read_bytes(), method


@needs_cc
def test_unwritable_cache_still_loads_the_kernel(tmp_path):
    # XDG_CACHE_HOME is a file, so no cache directory can be made under it
    # (a mode bit would not stop a root user); the kernel is built in a
    # private temporary directory, which is removed.
    (tmp_path / "cache").write_text("")
    (tmp_path / "tmp").mkdir()
    assert _python(tmp_path, TMPDIR=str(tmp_path / "tmp")) == (True, True, True)
    assert list((tmp_path / "tmp").iterdir()) == []


def test_kernel_is_loaded_where_cc_exists():
    # A silent fallback to numpy would keep every result and lose the speed.
    # Every function of _native.ARGTYPES is bound, and no other.
    if "CC" in os.environ:
        pytest.skip("CC names the compiler; this checks the default one")
    if CC is None:
        return
    bound = (numkit._sgd_kernel, datagen._normal_kernel, *(localnode._local or [None]))
    assert None not in bound
    assert sorted(kernel.__name__ for kernel in bound) == sorted(f"fednoise_{name}" for name in _native.ARGTYPES)
