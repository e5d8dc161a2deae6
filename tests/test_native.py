"""The build, cache and fallback of the C kernels (fednoise._native): the
SGD step and the forward and backward passes of numkit, the blob draw of
datagen and the local step's bookkeeping of localnode, each test in a
fresh interpreter with a fresh cache directory; and the binding of
numpy's own calls that _local.c makes."""

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
    "      localnode._local is not None, numkit._mlp is not None, flush=True)\n"
    "sys.exit(bench.main(sys.argv[1:]) if sys.argv[1:] else 0)\n"
)
LOADED, NONE_LOADED = (True,) * 4, (False,) * 4

# Before numkit and localnode are imported, replaces numpy's calls with a
# wrong binding, named by the first argument: np.sin's loop as tanh, or
# a dgemm that swaps its two transpose flags (and takes the leading
# dimensions they imply, so it reads only inside its operands).
WRONG_BINDING = (
    "import ctypes, sys\n"
    "from fednoise import _native\n"
    "import numpy as np\n"
    "calls = _native.NumpyCalls.from_buffer_copy(_native.numpy_calls())\n"
    "if sys.argv.pop(1) == 'tanh':\n"
    "    calls.tanh, calls.tanh_data = _native._double_loop(np.sin)\n"
    "else:\n"
    "    i64, ptr = ctypes.c_int64, ctypes.c_void_p\n"
    "    GEMM = ctypes.CFUNCTYPE(None, *[ctypes.c_int] * 3, i64, i64, i64, ctypes.c_double,\n"
    "                            ptr, i64, ptr, i64, ctypes.c_double, ptr, i64)\n"
    "    dgemm = GEMM(calls.dgemm)\n"
    "    def swapped(order, ta, tb, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc):\n"
    "        dgemm(order, tb, ta, M, N, K, alpha, A, K if tb == 111 else M,\n"
    "              B, N if ta == 111 else K, beta, C, ldc)\n"
    "    keep = GEMM(swapped)\n"
    "    calls.dgemm = ctypes.cast(keep, ctypes.c_void_p).value\n"
    "_native.numpy_calls = lambda: calls\n"
    + IMPORT_AND_RUN
)


def _python(tmp_path, args=(), script=IMPORT_AND_RUN, **env) -> tuple[bool, ...]:
    """Run script (IMPORT_AND_RUN) in a fresh interpreter with
    XDG_CACHE_HOME under tmp_path and the given environment; whether it
    loaded the SGD kernel, the draw kernel, the local step's bookkeeping
    and the forward and backward passes."""
    full = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"), XDG_CACHE_HOME=str(tmp_path / "cache"))
    full.pop("CC", None)
    full.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=full, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(word == "True" for word in proc.stdout.splitlines()[0].split())


@needs_cc
def test_first_import_compiles_and_a_second_reuses_the_cache(tmp_path):
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "cc-logged"
    wrapper.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexec "{CC}" "$@"\n')
    wrapper.chmod(0o755)
    assert _python(tmp_path, CC=str(wrapper)) == LOADED
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
    assert _python(tmp_path, CC=str(wrapper)) == LOADED
    assert log.read_text().splitlines() == calls + ["--version"]  # no second compile
    assert list(cache.iterdir()) == [library]
    assert (library.stat().st_ino, library.stat().st_mtime_ns) == (built.st_ino, built.st_mtime_ns)


@needs_cc
def test_numpy_path_writes_the_kernels_csv(tmp_path):
    # Without a compiler the step, the blob draw and the rest of the local
    # step run in numpy, and a 3-round 784-d run of each method,
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
        assert _python(tmp_path, args + ["--output", str(kernel)]) == LOADED
        assert _python(tmp_path, args + ["--output", str(numpy_csv)], CC="false") == NONE_LOADED
        assert kernel.read_bytes() == numpy_csv.read_bytes(), method


@needs_cc
def test_unwritable_cache_still_loads_the_kernel(tmp_path):
    # XDG_CACHE_HOME is a file, so no cache directory can be made under it
    # (a mode bit would not stop a root user); the kernel is built in a
    # private temporary directory, which is removed.
    (tmp_path / "cache").write_text("")
    (tmp_path / "tmp").mkdir()
    assert _python(tmp_path, TMPDIR=str(tmp_path / "tmp")) == LOADED
    assert list((tmp_path / "tmp").iterdir()) == []


def test_kernel_is_loaded_where_cc_exists():
    # A silent fallback to numpy would keep every result and lose the speed.
    # Every function of _native.ARGTYPES is bound, and no other, and
    # localnode's passed its probe with numpy's calls.
    if "CC" in os.environ:
        pytest.skip("CC names the compiler; this checks the default one")
    if CC is None:
        return
    bound = (numkit._sgd_kernel, datagen._normal_kernel, *(localnode._local or [None]), *(numkit._mlp or [None]))
    assert None not in bound and localnode._calls is not None
    assert sorted(kernel.__name__ for kernel in bound) == sorted(f"fednoise_{name}" for name in _native.ARGTYPES)


@needs_cc
@pytest.mark.parametrize("wrong", ["tanh", "dgemm"])
def test_a_wrong_binding_is_refused_and_numpy_writes_the_same_csv(tmp_path, wrong):
    # The probes refuse a wrong binding of numpy's calls: numkit's passes
    # (tanh, dgemm) and localnode's functions (dgemm) run numpy's lines,
    # and a 3-round 784-d proposed run, with pseudo-labels in rounds 2
    # and 3, writes the bytes of the kernels' run.
    overrides = [
        "dataset.dim=784", "dataset.classes=10", "dataset.train_per_class=300",
        "dataset.test_per_class=50", "fed.rounds=3", "hp.t_pl=2", "hp.t_horizon=2",
    ]
    args = ["run", "--config", BLOBS_CFG, "--method", "proposed"]
    args += [a for item in overrides for a in ("--override", item)]
    kernel, refused = tmp_path / "kernel.csv", tmp_path / "refused.csv"
    assert _python(tmp_path, args + ["--output", str(kernel)]) == LOADED
    loaded = _python(tmp_path, [wrong, *args, "--output", str(refused)], WRONG_BINDING)
    assert loaded == (True, True, wrong == "tanh", False)
    assert kernel.read_bytes() == refused.read_bytes()
