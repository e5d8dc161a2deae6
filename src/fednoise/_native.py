"""The C kernels, built into one library with the system C compiler when
fednoise is first imported, and loaded through ctypes: the fused SGD
step of _sgd.c (numkit.sgd_step), the blob draw of _normal.c
(datagen.make_blob_split) and the rest of the local step in _local.c
(numkit's forward and backward passes, localnode's bookkeeping). Each
caller binds its functions with load; datagen, numkit and localnode keep
theirs only where their probe passes checked.

_local.c makes numpy's own calls where no C loop gives numpy's bits:
numpy_calls reads the addresses of the cblas_dgemm and cblas_ddot of
the BLAS numpy loaded, and of numpy's float64 tanh, exp and log inner
loops, and the caller passes them to each C function that needs them.

The compiler is $CC, else `cc`. The library is cached under
${XDG_CACHE_HOME:-~/.cache}/fednoise, named by a SHA-256 of every
source, the compiler's --version, the flags and the host CPU, so a
-march=native build made for another CPU is never loaded. Where that
directory cannot be made or written, the library is built in a private
temporary one. If any step fails there are no kernels, and each caller
runs its numpy lines, which give the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shlex
import subprocess
import tempfile
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = tuple(os.path.join(HERE, name) for name in ("_sgd.c", "_normal.c", "_local.c"))
# -ffp-contract=off keeps a*b + c two roundings, as in numpy. Never add
# -ffast-math or -Ofast: they reassociate and may set flush-to-zero for
# the whole process.
# -pthread: the blob draw runs its parts on POSIX threads.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
# After the sources, for linkers that drop a library no earlier input needs.
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120
# The /proc/cpuinfo entries that name a CPU and its instruction sets
# (x86, then ARM); the others vary with time or between cores.
CPU_KEYS = (
    b"vendor_id", b"cpu family", b"model", b"model name", b"flags",
    b"CPU implementer", b"CPU architecture", b"CPU variant", b"CPU part", b"Features",
)


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set, or 1 where
    the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run(args: list[str]) -> bytes:
    return subprocess.run(
        args, stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=COMPILE_TIMEOUT_S
    ).stdout


def _host_cpu() -> bytes:
    """The machine's name and the first processor's CPU_KEYS entries."""
    lines = [platform.machine().encode()]
    with contextlib.suppress(OSError), open("/proc/cpuinfo", "rb") as f:
        first = f.read().split(b"\n\n", 1)[0]
        lines += [line for line in first.splitlines() if line.partition(b":")[0].strip() in CPU_KEYS]
    return b"\n".join(lines)


def _cache_dir() -> str | None:
    """The fednoise cache directory, made mode 0700, or None where it cannot
    be made or written, or belongs to another user."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "fednoise")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        if os.stat(path).st_uid != os.getuid():
            return None
        os.chmod(path, 0o700)
    except OSError:
        return None
    return path if os.access(path, os.W_OK) else None


def _build(compiler: list[str], path: str) -> None:
    """Compile SOURCES to a temporary file beside path, then move it there."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        _run(compiler + [*FLAGS, "-o", tmp, *SOURCES, *LIBS])
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@functools.cache
def _library() -> ctypes.CDLL | None:
    """The library, built or taken from the cache, once per process; None
    where no compiler runs or any step fails."""
    try:
        compiler = shlex.split(os.environ.get("CC") or "cc")
        parts = []
        for source in SOURCES:
            with open(source, "rb") as f:
                parts.append(f.read())
        parts += [_run(compiler + ["--version"]), " ".join(FLAGS + LIBS).encode(), _host_cpu()]
        key = hashlib.sha256(b"\0".join(parts)).hexdigest()
        name = f"kernels-{key}.so"
        cache = _cache_dir()
        if cache is None:
            with tempfile.TemporaryDirectory(prefix="fednoise-") as private:
                _build(compiler, os.path.join(private, name))
                return ctypes.CDLL(os.path.join(private, name))
        path = os.path.join(cache, name)
        if not os.path.exists(path):
            _build(compiler, path)
        return ctypes.CDLL(path)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


# The first byte of an array as a ctypes object, which an array argument
# takes by reference. It raises TypeError, or ValueError, unless the array
# is C-contiguous, writeable and not empty.
ref = ctypes.c_ubyte.from_buffer


class NumpyCalls(ctypes.Structure):
    """The addresses of numpy's own calls, as _local.c's struct
    numpy_calls: the ILP64 cblas_dgemm and cblas_ddot of its BLAS, and
    its float64 tanh, exp and log inner loops, each with its data."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in ("dgemm", "ddot", "tanh", "tanh_data", "exp", "exp_data", "log", "log_data")
    ]


# numpy's BLAS as numpy's wheels ship it: its file name and its ILP64
# CBLAS symbols, those numpy's matmul and dot call. Another build (a
# system BLAS, MKL) has other names, and nothing is bound.
BLAS_FILE = "libscipy_openblas64_"
BLAS_SYMBOLS = ("scipy_cblas_dgemm64_", "scipy_cblas_ddot64_")
UFUNCS = (np.tanh, np.exp, np.log)


def _blas_path() -> str:
    """The file of numpy's BLAS that this process mapped, else the one in
    the numpy.libs directory beside numpy."""
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split(maxsplit=5)[5:]
            if path and os.path.basename(path[0].rstrip("\n")).startswith(BLAS_FILE):
                return path[0].rstrip("\n")
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    (name,) = [name for name in os.listdir(libs) if name.startswith(BLAS_FILE)]
    return os.path.join(libs, name)


def _double_loop(ufunc: np.ufunc) -> tuple[int, int | None]:
    """The addresses of a one-in, one-out ufunc's float64 inner loop and
    of its data, read from the PyUFuncObject fields that numpy's public
    ufuncobject.h declares after the object head: int nin, nout, nargs,
    identity; the arrays functions and data; int ntypes, reserved1; the
    strings name and types. No pointer is followed unless the head's
    integers are the ufunc's own, and then its name: else LookupError.
    Only CPython's id() is the object's address."""
    if platform.python_implementation() != "CPython":
        raise LookupError("numpy's ufunc loops are read only under CPython")
    word = ctypes.sizeof(ctypes.c_void_p)
    at = id(ufunc) + object.__basicsize__
    head = [ctypes.c_int.from_address(at + offset).value for offset in (0, 4, 8, 16 + 2 * word)]
    if head != [1, 1, 2, ufunc.ntypes] or (ufunc.nin, ufunc.nout) != (1, 1):
        raise LookupError(f"np.{ufunc.__name__} is not laid out as numpy's ufuncobject.h")
    if ctypes.c_char_p.from_address(at + 24 + 2 * word).value != ufunc.__name__.encode():
        raise LookupError(f"np.{ufunc.__name__} is not laid out as numpy's ufuncobject.h")
    types = ctypes.string_at(ctypes.c_void_p.from_address(at + 24 + 3 * word).value, 2 * ufunc.ntypes)
    index = [types[i : i + 2] for i in range(0, len(types), 2)].index(bytes([np.dtype(np.float64).num] * 2))
    functions, data = (ctypes.c_void_p.from_address(at + 16 + i * word).value for i in range(2))
    loop = functions and ctypes.c_void_p.from_address(functions + index * word).value
    if not loop:
        raise LookupError(f"np.{ufunc.__name__} has no float64 loop")
    return loop, data and ctypes.c_void_p.from_address(data + index * word).value


@functools.cache
def blas_core() -> str:
    """The core type whose kernels numpy's OpenBLAS chose when it loaded
    (SkylakeX, Haswell, ...; OPENBLAS_CORETYPE forces one), read once per
    process, or "unknown" where it cannot be read. The CSV bytes depend on
    it: the kernels of different cores round dgemm and ddot differently."""
    try:
        corename = ctypes.CDLL(_blas_path()).scipy_openblas_get_corename64_
    except (OSError, AttributeError, ValueError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


@functools.cache
def numpy_calls() -> NumpyCalls | None:
    """numpy's own calls, once per process, or None where any of them
    cannot be found; then no C function makes them, and each of their
    callers runs its numpy lines."""
    try:
        blas = ctypes.CDLL(_blas_path())
        dgemm, ddot = (ctypes.cast(getattr(blas, name), ctypes.c_void_p).value for name in BLAS_SYMBOLS)
        return NumpyCalls(dgemm, ddot, *(address for ufunc in UFUNCS for address in _double_loop(ufunc)))
    except (OSError, AttributeError, ValueError, LookupError):
        return None


_ARRAY, _SIZE, _REAL = ctypes.POINTER(ctypes.c_ubyte), ctypes.c_size_t, ctypes.c_double
_CALLS = ctypes.POINTER(NumpyCalls)
# The argument types of every C function, by its name after "fednoise_";
# each returns an int status, 0 where it wrote its results (forward's 2
# is a partial one, see _local.c). Each array is passed as ref(array),
# and numpy's calls as the NumpyCalls or None.
ARGTYPES = {
    "sgd_step": [_ARRAY] * 3 + [_SIZE] * 4 + [_REAL] * 3,
    "normal_fill": [_ARRAY] * 2 + [_SIZE] * 2 + [_REAL, _ARRAY, _SIZE],
    "forward": [_CALLS] + [_ARRAY] * 2 + [_SIZE] * 4 + [_ARRAY] * 3,
    "backward": [_CALLS] + [_ARRAY] * 5 + [_SIZE] * 4 + [_ARRAY],
    "loss": [_ARRAY] * 7 + [_SIZE] * 4 + [_REAL] * 2 + [_ARRAY] * 3,
    "select": [_CALLS] + [_ARRAY] * 4 + [_SIZE] * 3 + [_ARRAY] * 2 + [_REAL] + [_SIZE] * 2 + [_ARRAY] * 2,
    "refresh": [_CALLS] + [_ARRAY] * 4 + [_SIZE] * 5 + [_ARRAY] * 2 + [ctypes.c_int, _REAL] + [_ARRAY] * 2,
}


def load(name: str):
    """The C function fednoise_<name> as a ctypes function typed from
    ARGTYPES, or None where the library did not load. A call releases the
    GIL."""
    library = _library()
    if library is None:
        return None
    function = getattr(library, f"fednoise_{name}")
    function.argtypes = ARGTYPES[name]
    function.restype = ctypes.c_int
    return function


def checked(kernels, probe: Callable[[object], bytes]):
    """kernels where probe(kernels) gives the bytes of probe(None), the
    numpy lines, else None. numpy promises neither its reduction orders
    nor its Generator streams across versions, so this check, not the C
    code, keeps the bytes equal."""
    if kernels is None or probe(kernels) != probe(None):
        return None
    return kernels
