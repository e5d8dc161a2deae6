"""The C kernels, built into one library with the system C compiler when
fednoise is first imported, and loaded through ctypes: the fused SGD
step of _sgd.c (numkit.sgd_step), the blob draw of _normal.c
(datagen.make_blob_split) and the local step's bookkeeping of _local.c
(localnode).

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
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = tuple(os.path.join(HERE, name) for name in ("_sgd.c", "_normal.c", "_local.c"))
# -ffp-contract=off keeps a*b + c two roundings, as in numpy. Never add
# -ffast-math or -Ofast: they reassociate and may set flush-to-zero for
# the whole process.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
# After the sources, for linkers that drop a library no earlier input needs.
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120
# The /proc/cpuinfo entries that name a CPU and its instruction sets
# (x86, then ARM); the others vary with time or between cores.
CPU_KEYS = (
    b"vendor_id", b"cpu family", b"model", b"model name", b"flags",
    b"CPU implementer", b"CPU architecture", b"CPU variant", b"CPU part", b"Features",
)


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


def _function(name: str, argtypes: list, restype, keep_gil: bool = False):
    """The library's function of that name, typed; None without the library.
    A call releases the GIL unless keep_gil."""
    library = _library()
    if library is None:
        return None
    if keep_gil:
        library = ctypes.PyDLL(library._name)
    function = getattr(library, name)
    function.argtypes = argtypes
    function.restype = restype
    return function


def load_sgd_kernel():
    """fednoise_sgd_step of _sgd.c as a ctypes function, or None; pass each
    array as the c_double at its start (ctypes.c_double.from_buffer),
    which ctypes passes by reference."""
    return _function(
        "fednoise_sgd_step",
        [ctypes.POINTER(ctypes.c_double)] * 3 + [ctypes.c_size_t] * 4 + [ctypes.c_double] * 3,
        ctypes.c_int,
    )


def load_normal_kernel():
    """fednoise_normal_fill of _normal.c as a ctypes function, or None:
    (state, out, rows, cols, spread, center), each array passed as the
    address of its first element (ndarray.ctypes.data)."""
    return _function(
        "fednoise_normal_fill",
        [ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_size_t] * 2 + [ctypes.c_double, ctypes.c_void_p],
        None,
    )


class LocalKernels(NamedTuple):
    """The functions of _local.c, each array passed as ref(array)."""

    loss: Callable
    class_means: Callable
    blend: Callable
    small_loss: Callable


# The first byte of an array as a ctypes object, which a pointer argument
# takes by reference. It raises TypeError, or ValueError, unless the array
# is C-contiguous, writeable and not empty.
ref = ctypes.c_ubyte.from_buffer


def load_local_kernels() -> LocalKernels | None:
    """The functions of _local.c as ctypes functions, or None. Their calls
    keep the GIL: each takes microseconds, about what handing the GIL to
    another thread and back costs."""
    if _library() is None:
        return None
    array, size, real = ctypes.POINTER(ctypes.c_ubyte), ctypes.c_size_t, ctypes.c_double
    argtypes = {
        "loss": [array] * 7 + [size] * 4 + [real] * 2 + [array] * 3,
        "class_means": [array] * 2 + [size] * 3 + [array] * 2,
        "blend": [array] * 5 + [size] * 2 + [array] * 2,
        "small_loss": [array] + [size] * 2 + [array],
    }
    return LocalKernels(
        *(_function(f"fednoise_{name}", argtypes[name], ctypes.c_int, keep_gil=True) for name in LocalKernels._fields)
    )
