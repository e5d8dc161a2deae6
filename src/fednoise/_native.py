"""The C kernels, built into one library with the system C compiler when
fednoise is first imported, and loaded through ctypes: the fused SGD
step of _sgd.c (numkit.sgd_step), the blob draw of _normal.c
(datagen.make_blob_split) and the local step's bookkeeping of _local.c
(localnode). Each caller binds its functions with load; datagen and
localnode keep theirs only where their probe passes checked.

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

_ARRAY, _SIZE, _REAL = ctypes.POINTER(ctypes.c_ubyte), ctypes.c_size_t, ctypes.c_double
# The argument types of every C function, by its name after "fednoise_";
# each returns an int status, 0 where it wrote its results. Each array is
# passed as ref(array).
ARGTYPES = {
    "sgd_step": [_ARRAY] * 3 + [_SIZE] * 4 + [_REAL] * 3,
    "normal_fill": [_ARRAY] * 2 + [_SIZE] * 2 + [_REAL, _ARRAY, _SIZE],
    "loss": [_ARRAY] * 7 + [_SIZE] * 4 + [_REAL] * 2 + [_ARRAY] * 3,
    "class_means": [_ARRAY] * 2 + [_SIZE] * 3 + [_ARRAY] * 2,
    "blend": [_ARRAY] * 5 + [_SIZE] * 2 + [_ARRAY] * 2,
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
