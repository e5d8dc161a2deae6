"""The fused SGD step of _sgd.c, built with the system C compiler when
fednoise is first imported, and loaded through ctypes.

The compiler is $CC, else `cc`. The library is cached under
${XDG_CACHE_HOME:-~/.cache}/fednoise, named by a SHA-256 of the source,
the compiler's --version, the flags and the host CPU, so a -march=native
build made for another CPU is never loaded. Where that directory cannot
be made or written, the library is built in a private temporary one.
If any step fails there is no kernel, and numkit.sgd_step runs its numpy
body, which gives the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sgd.c")
# -ffp-contract=off keeps a*b + c two roundings, as in numpy. Never add
# -ffast-math or -Ofast: they reassociate and may set flush-to-zero for
# the whole process.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
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
    """Compile SOURCE to a temporary file beside path, then move it there."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        _run(compiler + [*FLAGS, "-o", tmp, SOURCE])
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _bind(path: str):
    """The kernel of the library at path; pass each array as the c_double
    at its start (ctypes.c_double.from_buffer), which ctypes passes by
    reference."""
    step = ctypes.CDLL(path).fednoise_sgd_step
    step.argtypes = [ctypes.POINTER(ctypes.c_double)] * 3 + [ctypes.c_size_t] * 4 + [ctypes.c_double] * 3
    step.restype = ctypes.c_int
    return step


def load_sgd_kernel():
    """fednoise_sgd_step of _sgd.c as a ctypes function, built or taken from
    the cache; None where no compiler runs or any step fails."""
    try:
        compiler = shlex.split(os.environ.get("CC") or "cc")
        with open(SOURCE, "rb") as f:
            key = hashlib.sha256(
                b"\0".join((f.read(), _run(compiler + ["--version"]), " ".join(FLAGS).encode(), _host_cpu()))
            ).hexdigest()
        name = f"sgd-{key}.so"
        cache = _cache_dir()
        if cache is None:
            with tempfile.TemporaryDirectory(prefix="fednoise-") as private:
                _build(compiler, os.path.join(private, name))
                return _bind(os.path.join(private, name))
        path = os.path.join(cache, name)
        if not os.path.exists(path):
            _build(compiler, path)
        return _bind(path)
    except (OSError, ValueError, AttributeError, subprocess.SubprocessError):
        return None
