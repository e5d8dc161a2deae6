"""Span tracing and call counting for fednoise, applied from outside.

`Tracer` replaces each public function of the traced modules with a
timing wrapper at every module attribute that refers to it, so a call
is recorded wherever its caller looks the name up (`from .numkit import
mlp_forward` makes `fednoise.localnode.mlp_forward` a second binding of
the same function). Spans are kept in memory per thread with a parent
index, a round tag and start/end in nanoseconds; `finish()` turns them
into per-layer times, counts and ratios and self-checks the trace.

`CallCounter` is the separate, untimed pass: it counts the Python and
C-builtin calls that `sys.setprofile` sees inside `local_update` and
divides by the SGD steps taken there.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

TRACED_LAYERS = ("bench", "datagen", "noise", "numkit", "localnode", "coordinator", "metrics")

# sgd_step's new-allocation count is identical on every call of a run, so
# inspecting the first calls is enough and keeps np.shares_memory cheap.
SGD_SAMPLE_CALLS = 256

# Share of an experiment's wall time the main thread's top-level spans
# must cover; the rest is the benchmark's own glue between API calls.
MIN_TOP_COVERAGE = 0.95

LOCAL_UPDATE = "localnode.local_update"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _weight_bytes(params) -> int:
    return sum(getattr(params, n).nbytes for n in ("W1", "b1", "W2", "b2"))


def _centroid_bytes(cs) -> int:
    return cs.vectors.nbytes + cs.presence.nbytes if cs.presence.any() else 0


def _owners(obj, depth=3):
    """Base arrays of every ndarray reachable from obj through attributes."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        yield obj
    elif depth and isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _owners(item, depth - 1)
    elif depth and hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _owners(item, depth - 1)


def _new_bytes(inputs, result) -> int:
    """Bytes of result buffers that share no memory with any input buffer."""
    old = list({id(a): a for a in _owners(inputs)}.values())
    total = 0
    for arr in {id(a): a for a in _owners(result)}.values():
        if not any(np.may_share_memory(arr, o) and np.shares_memory(arr, o) for o in old):
            total += arr.nbytes
    return total


class _ThreadState:
    __slots__ = ("ident", "stack", "spans", "round", "counts")

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack: list[int] = []
        # Each span is [name, start_ns, end_ns, parent index, round].
        self.spans: list[list] = []
        self.round = 0
        self.counts: dict[str, int] = defaultdict(int)


# Hooks record counts from arguments and results; they run outside the
# timed interval. pre(state, args, kwargs); post(state, args, kwargs, out).
def _pre_select(st, args, kwargs):
    st.round += 1


def _pre_local_update(st, args, kwargs):
    st.round = int(_arg(args, kwargs, 4, "round_t"))


def _post_local_update(st, args, kwargs, out):
    down = _weight_bytes(_arg(args, kwargs, 2, "global_params"))
    down += _centroid_bytes(_arg(args, kwargs, 3, "global_centroids"))
    st.counts["exchange_bytes"] += down + _weight_bytes(out.params) + _centroid_bytes(out.centroids)


def _pre_forward(st, args, kwargs):
    params, X = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "X")
    d_in, d_h = params.W1.shape
    st.counts["flop"] += 2 * X.shape[0] * d_h * (d_in + params.W2.shape[1])


def _pre_backward(st, args, kwargs):
    params, X = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "X")
    d_in, d_h = params.W1.shape
    st.counts["flop"] += 2 * X.shape[0] * d_h * (d_in + 2 * params.W2.shape[1])


def _post_sgd(st, args, kwargs, out):
    if st.counts["sgd_sampled"] < SGD_SAMPLE_CALLS:
        st.counts["sgd_sampled"] += 1
        st.counts["sgd_new_bytes"] += _new_bytes((args, kwargs), out)


def _post_small_loss(st, args, kwargs, out):
    st.counts["kept"] += len(out)
    st.counts["ranked"] += np.asarray(_arg(args, kwargs, 0, "losses")).size


def _post_confident(st, args, kwargs, out):
    st.counts["confident"] += int(np.count_nonzero(out))
    st.counts["masked"] += out.size


HOOKS = {
    "coordinator.select_clients": (_pre_select, None),
    LOCAL_UPDATE: (_pre_local_update, _post_local_update),
    "numkit.mlp_forward": (_pre_forward, None),
    "numkit.mlp_backward": (_pre_backward, None),
    "numkit.sgd_step": (None, _post_sgd),
    "localnode.small_loss_filter": (None, _post_small_loss),
    "localnode.confident_mask": (None, _post_confident),
}


def public_functions(package):
    """{qualified name: function} for the public functions each layer defines."""
    out = {}
    for layer in TRACED_LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                out[f"{layer}.{name}"] = obj
    return out


def _package_modules(package):
    prefix = package.__name__ + "."
    return [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]


class Tracer:
    """Context manager that records spans for one experiment."""

    def __init__(self, package):
        self.package = package
        self.functions = public_functions(package)
        self.names = list(self.functions)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.main_ident = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, fn, name_id):
        pre, post = HOOKS.get(self.names[name_id], (None, None))
        state = self._state
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            st = state()
            if pre is not None:
                pre(st, args, kwargs)
            stack = st.stack
            rec = [name_id, 0, 0, stack[-1] if stack else -1, st.round]
            stack.append(len(st.spans))
            st.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(st, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        self.main_ident = threading.get_ident()
        wrappers = {fn: self._wrap(fn, i) for i, fn in enumerate(self.functions.values())}
        for module in _package_modules(self.package):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        return False

    def _restore_problems(self) -> list[str]:
        """Every patched attribute must be the original function again."""
        return [
            f"{module.__name__}.{attr} was not restored"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]

    def finish(self, wall_s: float) -> list[str]:
        """Summarise the trace of an experiment that took wall_s seconds into
        `times` (seconds and ratios) and `exact` (counts); return the
        self-check problems."""
        self.times, self.exact, problems = self._summary(wall_s)
        return problems

    def _summary(self, wall_s):
        problems = self._restore_problems()
        if not self._patched:
            problems.append("tracer patched nothing")
        total = defaultdict(int)
        own = defaultdict(int)
        calls = defaultdict(int)
        counts = defaultdict(int)
        names = self.names
        lu = names.index(LOCAL_UPDATE)
        main = None
        for st in self._states:
            for key, value in st.counts.items():
                counts[key] += value
            spans = st.spans
            child = [0] * len(spans)
            for name, start, end, parent, rnd in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name, start, end, parent, rnd) in enumerate(spans):
                dur = end - start
                total[name] += dur
                calls[name] += 1
                self_ns = dur - child[i]
                own[name] += self_ns
                if self_ns < 0:
                    problems.append(f"{names[name]} has negative self time")
            if st.ident == self.main_ident:
                main = st
        if main is None:
            return {}, {}, problems + ["no spans on the main thread"]
        pool = [st.spans for st in self._states if st is not main]
        problems += _pool_nesting_problems(main.spans, pool, names)

        tops = sum(end - start for _, start, end, parent, _ in main.spans if parent < 0)
        coverage = tops / 1e9 / wall_s
        if not MIN_TOP_COVERAGE <= coverage <= 1.0 + 1e-9:
            problems.append(f"top-level spans cover {coverage:.4f} of the wall time")

        phase_ns, inside_ns, rounds = _client_phase(main.spans, names)
        if rounds == 0:
            problems.append("no complete round (select_clients .. fedavg) in the trace")

        def t(q):
            return total[names.index(q)] / 1e9 if q in names else 0.0

        times = {
            f"{q}_s": t(q)
            for q in (
                "bench.build_datasets",
                "datagen.partition_iid",
                "noise.apply_noise",
                "numkit.mlp_forward",
                "numkit.mlp_backward",
                "numkit.sgd_step",
                LOCAL_UPDATE,
                "localnode.total_loss_and_grads",
                "localnode.per_example_ce",
                "localnode.small_loss_filter",
                "localnode.similarity_labels",
                "localnode.class_mean_features",
                "localnode.blend_with_global",
                "localnode.global_pseudo_labels",
                "coordinator.fedavg",
                "coordinator.aggregate_global_centroids",
                "coordinator.evaluate_accuracy",
                "metrics.weight_divergence",
                "metrics.write_csv",
            )
        }
        times["localnode.local_update_self_s"] = own[lu] / 1e9
        run = names.index("coordinator.run_training")
        times["coordinator.client_phase_s"] = phase_ns / 1e9
        # The coordinator's own round-loop code: run_training's self time
        # without the client phase, which pool waiting would otherwise fill.
        times["coordinator.round_self_s"] = (own[run] - (phase_ns - inside_ns)) / 1e9
        times["coordinator.pool_overlap"] = total[lu] / phase_ns if phase_ns else 0.0
        fwd_bwd = t("numkit.mlp_forward") + t("numkit.mlp_backward")
        times["numkit.gflop_per_s"] = counts["flop"] / 1e9 / fwd_bwd if fwd_bwd else 0.0

        exact = {
            "numkit.mlp_forward_calls": calls[names.index("numkit.mlp_forward")],
            "numkit.sgd_step_calls": calls[names.index("numkit.sgd_step")],
            "localnode.local_update_calls": calls[lu],
            "numkit.gflop": counts["flop"] / 1e9,
            "numkit.sgd_step_new_bytes": (
                counts["sgd_new_bytes"] / counts["sgd_sampled"] if counts["sgd_sampled"] else 0.0
            ),
            "coordinator.exchange_bytes_per_round": counts["exchange_bytes"] / rounds if rounds else 0.0,
            # No ranking or masking happened (ce_baseline) means nothing was dropped.
            "localnode.small_loss_keep_ratio": counts["kept"] / counts["ranked"] if counts["ranked"] else 1.0,
            "localnode.confident_ratio": counts["confident"] / counts["masked"] if counts["masked"] else 1.0,
        }
        return times, exact, problems


def _pool_nesting_problems(main, pool, names) -> list[str]:
    """Work on a pool thread must sit under a local_update, and each
    local_update must run inside its own round's client phase on the main
    thread: after that round's select_clients returns, before its fedavg."""
    lu = names.index(LOCAL_UPDATE)
    windows = {rnd: (lo, hi) for lo, hi, rnd in _round_windows(main, names)}
    problems = []
    for spans in [main] + pool:
        for name, start, end, parent, rnd in spans:
            if parent < 0 and name != lu and spans is not main:
                problems.append(f"{names[name]} runs on a pool thread outside local_update")
            elif name == lu:
                lo, hi = windows.get(rnd, (0, -1))
                if not lo <= start <= end <= hi:
                    problems.append(f"local_update of round {rnd} runs outside that round's client phase")
    return problems


def _round_windows(spans, names):
    """(select_clients return, fedavg entry, round) for each complete round
    of the main thread's spans."""
    select, fedavg = names.index("coordinator.select_clients"), names.index("coordinator.fedavg")
    opened = {}
    windows = []
    for name, start, end, parent, rnd in spans:
        if name == select:
            opened[rnd] = end
        elif name == fedavg and rnd in opened:
            windows.append((opened.pop(rnd), start, rnd))
    return windows


def _client_phase(spans, names):
    """Σ (fedavg entry - select_clients return) per round, main-thread work
    inside those windows, and the number of complete rounds."""
    select, fedavg = names.index("coordinator.select_clients"), names.index("coordinator.fedavg")
    run = names.index("coordinator.run_training")
    run_spans = {i for i, s in enumerate(spans) if s[0] == run}
    windows = [(lo, hi) for lo, hi, _ in _round_windows(spans, names)]
    inside = 0
    for name, start, end, parent, rnd in spans:
        if parent in run_spans and name not in (select, fedavg):
            for lo, hi in windows:
                if lo <= start and end <= hi:
                    inside += end - start
                    break
    return sum(hi - lo for lo, hi in windows), inside, len(windows)


class CallCounter:
    """Counts profiler call events inside local_update, per SGD step."""

    def __init__(self, local_update, sgd_step):
        self._outer = local_update.__code__
        self._step = sgd_step.__code__
        self._local = threading.local()
        self._tallies: list[list[int]] = []
        self._lock = threading.Lock()

    def _profile(self, frame, event, arg):
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = [0, 0, 0]  # depth, calls, steps
            with self._lock:
                self._tallies.append(tally)
        if event == "call":
            code = frame.f_code
            if code is self._outer:
                tally[0] += 1
            elif tally[0]:
                tally[1] += 1
                if code is self._step:
                    tally[2] += 1
        elif event == "c_call":
            if tally[0]:
                tally[1] += 1
        elif event == "return" and frame.f_code is self._outer:
            tally[0] -= 1

    def __enter__(self):
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)
        return False

    def finish(self, wall_s: float) -> list[str]:
        return [] if any(t[2] for t in self._tallies) else ["no SGD step inside local_update"]

    def calls_per_step(self) -> float:
        calls = sum(t[1] for t in self._tallies)
        steps = sum(t[2] for t in self._tallies)
        return calls / steps if steps else 0.0
