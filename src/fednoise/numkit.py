"""Dense float64 math for a two-layer MLP with momentum SGD.

The network is a feature extractor (W1, b1) with a tanh hidden layer
followed by a linear classifier (W2, b2). The post-activation hidden
layer is the feature tap used by all centroid machinery. tanh is used
instead of a hard-threshold activation so finite-difference gradient
checks stay clean.

Parameters, gradients and the momentum buffer are flat float64 vectors
in one layout: W1, b1, W2, b2, each block row-major. Only sgd_step
writes in place, and only into the parameters and the buffer it is given.

The forward and backward passes run the C functions of _local.c where
they load and pass their probe (_probe), and the SGD step that of
_sgd.c; otherwise, or for arrays those cannot take, their numpy lines,
which give the same bits.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _native
from ._native import ref
from .errors import ContractViolation, TrainingDiverged

# Norms below this are treated as zero vectors by cosine_similarity.
ZERO_NORM_EPS = 1e-12

# The C step of _sgd.c, built at import (before any process forks, so
# workers inherit it), or None, where sgd_step runs its numpy body.
_sgd_kernel = _native.load("sgd_step")


class MlpKernels(NamedTuple):
    """The forward and backward passes of _local.c (their argument types
    in _native.ARGTYPES), which make numpy's own calls, _calls."""

    forward: Callable
    backward: Callable


# numpy's own calls, or None, where there are no MlpKernels.
_calls = _native.numpy_calls()
# The passes of _local.c, bound at the end of this module once they pass
# their probe, or None, where the forward and backward passes run their
# numpy lines.
_mlp = None

# The probe's (B, d_in, d_h, C) shapes: a desk batch, a 784-d batch, a
# ragged last batch and the smallest shape numpy hands to gemm.
PROBE_SHAPES = ((50, 10, 64, 4), (50, 784, 64, 10), (7, 784, 64, 10), (2, 2, 2, 2))
PROBE_SEED = 11

# What passing an argument that the C functions cannot read as numpy does
# raises: ref takes only a C-contiguous, writeable, non-empty array. The
# caller then runs its numpy lines.
_UNFIT = (TypeError, ValueError)


def _blocks(vec: np.ndarray, d_in: int, d_h: int, n_classes: int) -> tuple[np.ndarray, ...]:
    """W1, b1, W2, b2 as reshaped views into a vector of the flat layout."""
    n1 = d_in * d_h
    n2 = n1 + d_h
    n3 = n2 + d_h * n_classes
    return (
        vec[:n1].reshape(d_in, d_h),
        vec[n1:n2],
        vec[n2:n3].reshape(d_h, n_classes),
        vec[n3:],
    )


def _block(i: int, doc: str) -> property:
    """A read-only attribute holding a view into theta; write through it
    with `p.W2[...] = x`."""
    return property(lambda self: self._views[i], doc=doc)


class ModelParams:
    """Weights of the two-layer MLP, owned by one contiguous vector `theta`.

    W1, b1, W2 and b2 are views into theta: writing an element of one
    writes theta, and the reverse.
    """

    W1 = _block(0, "(d_in, d_h) feature weights")
    b1 = _block(1, "(d_h,) feature biases")
    W2 = _block(2, "(d_h, C) classifier weights")
    b2 = _block(3, "(C,) classifier biases")

    def __init__(self, theta: np.ndarray, d_in: int, d_h: int, n_classes: int):
        size = d_in * d_h + d_h + d_h * n_classes + n_classes
        if theta.shape != (size,) or theta.dtype != np.float64:
            raise ContractViolation(
                f"ModelParams: theta must be float64 of shape ({size},), "
                f"got {theta.dtype} {theta.shape}"
            )
        self.theta = theta
        self._views = _blocks(theta, d_in, d_h, n_classes)

    @classmethod
    def zeros(cls, d_in: int, d_h: int, n_classes: int) -> "ModelParams":
        return cls(np.zeros(d_in * d_h + d_h + d_h * n_classes + n_classes), d_in, d_h, n_classes)

    @property
    def d_in(self) -> int:
        return self.W1.shape[0]

    @property
    def d_h(self) -> int:
        return self.W1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.W2.shape[1]

    def blocks(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """W1, b1, W2, b2 blocks of a gradient or buffer laid out like theta."""
        return _blocks(vec, self.d_in, self.d_h, self.n_classes)

    def copy(self) -> "ModelParams":
        return ModelParams(self.theta.copy(), self.d_in, self.d_h, self.n_classes)

    def __reduce__(self):
        # Rebuild through __init__ so pickled and deep-copied params get
        # views into their own theta, not detached copies of the blocks.
        return ModelParams, (self.theta, self.d_in, self.d_h, self.n_classes)


@dataclass
class ForwardRecord:
    """Activations of one forward pass over a batch."""

    hidden: np.ndarray  # (B, d_h) post-tanh features
    probs: np.ndarray  # (B, C) softmax rows
    logp: np.ndarray  # (B, C) log-softmax rows, from the same exponentials as probs


def init_params(d_in: int, d_h: int, n_classes: int, rng: np.random.Generator) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); zero biases."""
    params = ModelParams.zeros(d_in, d_h, n_classes)
    params.W1[...] = rng.standard_normal((d_in, d_h)) / np.sqrt(d_in)
    params.W2[...] = rng.standard_normal((d_h, n_classes)) / np.sqrt(d_h)
    return params


def _softmax_and_log(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax and log-softmax from one set of exponentials,
    stabilized by max subtraction; the log is finite for finite logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    return e / total, z - np.log(total)


def _forward_kernel(params: ModelParams, X: np.ndarray, outputs: int) -> tuple | None:
    """The hidden layer, the logits (outputs 2) or the log-softmax (3),
    and the softmax rows (3) from _local.c's forward pass, None for each
    not asked for; or None where it is not bound or cannot take X."""
    if _mlp is None or X.dtype != np.float64 or X.ndim != 2 or X.shape[1] != params.d_in:
        return None
    B, (d_in, d_h), C = len(X), params.W1.shape, len(params.b2)
    # A side of 1, where numpy's matmul takes no gemm, the C pass refuses:
    # numpy's lines run without calling it.
    if min(B, d_in, d_h, C) < 2:
        return None
    hidden, logits, probs = np.empty((B, d_h)), None, None
    if outputs > 1:
        logits = np.empty((B, C))
    if outputs > 2:
        probs = np.empty((B, C))
    try:
        status = _mlp.forward(
            _calls, ref(X), ref(params.theta), B, d_in, d_h, C, ref(hidden),
            None if logits is None else ref(logits), None if probs is None else ref(probs),
        )
    except _UNFIT:
        return None
    return None if status else (hidden, logits, probs)


def mlp_features(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """The hidden layer of every forward pass: tanh(X W1 + b1), bias and tanh in place."""
    if X.ndim != 2 or X.shape[1] != params.d_in:
        raise ContractViolation(f"forward: X has shape {X.shape}, expected (B, {params.d_in})")
    out = _forward_kernel(params, X, 1)
    if out is not None:
        return out[0]
    hidden = X @ params.W1
    hidden += params.b1
    return np.tanh(hidden, out=hidden)


def mlp_logits(params: ModelParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden features and the classifier head's logits, hidden W2 + b2."""
    out = _forward_kernel(params, X, 2)
    if out is not None:
        return out[:2]
    hidden = mlp_features(params, X)
    return hidden, hidden @ params.W2 + params.b2


def mlp_forward(params: ModelParams, X: np.ndarray) -> ForwardRecord:
    """Forward pass: mlp_logits, then the softmax and log-softmax of the logits."""
    out = _forward_kernel(params, X, 3)
    if out is not None:
        hidden, logp, probs = out
        return ForwardRecord(hidden=hidden, probs=probs, logp=logp)
    hidden, logits = mlp_logits(params, X)
    probs, logp = _softmax_and_log(logits)
    return ForwardRecord(hidden=hidden, probs=probs, logp=logp)


def mlp_backward(
    params: ModelParams,
    X: np.ndarray,
    rec: ForwardRecord,
    d_logits: np.ndarray,
    d_hidden: np.ndarray,
) -> np.ndarray:
    """Exact parameter gradient, laid out like params.theta, for a scalar
    loss with the given output partials.

    d_logits is dLoss/dlogits; d_hidden is the direct dLoss/dhidden term
    (the centroid loss path), added to the classifier backprop path.
    """
    B, (d_in, d_h), C = X.shape[0], params.W1.shape, len(params.b2)
    if d_logits.shape != (B, C):
        raise ContractViolation(f"mlp_backward: d_logits shape {d_logits.shape} != ({B}, {C})")
    if d_hidden.shape != (B, d_h):
        raise ContractViolation(f"mlp_backward: d_hidden shape {d_hidden.shape} != ({B}, {d_h})")
    grads = np.empty_like(params.theta)
    hidden = rec.hidden
    if (
        _mlp is not None
        and min(B, d_in, d_h, C) >= 2  # as in _forward_kernel
        and X.dtype == hidden.dtype == d_logits.dtype == d_hidden.dtype == np.float64
        and X.shape == (B, d_in)
        and hidden.shape == (B, d_h)
    ):
        try:
            arrays = ref(X), ref(params.theta), ref(hidden), ref(d_logits), ref(d_hidden)
            if not _mlp.backward(_calls, *arrays, B, d_in, d_h, C, ref(grads)):
                return grads
        except _UNFIT:
            pass
    dW1, db1, dW2, db2 = params.blocks(grads)
    np.matmul(rec.hidden.T, d_logits, out=dW2)
    d_logits.sum(axis=0, out=db2)
    dh = d_logits @ params.W2.T + d_hidden
    dz1 = dh * (1.0 - rec.hidden**2)  # tanh'
    np.matmul(X.T, dz1, out=dW1)
    dz1.sum(axis=0, out=db1)
    return grads


def sgd_step(
    params: ModelParams,
    grads: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """Momentum SGD in place: v <- momentum*v + g + wd*w; w <- w - lr*v.

    grads and velocity are laid out like params.theta. Weight decay is
    not applied to biases. A non-finite gradient entry raises
    TrainingDiverged and writes nothing. The step runs in the C kernel
    where one was built; the numpy body below is its reference, and the
    two give the same bits.
    """
    theta = params.theta
    if lr <= 0:
        raise ContractViolation(f"sgd_step: lr must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ContractViolation(f"sgd_step: momentum must be in [0,1), got {momentum}")
    if grads.shape != theta.shape or velocity.shape != theta.shape:
        raise ContractViolation(
            f"sgd_step: grads {grads.shape} and velocity {velocity.shape} "
            f"must match theta {theta.shape}"
        )
    for name, arr in (("theta", theta), ("grads", grads), ("velocity", velocity)):
        if arr.dtype != np.float64 or not (arr.flags.c_contiguous and arr.flags.writeable):
            raise ContractViolation(f"sgd_step: {name} must be a C-contiguous, writeable float64 array")
    if (
        np.may_share_memory(theta, grads)
        or np.may_share_memory(theta, velocity)
        or np.may_share_memory(grads, velocity)
    ):
        raise ContractViolation("sgd_step: theta, grads and velocity must not overlap")
    if _sgd_kernel is not None:
        n1 = params.W1.size
        n2 = n1 + params.b1.size
        ends = (n1, n2, n2 + params.W2.size, theta.size)
        if _sgd_kernel(ref(theta), ref(velocity), ref(grads), *ends, lr, momentum, weight_decay):
            raise TrainingDiverged("sgd_step: non-finite gradient entry")
        return
    if not np.isfinite(grads).all():
        raise TrainingDiverged("sgd_step: non-finite gradient entry")
    velocity *= momentum
    velocity += grads
    vW1, _, vW2, _ = params.blocks(velocity)
    vW1 += weight_decay * params.W1
    vW2 += weight_decay * params.W2
    theta -= lr * velocity


def cosine_similarity(U: np.ndarray, V: np.ndarray) -> np.ndarray | float:
    """Cosines between the rows of U and the rows of V: (..., n, d) and
    (..., m, d) give (..., n, m), the leading axes broadcast; two vectors
    give a float.

    The dots are U @ V^T: a GEMM for all pairs, and for stacked one-row
    pairs one BLAS dot each, the bits of u @ v. A norm is the root of its
    row's dot with itself. A pair with a norm below ZERO_NORM_EPS has
    cosine 0; a row with a NaN entry gives NaN, even against a zero row.
    """
    if min(U.ndim, V.ndim) < 1 or U.shape[-1] != V.shape[-1] or (U.ndim == 1) != (V.ndim == 1):
        raise ContractViolation(f"cosine_similarity: shapes {U.shape} and {V.shape} differ")
    if U.ndim == 1:
        return float(cosine_similarity(U[None], V[None])[0, 0])
    dots = U @ np.swapaxes(V, -1, -2)
    nu, nv = (np.sqrt((A[..., None, :] @ A[..., :, None])[..., 0, 0]) for A in (U, V))
    nu, nv = nu[..., :, None], nv[..., None, :]
    zero = np.minimum(nu, nv) < ZERO_NORM_EPS  # False where either norm is NaN
    return np.divide(dots, nu * nv, out=np.zeros(dots.shape), where=~zero)


def _probe(kernels: MlpKernels | None) -> bytes:
    """Every result of the forward and backward passes, with _mlp bound to
    kernels, on fixed inputs, as bytes: each of PROBE_SHAPES, with -0.0
    entries, a row that saturates tanh, a row with an inf entry, logits
    of +-40 and of +-inf, and a NaN row; the backward pass with
    d_hidden zero (no centroid term) and not."""
    global _mlp
    bound, _mlp = _mlp, kernels
    out = []
    try:
        with np.errstate(all="ignore"):  # numpy's lines meet inf and NaN
            for B, d_in, d_h, C in PROBE_SHAPES:
                rng = np.random.default_rng(PROBE_SEED)
                params = init_params(d_in, d_h, C, rng)
                params.b1[...] = rng.standard_normal(d_h)
                params.b2[...] = rng.uniform(-40.0, 40.0, C)
                X = rng.standard_normal((B, d_in))
                X[rng.random(X.shape) < 0.1] = -0.0
                X[0] = -0.0
                X[1] *= 1e3
                X[-1, 0] = np.inf
                spoilt, infinite = X.copy(), params.copy()
                spoilt[1, -1] = np.nan
                infinite.b2[:2] = np.inf, -np.inf
                for p, x in ((params, X), (params, spoilt), (infinite, X)):
                    rec = mlp_forward(p, x)
                    out += [*astuple(rec), *mlp_logits(p, x), mlp_features(p, x)]
                rec = mlp_forward(params, X)
                d_logits = rng.standard_normal((B, C))
                d_logits[0] = -0.0
                partials = rng.standard_normal((B, d_h))
                partials[rng.random((B, d_h)) < 0.1] = -0.0
                for d_hidden in (np.zeros((B, d_h)), partials):
                    out.append(mlp_backward(params, X, rec, d_logits, d_hidden))
        return b"".join(a.tobytes() for a in out)
    finally:
        _mlp = bound


def _loaded() -> MlpKernels | None:
    """The passes of _local.c, or None where the library did not load or
    numpy's calls were not found."""
    functions = [_native.load(name) for name in MlpKernels._fields]
    return None if _calls is None or None in functions else MlpKernels(*functions)


_mlp = _native.checked(_loaded(), _probe)
