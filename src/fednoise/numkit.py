"""Dense float64 math for a two-layer MLP with momentum SGD.

The network is a feature extractor (W1, b1) with a tanh hidden layer
followed by a linear classifier (W2, b2). The post-activation hidden
layer is the feature tap used by all centroid machinery. tanh is used
instead of a hard-threshold activation so finite-difference gradient
checks stay clean.

Parameters, gradients and the momentum buffer are flat float64 vectors
in one layout: W1, b1, W2, b2, each block row-major. Only sgd_step
writes in place, and only into the parameters and the buffer it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from ._native import ref
from .errors import ContractViolation, TrainingDiverged

# Norms below this are treated as zero vectors by cosine_similarity.
ZERO_NORM_EPS = 1e-12

# The C step of _sgd.c, built at import (before any process forks, so
# workers inherit it), or None, where sgd_step runs its numpy body.
_sgd_kernel = _native.load("sgd_step")


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


def mlp_features(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """The hidden layer of every forward pass: tanh(X W1 + b1), bias and tanh in place."""
    if X.ndim != 2 or X.shape[1] != params.d_in:
        raise ContractViolation(f"forward: X has shape {X.shape}, expected (B, {params.d_in})")
    hidden = X @ params.W1
    hidden += params.b1
    return np.tanh(hidden, out=hidden)


def mlp_logits(params: ModelParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden features and the classifier head's logits, hidden W2 + b2."""
    hidden = mlp_features(params, X)
    return hidden, hidden @ params.W2 + params.b2


def mlp_forward(params: ModelParams, X: np.ndarray) -> ForwardRecord:
    """Forward pass: mlp_logits, then the softmax and log-softmax of the logits."""
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
    B = X.shape[0]
    if d_logits.shape != (B, params.n_classes):
        raise ContractViolation(
            f"mlp_backward: d_logits shape {d_logits.shape} != ({B}, {params.n_classes})"
        )
    if d_hidden.shape != (B, params.d_h):
        raise ContractViolation(
            f"mlp_backward: d_hidden shape {d_hidden.shape} != ({B}, {params.d_h})"
        )
    grads = np.empty_like(params.theta)
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
