"""Small trainable feature extractor with hand-coded reverse-mode gradients.

A fixed-architecture MLP over descriptors: tanh hidden layers, linear
output, double precision throughout. Each model keeps its parameters in
one vector with named block views; backward returns one gradient vector
in the same layout. Forward passes cache the activations needed by
backward; parameter updates bump a version counter so a stale cache
cannot silently feed backward. Includes a linear classifier head, an
Adam optimizer with a linear learning-rate schedule and decoupled weight
decay, and a named-tensor checkpoint format.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .data import decode_ascii

ParamDict = dict[str, np.ndarray]


class StaleCacheError(RuntimeError):
    """Backward was handed a cache from before a parameter update."""


def _init_linear(rng, fan_in: int, fan_out: int) -> tuple[np.ndarray, np.ndarray]:
    w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
    return w, np.zeros(fan_out)


class Parameters:
    """Named parameter blocks stored as one contiguous float64 vector.

    theta holds the blocks in insertion order and params[name] is a
    reshaped view of the block's slice, so a block written in place writes
    theta and a whole-vector update moves every block. Blocks are never
    rebound.
    """

    def __init__(self, blocks: ParamDict):
        self.theta = np.concatenate([np.ravel(b) for b in blocks.values()],
                                    dtype=np.float64)
        self.slices: dict[str, slice] = {}
        self.params: ParamDict = {}
        lo = 0
        for name, block in blocks.items():
            self.slices[name] = slice(lo, lo + block.size)
            self.params[name] = self.theta[self.slices[name]].reshape(block.shape)
            lo += block.size
        self.version = 0

    def __setstate__(self, state: dict) -> None:
        """For copy.deepcopy and pickle: the blocks view the new theta, not
        copies of their own."""
        self.__dict__.update(state)
        self.params = {k: self.theta[s].reshape(self.params[k].shape)
                       for k, s in self.slices.items()}

    def mark_updated(self) -> None:
        self.version += 1

    def set_params(self, params: ParamDict) -> None:
        for k, v in params.items():
            if k not in self.params or self.params[k].shape != v.shape:
                raise ValueError(f"parameter block {k!r} missing or shape-incongruent")
            self.params[k][...] = v
        self.mark_updated()


@dataclass
class ForwardCache:
    activations: list[np.ndarray]   # [input, hidden post-tanh ..., output]
    version: int


class MLP(Parameters):
    """Feature extractor: layer_dims = [d_in, hidden..., feature_dim]."""

    def __init__(self, layer_dims: list[int], seed: int = 0):
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dimensions")
        self.layer_dims = list(layer_dims)
        rng = np.random.default_rng(seed)
        blocks: ParamDict = {}
        for i, (a, b) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
            blocks[f"layer{i}.W"], blocks[f"layer{i}.b"] = _init_linear(rng, a, b)
        super().__init__(blocks)

    @classmethod
    def from_checkpoint(cls, path) -> "MLP":
        """The extractor saved at path, its layer dimensions read off the
        shapes of its layer{i}.W blocks; a mismatch raises ValueError."""
        params = load_checkpoint(path)
        n = len(params) // 2
        layout = {f"layer{i}.{p}" for i in range(n) for p in "Wb"}
        weights = [params.get(f"layer{i}.W") for i in range(n)]
        try:
            if not n or set(params) != layout or any(w.ndim != 2 for w in weights):
                raise ValueError(f"checkpoint blocks {sorted(params)} are not an MLP's")
            model = cls([weights[0].shape[0], *(w.shape[1] for w in weights)])
            model.set_params(params)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        return model

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def forward(self, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Map an (n, d_in) batch to (n, feature_dim) features.

        Returns the features together with the cache backward needs.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ValueError(f"batch shape {x.shape} incompatible with d_in={self.d_in}")
        acts = [x]
        h = x
        for i in range(self.n_layers):
            # one array per layer: the bias and tanh act in the matmul's
            # output, the same operations as tanh(h @ W + b)
            h = h @ self.params[f"layer{i}.W"]
            h += self.params[f"layer{i}.b"]
            if i < self.n_layers - 1:
                np.tanh(h, out=h)
            acts.append(h)
        return h, ForwardCache(acts, self.version)

    def features(self, batch: np.ndarray) -> np.ndarray:
        return self.forward(batch)[0]

    def backward(self, cache: ForwardCache, grad_output: np.ndarray) -> np.ndarray:
        """Exact gradient of a scalar loss whose feature-gradient is
        grad_output, as one vector in the layout of theta."""
        if cache.version != self.version:
            raise StaleCacheError(
                f"cache from version {cache.version}, parameters at {self.version}"
            )
        g = np.asarray(grad_output, dtype=np.float64)
        out = cache.activations[-1]
        if g.shape != out.shape:
            raise ValueError(f"grad_output shape {g.shape} != output shape {out.shape}")
        grad = np.empty_like(self.theta)
        for i in range(self.n_layers - 1, -1, -1):
            a_prev = cache.activations[i]
            grad[self.slices[f"layer{i}.W"]] = (a_prev.T @ g).ravel()
            grad[self.slices[f"layer{i}.b"]] = g.sum(axis=0)
            if i > 0:
                g = (g @ self.params[f"layer{i}.W"].T) * (1.0 - a_prev**2)
        return grad


class ClassifierHead(Parameters):
    """Linear map features -> K logits."""

    def __init__(self, feature_dim: int, n_classes: int, seed: int = 0):
        if n_classes < 1:
            raise ValueError("head needs at least one class")
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        w, b = _init_linear(np.random.default_rng(seed), feature_dim, n_classes)
        super().__init__({"W": w, "b": b})
        self.grad = np.empty_like(self.theta)

    def forward(self, features: np.ndarray) -> np.ndarray:
        if features.shape[1] != self.feature_dim:
            raise ValueError("feature dimension mismatch")
        logits = features @ self.params["W"]
        logits += self.params["b"]
        return logits

    def backward(self, features: np.ndarray, grad_logits: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(gradient vector in the layout of theta, gradient of the features).
        The vector is self.grad, built once and overwritten by each call."""
        grad = self.grad
        np.matmul(features.T, grad_logits,
                  out=grad[self.slices["W"]].reshape(self.params["W"].shape))
        grad_logits.sum(axis=0, out=grad[self.slices["b"]])
        return grad, grad_logits @ self.params["W"].T


# ---------------------------------------------------------------------------
# Adam with linear LR schedule
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Hyper-parameters and the two moment vectors of one model's Adam."""

    m: np.ndarray
    v: np.ndarray
    decay: np.ndarray               # True on the entries of weight matrices
    lr_initial: float
    weight_decay: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    # adam_step's work vectors: a step allocates no array of theta's size
    work: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.work = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def of(cls, model: Parameters, **hyper) -> "AdamState":
        """Fresh zero moments for model; blocks named *W are decayed."""
        decay = np.zeros(model.theta.size, dtype=bool)
        for name, s in model.slices.items():
            decay[s] = name.endswith("W")
        return cls(np.zeros_like(model.theta), np.zeros_like(model.theta), decay, **hyper)


def adam_step(model: Parameters, grad: np.ndarray, state: AdamState, step: int,
              schedule_position: float) -> None:
    """One Adam update of model.theta in place, bias-corrected for step
    (counted from 1).

    Effective learning rate is lr_initial * (1 - schedule_position).
    Decoupled weight decay shrinks weight matrices, never biases, and is
    not scheduled: at schedule position 1 the only remaining movement is
    the decay itself.
    """
    if not 0.0 <= schedule_position <= 1.0:
        raise ValueError("schedule_position must lie in [0, 1]")
    if step < 1:
        raise ValueError("step counts from 1")
    if grad.shape != model.theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape "
                         f"{model.theta.shape}")
    finite = np.isfinite(grad)
    if not finite.all():
        first = np.argmin(finite)
        block = next(k for k, s in model.slices.items() if s.start <= first < s.stop)
        raise ValueError(f"non-finite gradient in parameter block {block!r}")

    lr_eff = state.lr_initial * (1.0 - schedule_position)
    bc1 = 1.0 - state.beta1**step
    bc2 = 1.0 - state.beta2**step
    # in place, each rounding in the order of m = b1*m + (1-b1)*g,
    # v = b2*v + (1-b2)*g**2, theta -= lr*m_hat / (sqrt(v_hat) + eps) and
    # theta -= lr_initial*weight_decay*theta on the decayed entries
    m, v = state.m, state.v
    buf, update = state.work
    np.multiply(1.0 - state.beta1, grad, out=buf)
    m *= state.beta1
    m += buf
    np.square(grad, out=buf)
    buf *= 1.0 - state.beta2
    v *= state.beta2
    v += buf
    np.divide(v, bc2, out=buf)                        # v_hat
    np.sqrt(buf, out=buf)
    buf += state.epsilon
    np.divide(m, bc1, out=update)                     # m_hat
    update *= lr_eff
    update /= buf
    theta = model.theta
    theta -= update
    if state.weight_decay > 0:
        np.multiply(state.lr_initial * state.weight_decay, theta, out=update)
        np.subtract(theta, update, out=theta, where=state.decay)
    model.mark_updated()


# ---------------------------------------------------------------------------
# Checkpoint format: text header, then little-endian float64 binary
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "STREAMREID-CKPT 1"


def save_checkpoint(path, named_tensors: ParamDict) -> None:
    header = io.StringIO()
    header.write(f"{_CKPT_MAGIC}\n")
    header.write(f"tensors {len(named_tensors)}\n")
    for name, arr in named_tensors.items():
        dims = ",".join(str(d) for d in arr.shape)
        header.write(f"{name} {dims}\n")
    header.write("data\n")
    with open(path, "wb") as f:
        f.write(header.getvalue().encode("ascii"))
        for arr in named_tensors.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> ParamDict:
    """The named tensors saved at path. A malformed file raises ValueError
    naming the path and what is wrong."""
    with open(path, "rb") as f:
        blob = f.read()
    head_end = blob.find(b"\ndata\n") + 1
    try:
        if not head_end:
            raise ValueError("no 'data' line ends the checkpoint header")
        lines = decode_ascii(blob[:head_end], "header").splitlines()
        if lines[0] != _CKPT_MAGIC:
            raise ValueError(f"bad checkpoint magic: {lines[0]!r}")
        if lines[1:2] != [f"tensors {len(lines) - 2}"]:
            raise ValueError(f"header line 2: expected 'tensors {len(lines) - 2}', "
                             f"got {' '.join(lines[1:2])!r}")
        out: ParamDict = {}
        offset = head_end + len(b"data\n")
        for no, line in enumerate(lines[2:], 3):
            name, _, dims = line.rpartition(" ")
            shape = tuple(int(d) for d in dims.split(",") if d.isdigit())
            if not name or name in out or ",".join(map(str, shape)) != dims:
                raise ValueError(f"header line {no}: expected a new "
                                 f"'<name> <d1>,<d2>,...', got {line!r}")
            size = 8 * math.prod(shape)
            if offset + size > len(blob):
                raise ValueError(f"tensor {name!r} needs {size} bytes, "
                                 f"{len(blob) - offset} left")
            out[name] = np.frombuffer(blob, "<f8", size // 8, offset).astype(float).reshape(shape)
            offset += size
        if offset != len(blob):
            raise ValueError(f"{len(blob) - offset} trailing bytes after the last tensor")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return out
