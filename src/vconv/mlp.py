"""Small fully connected network for frame-wise spectral mapping.

Hidden layers use tanh, the output layer is linear.  Training is plain
full-batch gradient descent with classical momentum; the per-sample loss
is the squared error summed over output dimensions and the reported MSE
is its mean over the training pairs.  Everything is deterministic given
the init seed, so identical runs produce identical parameter files.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the epoch at which it happened."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


class ModelFormatError(ValueError):
    """Model file is not parseable."""


class ModelVersionError(ModelFormatError):
    """Model file declares a format version this code does not read."""


class ModelDimensionError(ModelFormatError):
    """Parameter lines disagree with the declared layer sizes."""


@dataclass
class MlpModel:
    weights: list  # weights[l] has shape (fan_out, fan_in)
    biases: list  # biases[l] has shape (fan_out,)

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    max_epochs: int = 5000
    convergence_delta: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.convergence_delta < 0:
            raise ValueError("convergence_delta must be non-negative")


@dataclass
class TrainReport:
    epochs_run: int  # parameter updates applied
    final_mse: float
    mse_history: np.ndarray  # MSE measured after each update; len == epochs_run
    converged: bool  # stopped on the loss-change threshold, not the cap


def init_mlp(layer_sizes, seed: int = 42) -> MlpModel:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out)); biases start at zero."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need at least two positive layer sizes, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases)


def _forward_all(model: MlpModel, x2d: np.ndarray) -> list:
    """Activations per layer for a (n, d_in) batch; last entry is the output."""
    acts = [x2d]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if l == last else np.tanh(z))
    return acts


def forward(model: MlpModel, x) -> np.ndarray:
    """Network output for a single vector or a (n, d_in) batch."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != model.layer_sizes[0]:
        raise ValueError(f"input has {arr.shape[-1]} dims, "
                         f"model expects {model.layer_sizes[0]}")
    single = arr.ndim == 1
    out = _forward_all(model, np.atleast_2d(arr))[-1]
    return out[0] if single else out


def _backprop(model: MlpModel, acts: list, delta: np.ndarray):
    """Weight/bias gradients given d(loss)/d(output) rows in `delta`."""
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * (1.0 - acts[l] ** 2)
    return grads_w, grads_b


def compute_gradients(model: MlpModel, x, target):
    """Exact gradients of the per-sample loss sum((y - target)^2).

    Returns (weight gradients, bias gradients, loss).
    """
    xv = np.atleast_2d(np.asarray(x, dtype=np.float64))
    tv = np.atleast_2d(np.asarray(target, dtype=np.float64))
    sizes = model.layer_sizes
    if xv.shape[1] != sizes[0] or tv.shape[1] != sizes[-1]:
        raise ValueError(f"sample dims {xv.shape[1]}->{tv.shape[1]} do not "
                         f"match model {sizes[0]}->{sizes[-1]}")
    acts = _forward_all(model, xv)
    diff = acts[-1] - tv
    loss = float(np.sum(diff ** 2))
    grads_w, grads_b = _backprop(model, acts, 2.0 * diff)
    return grads_w, grads_b, loss


def train(model: MlpModel, pairs,
          config: TrainConfig | None = None) -> tuple:
    """Train a copy of `model` on (input, target) pairs; argument untouched.

    Stops when the MSE change between consecutive epochs falls below
    convergence_delta, or at max_epochs.
    """
    cfg = config or TrainConfig()
    pair_list = list(pairs)
    if not pair_list:
        raise ValueError("cannot train on an empty pair set")
    x = np.asarray([np.asarray(p[0], dtype=np.float64) for p in pair_list])
    t = np.asarray([np.asarray(p[1], dtype=np.float64) for p in pair_list])
    if x.ndim != 2 or t.ndim != 2:
        raise ValueError("every pair must hold two fixed-length vectors")
    sizes = model.layer_sizes
    if x.shape[1] != sizes[0] or t.shape[1] != sizes[-1]:
        raise ValueError(f"pair dims {x.shape[1]}->{t.shape[1]} do not match "
                         f"model {sizes[0]}->{sizes[-1]}")

    net = copy.deepcopy(model)
    n = x.shape[0]
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]

    acts = _forward_all(net, x)
    with np.errstate(over="ignore", invalid="ignore"):
        prev_mse = float(np.mean(np.sum((acts[-1] - t) ** 2, axis=1)))
    if not np.isfinite(prev_mse):
        raise TrainingDivergedError(0)
    history = []
    converged = False
    for epoch in range(1, cfg.max_epochs + 1):
        grads_w, grads_b = _backprop(net, acts, (2.0 / n) * (acts[-1] - t))
        for l in range(len(net.weights)):
            vel_w[l] = cfg.momentum * vel_w[l] - cfg.learning_rate * grads_w[l]
            vel_b[l] = cfg.momentum * vel_b[l] - cfg.learning_rate * grads_b[l]
            net.weights[l] += vel_w[l]
            net.biases[l] += vel_b[l]
        acts = _forward_all(net, x)
        # overflow here is the divergence signal, not an error in itself
        with np.errstate(over="ignore", invalid="ignore"):
            mse = float(np.mean(np.sum((acts[-1] - t) ** 2, axis=1)))
        if not np.isfinite(mse):
            raise TrainingDivergedError(epoch)
        history.append(mse)
        if abs(prev_mse - mse) < cfg.convergence_delta:
            converged = True
            break
        prev_mse = mse
    report = TrainReport(epochs_run=len(history), final_mse=history[-1],
                         mse_history=np.asarray(history), converged=converged)
    return net, report


_MAGIC = "VCMLP"
_VERSION = "1"


def save_model(model: MlpModel, path) -> None:
    """Write the network as text: magic line, layer sizes, then one line
    per output unit holding its bias followed by its incoming weights."""
    lines = [f"{_MAGIC} {_VERSION}",
             " ".join(str(s) for s in model.layer_sizes)]
    for w, b in zip(model.weights, model.biases):
        for unit in range(w.shape[0]):
            row = np.concatenate([[b[unit]], w[unit]])
            lines.append(" ".join(format(v, ".17g") for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MlpModel:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ModelFormatError("model file too short")
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != _MAGIC:
        raise ModelFormatError(f"bad magic line: {lines[0]!r}")
    if magic[1] != _VERSION:
        raise ModelVersionError(f"unsupported format version {magic[1]!r}")
    try:
        sizes = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        raise ModelFormatError(f"unreadable layer sizes: {lines[1]!r}") from exc
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ModelDimensionError(f"invalid layer sizes {sizes}")

    expected = 2 + sum(sizes[1:])
    if len(lines) != expected:
        raise ModelDimensionError(
            f"{len(lines) - 2} parameter lines, sizes {sizes} require "
            f"{expected - 2}")
    pos = 2
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = np.empty((fan_out, fan_in))
        b = np.empty(fan_out)
        for unit in range(fan_out):
            try:
                row = np.array([float(tok) for tok in lines[pos].split()])
            except ValueError as exc:
                raise ModelFormatError(
                    f"unreadable parameter line {pos + 1}") from exc
            if len(row) != fan_in + 1:
                raise ModelDimensionError(
                    f"line {pos + 1} has {len(row)} values, expected "
                    f"{fan_in + 1} (bias + incoming weights)")
            if not np.isfinite(row).all():
                raise ModelFormatError(f"line {pos + 1} holds a non-finite value")
            b[unit] = row[0]
            w[unit] = row[1:]
            pos += 1
        weights.append(w)
        biases.append(b)
    return MlpModel(weights=weights, biases=biases)
