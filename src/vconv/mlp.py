"""Small fully connected network for frame-wise spectral mapping.

Hidden layers use tanh, the output layer is linear.  Training is
full-batch L-BFGS over one flat parameter vector; the per-sample loss
is the squared error summed over output dimensions and the reported MSE
is its mean over the training pairs.  Everything is deterministic given
the init seed, so identical runs produce identical parameter files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TrainingDivergedError(RuntimeError):
    """The loss is not finite before training's first step, which `train`
    reports as epoch 0; a non-finite trial loss only fails a line search."""

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
class TrainReport:
    epochs_run: int  # L-BFGS iterations accepted
    final_mse: float
    mse_history: np.ndarray  # MSE after each iteration; len == epochs_run
    converged: bool  # stopped on a plateau or a failed line search, not the cap


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


def _forward_into(net: MlpModel, acts: list) -> None:
    """Fill acts[1:], one (n, fan_out) buffer per layer, with the layer
    outputs for the batch in acts[0]; the last entry is the network output."""
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[l + 1]
        np.matmul(acts[l], w.T, out=z)
        z += b
        if l < last:
            np.tanh(z, out=z)


def forward(model: MlpModel, x) -> np.ndarray:
    """Network output for a single vector or a (n, d_in) batch."""
    arr = np.asarray(x, dtype=np.float64)
    sizes = model.layer_sizes
    if arr.shape[-1] != sizes[0]:
        raise ValueError(f"input has {arr.shape[-1]} dims, "
                         f"model expects {sizes[0]}")
    batch = np.atleast_2d(arr)
    acts = [batch] + [np.empty((len(batch), s)) for s in sizes[1:]]
    _forward_into(model, acts)
    return acts[-1][0] if arr.ndim == 1 else acts[-1]


def _pairs(model: MlpModel, x, t) -> tuple:
    """`x` and `t` as contiguous float64 arrays, checked against `model`."""
    x, t = (np.ascontiguousarray(v, dtype=np.float64) for v in (x, t))
    if x.ndim != 2 or t.ndim != 2:
        raise ValueError(f"need (pairs, dims) inputs and targets, got shapes "
                         f"{x.shape} and {t.shape}")
    if len(x) != len(t):
        raise ValueError(f"{len(x)} inputs vs {len(t)} targets")
    if not len(x):
        raise ValueError("cannot train on an empty pair set")
    sizes = model.layer_sizes
    if x.shape[1] != sizes[0] or t.shape[1] != sizes[-1]:
        raise ValueError(f"pair dims {x.shape[1]}->{t.shape[1]} do not match "
                         f"model {sizes[0]}->{sizes[-1]}")
    return x, t


def compute_gradients(model: MlpModel, x, target):
    """Exact gradients of sum((y - target)^2) over the outputs and the rows
    of `x`: the training MSE and its gradient times the row count.

    Returns (weight gradients, bias gradients, loss).
    """
    x, t = _pairs(model, np.atleast_2d(x), np.atleast_2d(target))
    theta, sizes = _flatten(model), model.layer_sizes
    grad = np.empty_like(theta)
    loss = _BatchLoss(sizes, x, t)(theta, grad) * len(x)
    grads = _unflatten(grad * len(x), sizes)
    return grads.weights, grads.biases, loss


def _flatten(model: MlpModel) -> np.ndarray:
    """One vector of every layer's weights (row-major), then its biases."""
    return np.concatenate([part for w, b in zip(model.weights, model.biases)
                           for part in (w.ravel(), b)])


def _unflatten(theta: np.ndarray, sizes) -> MlpModel:
    """A model whose weights and biases are views into `theta`."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(theta[pos:pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(theta[pos:pos + fan_out])
        pos += fan_out
    return MlpModel(weights=weights, biases=biases)


class _BatchLoss:
    """Training MSE of a fixed batch and its gradient, as a function of the
    flat parameter vector, computed in buffers allocated once."""

    def __init__(self, sizes, x: np.ndarray, t: np.ndarray):
        self.sizes, self.x, self.t = sizes, x, t
        n = x.shape[0]
        self.acts = [x] + [np.empty((n, s)) for s in sizes[1:]]
        self.deltas = [np.empty((n, s)) for s in sizes[1:]]  # d(loss)/d(z_l)
        self.slopes = [np.empty((n, s)) for s in sizes[1:-1]]  # 1 - tanh^2

    def __call__(self, theta: np.ndarray, grad: np.ndarray) -> float:
        """MSE at `theta`; its gradient is written into `grad`."""
        net, dnet = _unflatten(theta, self.sizes), _unflatten(grad, self.sizes)
        acts, deltas = self.acts, self.deltas
        _forward_into(net, acts)
        last = len(net.weights) - 1
        delta = deltas[last]
        np.subtract(acts[-1], self.t, out=delta)
        n = self.x.shape[0]
        mse = float(np.vdot(delta, delta)) / n
        delta *= 2.0 / n
        for l in range(last, -1, -1):
            delta = deltas[l]
            np.matmul(delta.T, acts[l], out=dnet.weights[l])
            np.sum(delta, axis=0, out=dnet.biases[l])
            if l > 0:
                slope = self.slopes[l - 1]
                np.multiply(acts[l], acts[l], out=slope)
                np.subtract(1.0, slope, out=slope)
                np.matmul(delta, net.weights[l], out=deltas[l - 1])
                deltas[l - 1] *= slope
        return mse


_MEMORY = 10  # curvature pairs kept
_MIN_CURVATURE = 1e-12  # a pair with s.y at or below this is not stored
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 40
_PLATEAU_SPAN = 10  # iterations over which the relative decrease is judged
_PLATEAU_TOL = 3e-3


def _direction(grad: np.ndarray, memory: list) -> np.ndarray:
    """-H grad by the L-BFGS two-loop recursion over (s, y, 1/s.y) pairs,
    oldest first, with H0 = (s.y / y.y) I from the newest pair."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if memory:
        s, y, _ = memory[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return np.negative(q, out=q)


def train(model: MlpModel, x, t, max_epochs: int = 5000) -> tuple:
    """Train a copy of `model` to map the rows of `x` to the rows of `t`,
    both (pairs, dims) arrays; the model argument is untouched.

    Full-batch L-BFGS (Liu & Nocedal 1989; Nocedal & Wright Alg. 7.4) with
    Armijo backtracking that halves the step from 1, or from
    min(1, 1/||g||_1) while no curvature pair is stored; a non-finite trial
    loss fails the step.  Stops on a plateau, when the MSE of the last
    10 iterations fell by no more than 3e-3 of its current value; when
    40 halvings find no step; or at max_epochs iterations.  The first two
    count as converged.
    """
    if max_epochs < 1:
        raise ValueError("max_epochs must be at least 1")
    x, t = _pairs(model, x, t)
    sizes = model.layer_sizes
    loss = _BatchLoss(sizes, x, t)
    theta = _flatten(model)
    trial, grad, trial_grad = (np.empty_like(theta) for _ in range(3))
    # a point may overflow; its loss is then inf or NaN, which raises at the
    # start and fails the Armijo test at a trial point
    with np.errstate(over="ignore", invalid="ignore"):
        mse = loss(theta, grad)
        if not np.isfinite(mse):
            raise TrainingDivergedError(0)
        mses = [mse]  # before the first iteration, then after each
        memory = []
        converged = False
        for _ in range(max_epochs):
            direction = _direction(grad, memory)
            slope = grad @ direction
            if not slope < 0:  # rounding spoilt the curvature: steepest descent
                memory = []
                direction = -grad
                slope = -(grad @ grad)
            step = 1.0 if memory else 1.0 / max(1.0, float(np.abs(grad).sum()))
            for _ in range(_MAX_HALVINGS + 1):
                np.multiply(direction, step, out=trial)
                trial += theta
                trial_mse = loss(trial, trial_grad)
                if trial_mse <= mse + _ARMIJO_C1 * step * slope:  # False for NaN
                    break
                step *= 0.5
            else:
                converged = True
                break
            s, y = trial - theta, trial_grad - grad
            sy = s @ y
            if sy > _MIN_CURVATURE:
                memory = memory[1 - _MEMORY:] + [(s, y, 1.0 / sy)]
            theta, trial = trial, theta
            grad, trial_grad = trial_grad, grad
            mse = trial_mse
            mses.append(mse)
            if (len(mses) > _PLATEAU_SPAN
                    and mses[-1 - _PLATEAU_SPAN] - mse <= _PLATEAU_TOL * mse):
                converged = True
                break
    report = TrainReport(epochs_run=len(mses) - 1, final_mse=mse,
                         mse_history=np.asarray(mses[1:]), converged=converged)
    return _unflatten(theta, sizes), report


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
