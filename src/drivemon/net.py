"""From-scratch dense autoencoder: construction, forward/backward, ADAM, training.

Two fixed architectures are provided. The "prime" model takes all 322
features through layers of 322-182-143-143-182-322 neurons; the "refined"
model takes 301 features through 301-176-141-141-176-301. Layers 2 and 5 are
sigmoid, the rest linear, and the 143/141-wide bottleneck makes the network
undercomplete. Everything is double precision so gradient checks are tight.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArtifactError, DataError, TrainingError, read_json

ACTIVATIONS = ("linear", "sigmoid")

#: dims are [input, layer1..layer6 widths]; symmetric with a strict bottleneck.
ARCHITECTURES = {
    "prime": {
        "dims": (322, 322, 182, 143, 143, 182, 322),
        "activations": ("linear", "sigmoid", "linear", "linear", "sigmoid", "linear"),
    },
    "refined": {
        "dims": (301, 301, 176, 141, 141, 176, 301),
        "activations": ("linear", "sigmoid", "linear", "linear", "sigmoid", "linear"),
    },
}


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so exp never overflows."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "sigmoid":
        return sigmoid(z)
    raise DataError(f"unknown activation {name!r}")


def _activation_grad(name: str, a: np.ndarray) -> np.ndarray:
    """Derivative wrt pre-activation, expressed through the activation value."""
    if name == "linear":
        return np.ones_like(a)
    return a * (1.0 - a)


@dataclass
class AutoencoderModel:
    """Dense autoencoder weights plus the metadata needed to persist it."""

    variant: str
    dims: tuple[int, ...]           # (input, out_1, ..., out_L)
    activations: tuple[str, ...]
    weights: list[np.ndarray]       # W_l is (out_l, in_l)
    biases: list[np.ndarray]
    seed: int | None = None
    train_config: dict | None = None

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    @property
    def bottleneck_dim(self) -> int:
        return min(self.dims[1:])

    def parameter_count(self) -> int:
        return sum(W.size + b.size for W, b in zip(self.weights, self.biases))


def new_model(
    dims, activations, seed: int, variant: str = "custom"
) -> AutoencoderModel:
    """Glorot-uniform weights, zero biases, from a seeded generator."""
    dims = tuple(int(d) for d in dims)
    activations = tuple(activations)
    if len(activations) != len(dims) - 1:
        raise DataError("need one activation per layer")
    for a in activations:
        if a not in ACTIVATIONS:
            raise DataError(f"unknown activation {a!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return AutoencoderModel(
        variant=variant, dims=dims, activations=activations,
        weights=weights, biases=biases, seed=int(seed),
    )


def build_model(variant: str, seed: int) -> AutoencoderModel:
    """Construct one of the two standard architectures."""
    try:
        arch = ARCHITECTURES[variant]
    except KeyError:
        raise DataError(f"unknown variant {variant!r}; expected 'prime' or 'refined'") from None
    model = new_model(arch["dims"], arch["activations"], seed=seed, variant=variant)
    assert model.bottleneck_dim < model.input_dim  # undercomplete by construction
    return model


@dataclass
class ForwardCache:
    """Every activation of one forward pass, for backprop."""

    x: np.ndarray
    activations: list[np.ndarray]  # activations[0] is the input


def forward(model: AutoencoderModel, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the network; accepts a (d,) vector or an (n, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != model.input_dim:
        raise DataError(f"expected input dim {model.input_dim}, got {X.shape[1]}")
    a = X
    acts = [X]
    for W, b, act in zip(model.weights, model.biases, model.activations):
        a = _apply_activation(act, a @ W.T + b)
        acts.append(a)
    out = a[0] if squeeze else a
    return out, ForwardCache(x=X, activations=acts)


def encode(model: AutoencoderModel, x) -> np.ndarray:
    """Bottleneck representation: activations after the first half of the layers."""
    _, cache = forward(model, x)
    half = model.n_layers // 2
    h = cache.activations[half]
    return h[0] if np.asarray(x).ndim == 1 else h


def mse_loss(x_hat, x) -> float:
    """Mean squared reconstruction error, averaged over every element."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_hat.shape != x.shape:
        raise DataError(f"shape mismatch {x_hat.shape} vs {x.shape}")
    d = x_hat - x
    return float(np.mean(d * d))


def backward(
    model: AutoencoderModel, cache: ForwardCache, x
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradients of mse_loss(forward(x), x) wrt every weight and bias."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if X.shape != cache.x.shape or not np.array_equal(X, cache.x):
        raise DataError("cache does not match the given input; rerun forward")
    out = cache.activations[-1]
    delta = (out - X) * (2.0 / out.size)
    dWs: list[np.ndarray] = [None] * model.n_layers
    dbs: list[np.ndarray] = [None] * model.n_layers
    for l in range(model.n_layers - 1, -1, -1):
        dz = delta * _activation_grad(model.activations[l], cache.activations[l + 1])
        dWs[l] = dz.T @ cache.activations[l]
        dbs[l] = dz.sum(axis=0)
        if l > 0:
            delta = dz @ model.weights[l]
    return dWs, dbs


@dataclass
class AdamState:
    """First and second moment accumulators, one pair per parameter array."""

    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(
    state: AdamState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    t: int,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected ADAM update, applied in place."""
    if t < 1:
        raise DataError("adam step index t must be >= 1")
    if not (len(state.m) == len(params) == len(grads)):
        raise DataError("params, grads, and state must have matching lengths")
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for m, v, p, g in zip(state.m, state.v, params, grads):
        if p.shape != g.shape:
            raise DataError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params, state


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults follow the deployed regime."""

    rng_seed: int
    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    validation_fraction: float = 0.2

    def __post_init__(self):
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise DataError("validation_fraction must be in (0, 1)")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")

    def to_json(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "validation_fraction": self.validation_fraction,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        return cls(**doc)


@dataclass
class TrainReport:
    """Per-epoch loss curves and run metadata."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    duration_s: float = 0.0
    # results are bitwise-reproducible only for a fixed BLAS thread count
    thread_note: str = ""

    @property
    def final_train_loss(self) -> float:
        return self.train_losses[-1]

    @property
    def final_val_loss(self) -> float:
        return self.val_losses[-1]


def _thread_note() -> str:
    pinned = {
        k: os.environ[k]
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return f"cpus={os.cpu_count()} env={pinned or 'unset'}"


def train(
    model: AutoencoderModel, X: np.ndarray, config: TrainConfig
) -> tuple[AutoencoderModel, TrainReport]:
    """Autoencode X (targets equal inputs) for a fixed number of epochs.

    Deterministic for a given seed: the validation split, per-epoch
    shuffles, and initial weights all come from seeded generators.
    Validation loss is recorded each epoch but never used for stopping.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DataError(f"X must be (n, {model.input_dim}); got {X.shape}")
    if X.shape[0] < 10:
        raise DataError(f"training requires at least 10 rows; got {X.shape[0]}")
    if not np.isfinite(X).all():
        raise DataError("training data contains non-finite values")

    started = time.perf_counter()
    rng = np.random.default_rng(config.rng_seed)
    n = X.shape[0]
    perm = rng.permutation(n)
    n_val = min(max(1, round(n * config.validation_fraction)), n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    X_val, X_train = X[val_idx], X[train_idx]
    n_train, d = X_train.shape

    params = model.weights + model.biases
    state = AdamState.for_params(params)
    report = TrainReport(thread_note=_thread_note())
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n_train)
        sse = 0.0
        for b0 in range(0, n_train, config.batch_size):
            batch = X_train[order[b0:b0 + config.batch_size]]
            # divergence shows up as inf/nan loss and aborts below, so the
            # overflow itself is not worth a warning
            with np.errstate(over="ignore", invalid="ignore"):
                out, cache = forward(model, batch)
            batch_loss = mse_loss(out, batch)
            if not np.isfinite(batch_loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {b0 // config.batch_size}"
                )
            sse += batch_loss * batch.size
            dWs, dbs = backward(model, cache, batch)
            step += 1
            adam_step(
                state, params, dWs + dbs, step,
                lr=config.learning_rate, beta1=config.beta1,
                beta2=config.beta2, eps=config.eps,
            )
        report.train_losses.append(sse / (n_train * d))
        with np.errstate(over="ignore", invalid="ignore"):
            val_out, _ = forward(model, X_val)
        val_loss = mse_loss(val_out, X_val)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss after epoch {epoch}")
        report.val_losses.append(val_loss)

    report.duration_s = time.perf_counter() - started
    model.train_config = config.to_json()
    model.seed = config.rng_seed
    return model, report


def save_model(model: AutoencoderModel, path: str | Path) -> None:
    """Persist a model as JSON; floats keep full round-trip precision."""
    doc = {
        "variant": model.variant,
        "dims": list(model.dims),
        "activations": list(model.activations),
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": model.seed,
        "train_config": model.train_config,
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_model(path: str | Path, expect_variant: str | None = None) -> AutoencoderModel:
    """Load a persisted model, validating structure and (optionally) variant."""
    doc = read_json(path)
    try:
        dims = tuple(int(d) for d in doc["dims"])
        activations = tuple(doc["activations"])
        weights = [np.asarray(W, dtype=np.float64) for W in doc["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
        model = AutoencoderModel(
            variant=doc["variant"], dims=dims, activations=activations,
            weights=weights, biases=biases, seed=doc.get("seed"),
            train_config=doc.get("train_config"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed model file {path}: {exc}") from exc
    if len(activations) != len(dims) - 1 or len(weights) != len(dims) - 1:
        raise ArtifactError(f"{path}: dims, activations, and weights are inconsistent")
    for l, (W, b) in enumerate(zip(weights, biases)):
        if W.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
            raise ArtifactError(f"{path}: layer {l} has shape {W.shape}, expected "
                                f"({dims[l + 1]}, {dims[l]})")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ArtifactError(f"{path}: layer {l} has non-finite weights or biases")
    if expect_variant is not None and model.variant != expect_variant:
        raise ArtifactError(
            f"{path}: model variant is {model.variant!r}, expected {expect_variant!r}"
        )
    return model
