"""From-scratch dense autoencoder: construction, forward/backward, ADAM, training.

Two fixed architectures are provided. The "prime" model takes all 322
features through layers of 322-182-143-143-182-322 neurons; the "refined"
model takes 301 features through 301-176-141-141-176-301. Layers 2 and 5 are
sigmoid, the rest linear, and the 143/141-wide bottleneck makes the network
undercomplete. Everything is double precision so gradient checks are tight.

Every weight and bias lives in one contiguous float64 buffer,
``AutoencoderModel.params``, laid out layer by layer as W_l row-major then
b_l. Gradients use the same layout, ADAM updates the whole buffer in one call,
and ``save_model`` writes its little-endian bytes to ``model.params`` beside
``model.json``, which records their SHA-256.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ArtifactError, DataError, TrainingError, list_of, nullable, object_of,
                     read_fields, read_json, sha256_hex, strict_float, strict_int, strict_str)

ACTIVATIONS = ("linear", "sigmoid")

#: Rows per sigmoid call in _layer; a training batch is one block.
SIGMOID_BLOCK_ROWS = 1024

#: Elements per slice of each array in adam_step: 256 KiB of float64, small
#: enough that a slice is still in cache for the next of the update's operations.
ADAM_BLOCK_SIZE = 32768

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


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, split by sign so exp never overflows.

    With e = exp(-|z|) this is 1 / (1 + e) where z >= 0 and e / (1 + e)
    elsewhere, bit for bit the same as evaluating each side on its own
    elements. ``out`` may be ``z`` itself.
    """
    z = np.asarray(z, dtype=np.float64)
    pos = z >= 0
    # min(z, -z) is -|z|, but keeps the sign bit of a NaN as exp(z) would
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    out = np.add(e, 1.0, out=out)
    # the numerator: 1 where z >= 0, else e; e <= 1, so e + 1 caps at exactly 1
    np.add(e, pos, out=e)
    np.minimum(e, 1.0, out=e)
    return np.divide(e, out, out=out)


def _layer_views(flat: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a flat buffer into per-layer views: W_l (out_l, in_l) row-major, then b_l."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[offset:offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


def _param_count(dims) -> int:
    return sum(fan_out * fan_in + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


@dataclass
class AutoencoderModel:
    """Dense autoencoder parameters plus the metadata needed to persist it.

    ``params`` is the model: ``weights`` and ``biases`` are tuples of views
    into it, so writing to one of those arrays in place writes to the model.
    ``params_sha256`` is the SHA-256 that save_model or load_model last took of
    the parameter file, as model.json records it; None before either, and not
    updated when ``params`` change in place.
    """

    variant: str
    dims: tuple[int, ...]           # (input, out_1, ..., out_L)
    activations: tuple[str, ...]
    params: np.ndarray = field(repr=False)
    seed: int | None = None
    train_config: dict | None = None
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)  # W_l is (out_l, in_l)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)
    params_sha256: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.dims, self.activations = tuple(self.dims), tuple(self.activations)
        if len(self.dims) < 2 or min(self.dims) < 1 or len(self.activations) != len(self.dims) - 1:
            raise DataError(f"dims {list(self.dims)} and {len(self.activations)} "
                            "activations are inconsistent")
        for l, act in enumerate(self.activations):
            if act not in ACTIVATIONS:
                raise DataError(f"layer {l} has unknown activation {act!r}; "
                                f"expected one of {', '.join(ACTIVATIONS)}")
        count = _param_count(self.dims)
        p = self.params
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64 and p.shape == (count,)):
            raise DataError(f"params is {getattr(p, 'dtype', type(p).__name__)} of shape "
                            f"{np.shape(p)}, but dims {list(self.dims)} need float64 "
                            f"of shape ({count},)")
        weights, biases = _layer_views(self.params, self.dims)
        self.weights, self.biases = tuple(weights), tuple(biases)

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
        return self.params.size


def new_model(
    dims, activations, seed: int, variant: str = "custom"
) -> AutoencoderModel:
    """Glorot-uniform weights, zero biases, from a seeded generator."""
    dims = tuple(int(d) for d in dims)
    model = AutoencoderModel(variant=variant, dims=dims, activations=activations,
                             params=np.zeros(_param_count(dims)), seed=int(seed))
    rng = np.random.default_rng(seed)
    for W in model.weights:
        fan_out, fan_in = W.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return model


def build_model(variant: str, seed: int) -> AutoencoderModel:
    """Construct one of the two standard architectures."""
    try:
        arch = ARCHITECTURES[variant]
    except KeyError:
        raise DataError(f"unknown variant {variant!r}; expected 'prime' or 'refined'") from None
    model = new_model(arch["dims"], arch["activations"], seed=seed, variant=variant)
    assert model.bottleneck_dim < model.input_dim  # undercomplete by construction
    return model


def _layer(model: AutoencoderModel, l: int, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Layer l on activations a, written into out: act(a @ W_l.T + b_l).

    forward and reconstruct both run this, so their outputs agree bit for bit.
    """
    np.matmul(a, model.weights[l].T, out=out)
    out += model.biases[l]
    if model.activations[l] == "sigmoid":
        # elementwise, so a block of rows at a time gives the same bits, and
        # sigmoid's temporaries stay block-sized however many rows are scored
        for lo in range(0, len(out), SIGMOID_BLOCK_ROWS):
            block = out[lo:lo + SIGMOID_BLOCK_ROWS]
            sigmoid(block, out=block)
    return out


def _input_rows(model: AutoencoderModel, x) -> tuple[np.ndarray, bool]:
    """(x as an (n, d) float64 batch, whether x was a single (d,) vector)."""
    x = np.asarray(x, dtype=np.float64)
    X = np.atleast_2d(x)
    if X.shape[1] != model.input_dim:
        raise DataError(f"expected input dim {model.input_dim}, got {X.shape[1]}")
    return X, x.ndim == 1


def forward(
    model: AutoencoderModel, x, cache: list[np.ndarray] | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network; accepts a (d,) vector or an (n, d) batch.

    Returns the output and every layer's activations, the first being the
    input as an (n, d) batch, for backward. Passing the activations of an
    earlier call with the same number of rows reuses their buffers: they, and
    the output returned before, are overwritten.
    """
    X, squeeze = _input_rows(model, x)
    if cache is None:
        cache = [X] + [np.empty((len(X), d)) for d in model.dims[1:]]
    elif cache[0].shape != X.shape:
        raise DataError(f"cache holds {cache[0].shape} inputs, got {X.shape}")
    cache[0] = X
    for l in range(model.n_layers):
        _layer(model, l, cache[l], cache[l + 1])
    out = cache[-1]
    return (out[0] if squeeze else out), cache


def reconstruct(model: AutoencoderModel, x) -> np.ndarray:
    """The network's output alone, bit for bit forward's; (d,) or (n, d) like x.

    The layers write by turns into two buffers sized for the widest layer, so
    at most two layers are held at a time, always in the same two allocations.
    """
    a, squeeze = _input_rows(model, x)
    size = len(a) * max(model.dims[1:])
    a = _run_layers(model, a, (np.empty(size), np.empty(size)))
    return a[0] if squeeze else a


def _run_layers(model: AutoencoderModel, a: np.ndarray, buffers) -> np.ndarray:
    """The network's output on the rows a; layer l writes into buffers[l % 2], each a
    flat buffer with room for len(a) rows of any layer. a may lie in buffers[1] only."""
    n = len(a)
    for l, width in enumerate(model.dims[1:]):
        a = _layer(model, l, a, buffers[l % 2][:n * width].reshape(n, width))
    return a


def encode(model: AutoencoderModel, x) -> np.ndarray:
    """Bottleneck representation: activations after the first half of the layers."""
    _, acts = forward(model, x)
    h = acts[model.n_layers // 2]
    return h[0] if np.asarray(x).ndim == 1 else h


def mse_loss(x_hat, x, residual: np.ndarray | None = None) -> float:
    """Mean squared reconstruction error, averaged over every element.

    When ``residual`` is given, x_hat - x is written into it, for backward.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_hat.shape != x.shape:
        raise DataError(f"shape mismatch {x_hat.shape} vs {x.shape}")
    d = np.subtract(x_hat, x, out=residual)
    return float(np.mean(d * d))


def backward(
    model: AutoencoderModel, acts: list[np.ndarray], x,
    grads: np.ndarray | None = None, residual: np.ndarray | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradients of mse_loss(forward(x), x) wrt every weight and bias.

    The gradients are views into one flat buffer laid out like
    ``model.params``: ``grads`` when given, else a new one. ``residual`` may
    pass in the output minus x that mse_loss wrote, so it is not recomputed.
    """
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if X.shape != acts[0].shape or not np.array_equal(X, acts[0]):
        raise DataError("cache does not match the given input; rerun forward")
    out = acts[-1]
    if grads is None:
        grads = np.empty_like(model.params)
    dWs, dbs = _layer_views(grads, model.dims)
    if residual is None:
        residual = out - X
    delta = residual * (2.0 / out.size)
    for l in range(model.n_layers - 1, -1, -1):
        if model.activations[l] == "sigmoid":
            # dz = delta * a (1 - a), the derivative through the activation value
            a = acts[l + 1]
            slope = 1.0 - a
            slope *= a
            delta *= slope
        np.matmul(delta.T, acts[l], out=dWs[l])
        np.sum(delta, axis=0, out=dbs[l])
        if l > 0:
            delta = delta @ model.weights[l]
    return dWs, dbs


@dataclass
class AdamState:
    """First and second moment accumulators, one pair per parameter array,
    and two scratch buffers of one ADAM_BLOCK_SIZE slice each."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: tuple[np.ndarray, np.ndarray]

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        size = min(max(p.size for p in params), ADAM_BLOCK_SIZE)
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params],
                   scratch=(np.empty(size), np.empty(size)))


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray], t: int,
    lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected ADAM update (Kingma & Ba 2015, Alg. 1), applied in place.

    Per element: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, then
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), evaluated in that order. Each
    array is updated ADAM_BLOCK_SIZE elements at a time, so every operation
    finds its operands in cache; the update is elementwise, so the bits are
    those of the whole-array formula.
    """
    if t < 1:
        raise DataError("adam step index t must be >= 1")
    if not (len(state.m) == len(params) == len(grads)):
        raise DataError("params, grads, and state must have matching lengths")
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for m, v, p, g in zip(state.m, state.v, params, grads):
        if not p.shape == g.shape == m.shape:
            raise DataError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise DataError("ADAM updates C-contiguous parameter and moment arrays in place")
        # flat views of the updated arrays; a gradient is only read, so a copy would do
        m, v, p, g = (a.reshape(-1) for a in (m, v, p, g))
        for lo in range(0, p.size, ADAM_BLOCK_SIZE):
            mb, vb, pb, gb = (a[lo:lo + ADAM_BLOCK_SIZE] for a in (m, v, p, g))
            s1, s2 = (s[:pb.size] for s in state.scratch)
            mb *= beta1
            mb += np.multiply(gb, 1.0 - beta1, out=s1)
            vb *= beta2
            np.multiply(gb, gb, out=s1)
            s1 *= 1.0 - beta2
            vb += s1
            if bc1 == 1.0:
                # m / 1.0 is m bit for bit: from t = 356 on at beta1 = 0.9
                np.multiply(mb, lr, out=s1)
            else:
                np.divide(mb, bc1, out=s1)
                s1 *= lr
            np.divide(vb, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += eps
            s1 /= s2
            pb -= s1
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
        if self.rng_seed < 0:
            raise DataError("rng_seed must be >= 0")
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise DataError("validation_fraction must be in (0, 1)")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        # each range is written so that NaN fails it
        if not 0.0 < self.learning_rate < np.inf:
            raise DataError("learning_rate must be finite and > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise DataError("beta1 and beta2 must be in [0, 1)")
        if not 0.0 < self.eps < np.inf:
            raise DataError("eps must be finite and > 0")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    """Per-epoch loss curves and run metadata."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def final_train_loss(self) -> float:
        return self.train_losses[-1]

    @property
    def final_val_loss(self) -> float:
        return self.val_losses[-1]


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
    with np.errstate(over="ignore", invalid="ignore"):
        # a finite sum needs every element finite, and costs no X-sized array
        finite = np.isfinite(X.sum()) or np.isfinite(X).all()
    if not finite:
        raise DataError("training data contains non-finite values")

    started = time.perf_counter()
    rng = np.random.default_rng(config.rng_seed)
    n = X.shape[0]
    perm = rng.permutation(n)
    n_val = min(max(1, round(n * config.validation_fraction)), n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    n_train, d = len(train_idx), X.shape[1]
    # train holds these two buffers alone, from one epoch to the next. Each step writes
    # only views of them: its activations and then its batch, gathered from X itself, in
    # the first; its residual, the gradient and ADAM's scratch in the second. Validation,
    # which runs only between epochs, writes its layers into both by turns.
    widths = model.dims[1:]
    n_rows = min(config.batch_size, n_train)
    n_params, n_scratch = model.params.size, min(model.params.size, ADAM_BLOCK_SIZE)
    size = max(n_val * max(model.dims), n_rows * (sum(widths) + d),
               n_rows * widths[-1] + n_params + 2 * n_scratch)
    buffers = np.empty(size), np.empty(size)
    step_room = buffers[1][n_rows * widths[-1]:]
    grads = step_room[:n_params]
    scratch = step_room[n_params:n_params + 2 * n_scratch].reshape(2, n_scratch)
    state = AdamState(m=[np.zeros_like(model.params)], v=[np.zeros_like(model.params)],
                      scratch=tuple(scratch))

    def gather(idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        # a raising take would gather into a temporary first; the indices are in range
        return np.take(X, idx, axis=0, out=out[:len(idx) * d].reshape(len(idx), d),
                       mode="clip")

    report = TrainReport()
    step = 0
    for epoch in range(config.epochs):
        rows = train_idx[rng.permutation(n_train)]
        sse = 0.0
        for b0 in range(0, n_train, config.batch_size):
            batch_idx = rows[b0:b0 + config.batch_size]
            n_batch = len(batch_idx)
            batch = gather(batch_idx, buffers[0][n_batch * sum(widths):])
            acts, offset = [batch], 0
            for width in widths:
                acts.append(buffers[0][offset:offset + n_batch * width].reshape(n_batch, width))
                offset += n_batch * width
            residual = buffers[1][:n_batch * widths[-1]].reshape(n_batch, widths[-1])
            # divergence shows up as inf/nan loss and aborts below, so the
            # overflow itself is not worth a warning
            with np.errstate(over="ignore", invalid="ignore"):
                out, acts = forward(model, batch, acts)
            loss = mse_loss(out, batch, residual)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {b0 // config.batch_size}"
                )
            sse += loss * batch.size
            backward(model, acts, batch, grads, residual)
            step += 1
            adam_step(
                state, [model.params], [grads], step,
                lr=config.learning_rate, beta1=config.beta1,
                beta2=config.beta2, eps=config.eps,
            )
        report.train_losses.append(sse / (n_train * d))
        # forward's layers on the same rows, so the loss has forward's bits, without a
        # cache of every layer's activations: the rows go into one buffer, the output
        # lands in buffers[n_layers % 2], and the rows go again into the other one
        with np.errstate(over="ignore", invalid="ignore"):
            err = _run_layers(model, gather(val_idx, buffers[0]), buffers[::-1])
            err -= gather(val_idx, buffers[1 - model.n_layers % 2])
            err *= err
        val_loss = float(np.mean(err))
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss after epoch {epoch}")
        report.val_losses.append(val_loss)

    report.duration_s = time.perf_counter() - started
    model.train_config = config.to_json()
    model.seed = config.rng_seed
    return model, report


def _params_file(path: Path) -> Path:
    """The raw parameter file of a model JSON: model.json -> model.params."""
    return path.with_suffix(".params")


def _sha256(raw: bytes) -> str:
    # imported here: hashlib loads OpenSSL, a few ms that every `import drivemon`
    # would otherwise pay (generate pays it anyway, through numpy's SeedSequence)
    import hashlib
    return hashlib.sha256(raw).hexdigest()


#: model.json: field -> how it is read back; train_config is TrainConfig.to_json's.
TRAIN_CONFIG_FIELDS = {"rng_seed": strict_int, "epochs": strict_int, "batch_size": strict_int,
                       "learning_rate": strict_float, "beta1": strict_float, "beta2": strict_float,
                       "eps": strict_float, "validation_fraction": strict_float}
MODEL_FIELDS = {"variant": strict_str, "dims": list_of(strict_int),
                "activations": list_of(strict_str), "params_sha256": sha256_hex,
                "seed": (nullable(strict_int), None),
                "train_config": (nullable(object_of(TRAIN_CONFIG_FIELDS)), None)}


def save_model(model: AutoencoderModel, path: str | Path) -> None:
    """Persist a model as JSON metadata plus its raw parameter file.

    The "<f8" bytes of ``params`` go to the sibling ``.params`` file, and the
    JSON records their SHA-256, also kept as ``model.params_sha256``, so a file
    from another model is refused.
    """
    path = Path(path)
    raw = model.params.astype("<f8", copy=False).tobytes()
    _params_file(path).write_bytes(raw)
    model.params_sha256 = _sha256(raw)
    doc = {
        "variant": model.variant,
        "dims": list(model.dims),
        "activations": list(model.activations),
        "params_sha256": model.params_sha256,
        "seed": model.seed,
        "train_config": model.train_config,
    }
    path.write_text(json.dumps(doc) + "\n")


def load_model(path: str | Path) -> AutoencoderModel:
    """Load a persisted model, validating its structure and parameters.

    The parameter file's name comes from ``path``, never from the JSON, and
    its bytes must match the recorded SHA-256, kept as ``model.params_sha256``,
    before they are used.
    """
    path = Path(path)
    params_path = _params_file(path)
    doc = read_json(path)
    if isinstance(doc, dict) and "params_sha256" not in doc and {"weights", "params"} & doc.keys():
        raise ArtifactError(f"{path}: parameters stored inside the JSON (nested lists or "
                            "base64) are an older model format that is no longer read; "
                            f"retrain the model to write {params_path.name}")
    doc = read_fields(doc, MODEL_FIELDS, str(path))
    dims = doc["dims"]
    try:
        raw = params_path.read_bytes()
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read its parameters from {params_path}: "
                            f"{exc.strerror}") from exc
    if _sha256(raw) != doc["params_sha256"]:
        raise ArtifactError(f"{params_path}: SHA-256 does not match params_sha256 in "
                            f"{path}; the parameter file is damaged or from another model")
    if len(raw) != 8 * _param_count(dims):
        raise ArtifactError(f"{path}: params holds {len(raw)} bytes, but dims {list(dims)} "
                            f"need {8 * _param_count(dims)} (read from {params_path})")
    try:
        model = AutoencoderModel(
            variant=doc["variant"], dims=dims, activations=doc["activations"],
            params=np.frombuffer(raw, "<f8").astype(np.float64),
            seed=doc["seed"], train_config=doc["train_config"],
        )
    except DataError as exc:
        raise ArtifactError(f"{path}: {exc}") from exc
    for l, (W, b) in enumerate(zip(model.weights, model.biases)):
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ArtifactError(f"{path}: layer {l} has non-finite weights or biases "
                                f"in {params_path.name}")
    model.params_sha256 = doc["params_sha256"]
    return model
