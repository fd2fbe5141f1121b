import base64
import json
import shutil
import tracemalloc

import numpy as np
import pytest

import drivemon.net as net
from drivemon.errors import ArtifactError, DataError, TrainingError
from drivemon.net import (
    AdamState,
    AutoencoderModel,
    TrainConfig,
    adam_step,
    backward,
    build_model,
    encode,
    forward,
    load_model,
    mse_loss,
    new_model,
    reconstruct,
    save_model,
    sigmoid,
    train,
)

from conftest import store_params
from oracles import (
    central_difference_grads,
    max_relative_gradient_error,
    reference_sigmoid,
    reference_train,
)

TOY_DIMS = (10, 6, 4, 4, 6, 10)
TOY_ACTS = ("linear", "sigmoid", "linear", "sigmoid", "linear")


def toy_model(seed=0):
    return new_model(TOY_DIMS, TOY_ACTS, seed=seed)


def test_architectures():
    prime = build_model("prime", seed=1)
    refined = build_model("refined", seed=1)
    assert prime.dims == (322, 322, 182, 143, 143, 182, 322)
    assert refined.dims == (301, 301, 176, 141, 141, 176, 301)
    for m in (prime, refined):
        assert m.activations == ("linear", "sigmoid", "linear", "linear", "sigmoid", "linear")
        assert m.bottleneck_dim < m.input_dim
        # symmetric widths: layer l matches layer (7 - l)
        outs = m.dims[1:]
        assert outs == outs[::-1]
    with pytest.raises(DataError):
        build_model("bogus", seed=1)


def test_parameter_counts():
    prime = build_model("prime", seed=0)
    layer2 = prime.weights[1].size + prime.biases[1].size
    assert layer2 == 322 * 182 + 182 == 58_786
    expected = sum(
        i * o + o for i, o in zip(prime.dims[:-1], prime.dims[1:])
    )
    assert prime.parameter_count() == expected


def test_glorot_init_bounds_and_zero_biases():
    model = build_model("prime", seed=42)
    for W, b, (fan_out, fan_in) in zip(model.weights, model.biases,
                                       [w.shape for w in model.weights]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.max(np.abs(W)) <= limit
        assert np.array_equal(b, np.zeros(fan_out))


def test_build_is_deterministic():
    a = build_model("refined", seed=9)
    b = build_model("refined", seed=9)
    for Wa, Wb in zip(a.weights, b.weights):
        assert np.array_equal(Wa, Wb)
    c = build_model("refined", seed=10)
    assert not np.array_equal(a.weights[0], c.weights[0])


@pytest.mark.parametrize("dims,acts,seed", [(TOY_DIMS, TOY_ACTS, 5),
                                            (net.ARCHITECTURES["prime"]["dims"],
                                             net.ARCHITECTURES["prime"]["activations"], 3)],
                         ids=["toy", "prime"])
def test_new_model_initial_bits(dims, acts, seed):
    # one generator, each layer's Glorot weights drawn in order, then zero biases
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-limit, limit, (fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    assert new_model(dims, acts, seed=seed).params.tobytes() == np.concatenate(parts).tobytes()


@pytest.mark.parametrize("dims,acts,params,match", [
    (TOY_DIMS, TOY_ACTS, np.zeros(net._param_count(TOY_DIMS) - 1), "shape"),
    (TOY_DIMS, TOY_ACTS, np.zeros(net._param_count(TOY_DIMS), dtype=np.float32), "float32"),
    (TOY_DIMS, TOY_ACTS[:-1], np.zeros(net._param_count(TOY_DIMS)), "inconsistent"),
    (TOY_DIMS, ("linear", "relu") + TOY_ACTS[2:], np.zeros(net._param_count(TOY_DIMS)),
     "layer 1 has unknown activation 'relu'"),
], ids=["wrong-length", "float32", "activation-count", "unknown-activation"])
def test_model_rejects_bad_structure(dims, acts, params, match):
    with pytest.raises(DataError, match=match):
        AutoencoderModel(variant="custom", dims=dims, activations=acts, params=params)


def test_sigmoid_stable_at_extremes():
    z = np.array([-1e4, -40.0, 0.0, 40.0, 1e4])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[-1] == 1.0
    assert s[2] == 0.5


def test_sigmoid_bitwise_matches_reference():
    extremes = [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 745.0, -745.0,
                np.nan, -np.nan, 1e-320, -1e-320]
    z = np.concatenate([extremes, np.random.default_rng(0).standard_normal(1000) * 50])
    assert sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()
    in_place = z.copy()
    sigmoid(in_place, out=in_place)
    assert in_place.tobytes() == reference_sigmoid(z).tobytes()


def test_forward_zero_network():
    model = toy_model()
    for W in model.weights:
        W[:] = 0.0
    out, _ = forward(model, np.ones(10))
    # sigmoid(0) = 0.5 propagates through zero weights to a zero linear output
    assert np.array_equal(out, np.zeros(10))


def test_forward_identity_single_layer():
    model = new_model([3, 3], ["linear"], seed=0)
    model.weights[0][:] = np.eye(3)
    model.biases[0][:] = 0.0
    x = np.array([1.0, -2.0, 3.0])
    out, _ = forward(model, x)
    assert np.array_equal(out, x)


def test_forward_222_hand_computed():
    model = new_model((2, 2, 2), ("sigmoid", "linear"), seed=0)
    model.weights[0][...] = [[1.0, 2.0], [3.0, 4.0]]
    model.weights[1][...] = [[1.0, -1.0], [2.0, 1.0]]
    model.biases[0][...] = [0.5, -0.5]
    model.biases[1][...] = [0.0, 1.0]
    out, acts = forward(model, np.array([0.1, 0.2]))
    # z1 = [1.0, 0.6]; a1 = sigmoid(z1); out = [a1_0 - a1_1, 2 a1_0 + a1_1 + 1]
    expected = np.array([0.0854022724042095, 3.107773463485805])
    assert np.max(np.abs(out - expected)) < 1e-12
    a1 = 1.0 / (1.0 + np.exp(-np.array([1.0, 0.6])))
    assert np.max(np.abs(acts[1] - a1)) < 1e-15


def test_forward_dim_mismatch():
    with pytest.raises(DataError):
        forward(toy_model(), np.zeros(11))


def test_forward_batch_matches_single():
    model = toy_model(3)
    rng = np.random.default_rng(0)
    X = rng.random((5, 10))
    batch_out, _ = forward(model, X)
    for i in range(5):
        single, _ = forward(model, X[i])
        assert np.max(np.abs(batch_out[i] - single)) < 1e-15


def test_forward_reuses_cache_buffers():
    model = toy_model(4)
    rng = np.random.default_rng(1)
    X1, X2 = rng.random((5, 10)), rng.random((5, 10))
    expected, _ = forward(model, X2)
    _, cache = forward(model, X1)
    buffers = [a.ctypes.data for a in cache[1:]]
    out, again = forward(model, X2, cache)
    assert again is cache and np.array_equal(out, expected)
    assert [a.ctypes.data for a in again[1:]] == buffers
    with pytest.raises(DataError, match="cache"):
        forward(model, X2[:4], cache)


def test_reconstruct_bitwise_matches_forward():
    model = build_model("refined", seed=2)
    rng = np.random.default_rng(2)
    X = rng.random((33, 301))
    out = reconstruct(model, X)
    assert out.tobytes() == forward(model, X)[0].tobytes()
    assert reconstruct(model, X[0]).tobytes() == forward(model, X[0])[0].tobytes()
    with pytest.raises(DataError):
        reconstruct(model, np.zeros(322))


def test_reconstruct_blocks_give_the_whole_array_bits():
    """2 500 rows run sigmoid in three blocks, the last one ragged; the bits are those
    of each layer evaluated on the whole array at once."""
    model = build_model("prime", seed=5)
    X = np.random.default_rng(5).random((2500, 322))
    a = X
    for W, b, act in zip(model.weights, model.biases, model.activations):
        a = np.matmul(a, W.T) + b
        if act == "sigmoid":
            a = sigmoid(a)
    assert reconstruct(model, X).tobytes() == a.tobytes()


def test_reconstruct_memory_is_two_buffers():
    """Two output-sized buffers and block-sized sigmoid temporaries: under 2.15x the
    output for 6 000 rows, where whole-array sigmoid temporaries would pass 2.2x."""
    model = build_model("prime", seed=3)
    X = np.random.default_rng(0).random((6000, 322))
    tracemalloc.start()
    try:
        out = reconstruct(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.15 * out.nbytes, f"peak {peak / 1e6:.1f} MB for {out.nbytes / 1e6:.1f} MB"


def test_encode_hits_bottleneck():
    model = build_model("prime", seed=0)
    h = encode(model, np.zeros(322))
    assert h.shape == (143,)


def test_mse_examples():
    assert mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse_loss(np.array([2.0, 3.0]), np.array([1.0, 2.0])) == 1.0
    assert mse_loss(np.array([3.0, 4.0]), np.array([0.0, 0.0])) == 12.5
    with pytest.raises(DataError):
        mse_loss(np.zeros(2), np.zeros(3))


def test_backward_matches_finite_differences():
    model = toy_model(0)
    rng = np.random.default_rng(1000)
    x = rng.random(10)
    _, cache = forward(model, x)
    dWs, dbs = backward(model, cache, x)
    params = model.weights + model.biases

    def loss():
        out, _ = forward(model, x)
        return mse_loss(out, x)

    numeric = central_difference_grads(loss, params, h=1e-5)
    assert max_relative_gradient_error(dWs + dbs, numeric) < 1e-5


def test_backward_zero_at_stationary_point():
    # identity network reconstructs exactly, so every gradient vanishes
    model = new_model((4, 4, 4), ("linear", "linear"), seed=0)
    for W in model.weights:
        W[...] = np.eye(4)
    x = np.array([0.3, -1.2, 0.7, 2.0])
    out, cache = forward(model, x)
    assert np.array_equal(out, x)
    dWs, dbs = backward(model, cache, x)
    for g in dWs + dbs:
        assert np.max(np.abs(g)) <= 1e-10


def test_backward_final_bias_gradient_form():
    model = toy_model(5)
    rng = np.random.default_rng(2)
    x = rng.random(10)
    out, cache = forward(model, x)
    _, dbs = backward(model, cache, x)
    assert np.max(np.abs(dbs[-1] - (2.0 / 10) * (out - x))) < 1e-15


def test_backward_rejects_stale_cache():
    model = toy_model(1)
    x = np.ones(10)
    _, cache = forward(model, x)
    with pytest.raises(DataError):
        backward(model, cache, np.zeros(10))


def test_adam_first_step_closed_form():
    theta = np.array([0.0])
    state = AdamState.for_params([theta])
    adam_step(state, [theta], [np.array([1.0])], t=1)
    assert abs(theta[0] - (-1e-3 / (1.0 + 1e-8))) < 1e-12


def test_adam_zero_gradient_no_move():
    theta = np.array([1.5, -2.0])
    state = AdamState.for_params([theta])
    adam_step(state, [theta], [np.zeros(2)], t=1)
    assert np.array_equal(theta, [1.5, -2.0])


def test_adam_guards():
    theta = np.array([1.0])
    state = AdamState.for_params([theta])
    with pytest.raises(DataError):
        adam_step(state, [theta], [np.array([1.0])], t=0)
    with pytest.raises(DataError):
        adam_step(state, [theta], [np.zeros(2)], t=1)


def test_adam_quadratic_convergence():
    theta = np.array([1.0])
    state = AdamState.for_params([theta])
    trail = []
    for t in range(1, 5001):
        adam_step(state, [theta], [2.0 * theta], t)
        trail.append(abs(float(theta[0])))
    trail = np.array(trail)
    assert trail[-1] < 1e-2
    # |theta| descends monotonically until it first reaches zero's neighborhood
    first_small = int(np.argmax(trail < 1e-3))
    assert np.all(np.diff(trail[:first_small]) <= 0)
    assert trail[first_small:].max() < 1e-2


def test_adam_slices_give_the_whole_array_bits():
    """A buffer of three full slices and a remainder, updated over several steps,
    matches the formula applied to the whole arrays at once, bit for bit."""
    from drivemon.net import ADAM_BLOCK_SIZE

    rng = np.random.default_rng(8)
    n = 3 * ADAM_BLOCK_SIZE + 5
    theta = rng.normal(size=n)
    p, m, v = theta.copy(), np.zeros(n), np.zeros(n)
    state = AdamState.for_params([theta])
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = rng.normal(size=n)
        adam_step(state, [theta], [g], t, lr=lr, beta1=b1, beta2=b2, eps=eps)
        m = b1 * m + g * (1.0 - b1)
        v = b2 * v + (g * g) * (1.0 - b2)
        p = p - (m / (1.0 - b1 ** t)) * lr / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert theta.tobytes() == p.tobytes()
        assert state.m[0].tobytes() == m.tobytes() and state.v[0].tobytes() == v.tobytes()


def test_adam_refuses_a_strided_parameter():
    """A slice of a non-contiguous array would be a copy, and the update would be lost."""
    theta = np.zeros((4, 4))[:, ::2]
    state = AdamState.for_params([theta])
    with pytest.raises(DataError, match="contiguous"):
        adam_step(state, [theta], [np.ones_like(theta)], t=1)


def _nominal_feature_matrix(duration_s=240.0, seed=0, variant="refined"):
    import drivemon as dm
    from drivemon.synth import NominalProfile, generate_nominal

    stream = generate_nominal(NominalProfile(duration_s=duration_s), seed)
    derived = dm.derive_stream(stream)
    X, _, _ = dm.feature_matrix(derived, dm.WindowSpec(), dm.feature_mask(variant))
    scaler = dm.fit_scaler(X, variant=variant)
    return scaler.transform(X)


def test_train_loss_decreases_on_nominal_data():
    X = _nominal_feature_matrix()
    model = build_model("refined", seed=1)
    model, report = train(model, X, TrainConfig(rng_seed=1, epochs=5))
    assert report.final_train_loss < report.train_losses[0]
    assert all(np.isfinite(report.train_losses))
    assert len(report.train_losses) == len(report.val_losses) == 5


def test_train_is_deterministic():
    X = np.random.default_rng(7).random((50, 8))
    runs = []
    for _ in range(2):
        model = new_model([8, 4, 2, 4, 8], ["linear", "sigmoid", "linear", "linear"], seed=3)
        model, report = train(model, X, TrainConfig(rng_seed=5, epochs=3, batch_size=16))
        runs.append((report, model))
    assert runs[0][0].train_losses == runs[1][0].train_losses
    assert runs[0][0].val_losses == runs[1][0].val_losses
    for Wa, Wb in zip(runs[0][1].weights, runs[1][1].weights):
        assert np.array_equal(Wa, Wb)


def test_train_bitwise_matches_reference_loop():
    # 700 rows: 140 validation, 560 training in batches of 256, 256 and a ragged 48
    X = np.random.default_rng(5).random((700, 322))
    model = build_model("prime", seed=4)
    config = TrainConfig(rng_seed=6, epochs=3)
    ref_W, ref_b, ref_train, ref_val = reference_train(
        model.weights, model.biases, model.activations, X, config)
    model, report = train(model, X, config)
    for got, want in zip(model.weights + model.biases, ref_W + ref_b):
        assert np.array_equal(got, want)
    assert report.train_losses == ref_train
    assert report.val_losses == ref_val


def test_train_memory_holds_no_copy_of_the_training_rows():
    """Batches are gathered from X itself: the peak stays under 3.5x X (a copy of the
    training rows alone would add 0.8x)."""
    X = np.random.default_rng(3).random((4000, 322))
    model = build_model("prime", seed=1)
    tracemalloc.start()
    try:
        train(model, X, TrainConfig(rng_seed=1, epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * X.nbytes, f"peak {peak / 1e6:.1f} MB for a {X.nbytes / 1e6:.1f} MB X"


def test_train_validation_holds_no_activation_cache():
    """Each epoch's validation loss comes from reconstruct's two buffers: with half of 4 000
    rows held out the peak stays under 3.5x X (3.1x measured); forward's cache of every
    layer for the validation rows kept it at 5.0x."""
    X = np.random.default_rng(3).random((4000, 322))
    model = build_model("prime", seed=1)
    tracemalloc.start()
    try:
        train(model, X, TrainConfig(rng_seed=1, epochs=1, validation_fraction=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * X.nbytes, f"peak {peak / 1e6:.1f} MB for a {X.nbytes / 1e6:.1f} MB X"


def test_train_validation_holds_two_buffers_across_epochs():
    """Validation runs in two buffers allocated once per train: over 2 epochs with half of
    4 000 rows held out, the peak stays under 3.0x X (2.6x measured). A copy of the
    validation rows (0.5x X) surviving from one epoch into the next kept it at 3.6x."""
    X = np.random.default_rng(3).random((4000, 322))
    model = build_model("prime", seed=1)
    tracemalloc.start()
    try:
        train(model, X, TrainConfig(rng_seed=1, epochs=2, validation_fraction=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * X.nbytes, f"peak {peak / 1e6:.1f} MB for a {X.nbytes / 1e6:.1f} MB X"


def test_train_steps_run_inside_the_validation_buffers():
    """Each step's activations and residual are views into the two validation buffers:
    over 2 epochs with half of 4 000 rows held out, in batches of 256 and a ragged 208,
    the peak stays under 2.3x X (2.0x measured). A separate activation cache and
    residual per batch size kept it at 2.6x."""
    X = np.random.default_rng(3).random((4000, 322))
    model = build_model("prime", seed=1)
    tracemalloc.start()
    try:
        train(model, X, TrainConfig(rng_seed=1, epochs=2, validation_fraction=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * X.nbytes, f"peak {peak / 1e6:.1f} MB for a {X.nbytes / 1e6:.1f} MB X"


def test_train_no_overfit_on_nominal_data():
    # 200-epoch run on a modest nominal set: validation tracks training
    X = _nominal_feature_matrix(duration_s=600.0, seed=2)
    model = build_model("refined", seed=2)
    model, report = train(model, X, TrainConfig(rng_seed=2, epochs=200))
    assert report.final_val_loss < 2.0 * report.final_train_loss


def test_train_aborts_on_divergence():
    X = np.random.default_rng(0).random((40, 6)) * 10.0
    model = new_model([6, 4, 6], ["linear", "linear"], seed=0)
    # a colossal step size overflows the all-linear forward pass immediately
    with pytest.raises(TrainingError, match="epoch"):
        train(model, X, TrainConfig(rng_seed=0, epochs=50, learning_rate=1e200))


def test_train_guards():
    model = new_model([4, 2, 4], ["linear", "linear"], seed=0)
    with pytest.raises(DataError):
        train(model, np.zeros((5, 4)), TrainConfig(rng_seed=0, epochs=1))  # < 10 rows
    with pytest.raises(DataError):
        train(model, np.zeros((20, 3)), TrainConfig(rng_seed=0, epochs=1))  # bad width
    with pytest.raises(DataError):
        TrainConfig(rng_seed=0, epochs=0)
    with pytest.raises(DataError):
        TrainConfig(rng_seed=0, validation_fraction=1.0)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("beta1", 1.0), ("beta1", -0.1), ("beta1", float("nan")),
    ("beta2", 1.0), ("beta2", float("inf")), ("eps", 0.0), ("eps", float("inf")),
    ("eps", float("nan")),
])
def test_train_config_refuses_out_of_range_adam_settings(field, value):
    """ADAM's step size and epsilon must be finite and positive, and each moment decay in
    [0, 1); a bad one is named before any data is read."""
    with pytest.raises(DataError, match=field):
        TrainConfig(rng_seed=0, **{field: value})


def _stored_params(path):
    """The parameter buffer save_model wrote beside the model JSON at path."""
    return np.frombuffer(path.with_suffix(".params").read_bytes(), dtype="<f8")


def _rewrite(path, **fields):
    doc = json.loads(path.read_text())
    doc.update(fields)
    path.write_text(json.dumps(doc))


def test_params_is_one_buffer_of_layer_views():
    model = toy_model(2)
    expected = np.concatenate([a.ravel() for W, b in zip(model.weights, model.biases)
                               for a in (W, b)])
    assert np.array_equal(model.params, expected)
    model.weights[1][0, 0] = 7.0
    model.biases[1][0] = 8.0
    w1 = TOY_DIMS[1] * TOY_DIMS[0] + TOY_DIMS[1]
    assert model.params[w1] == 7.0
    assert model.params[w1 + TOY_DIMS[2] * TOY_DIMS[1]] == 8.0


def test_save_load_roundtrip(tmp_path):
    model = toy_model(11)
    x = np.random.default_rng(1).random(10)
    out_before, _ = forward(model, x)
    path = tmp_path / "model.json"
    model.train_config = TrainConfig(rng_seed=11, epochs=2).to_json()
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"variant", "dims", "activations", "params_sha256", "seed",
                        "train_config"}
    assert (tmp_path / "model.params").read_bytes() == model.params.astype("<f8").tobytes()
    back = load_model(path)
    out_after, _ = forward(back, x)
    assert np.array_equal(out_before, out_after)
    assert back.params.tobytes() == model.params.tobytes()
    assert back.params.flags.writeable
    assert back.dims == model.dims
    assert back.train_config == model.train_config


def test_load_rejects_truncated_file(tmp_path):
    model = toy_model(0)
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(path.read_text()[:100])
    with pytest.raises(ArtifactError):
        load_model(path)


def test_load_rejects_inconsistent_shapes(tmp_path):
    model = toy_model(0)
    path = tmp_path / "model.json"
    save_model(model, path)
    dims = list(TOY_DIMS)
    dims[1] = 99
    _rewrite(path, dims=dims)
    with pytest.raises(ArtifactError, match="model.json: params holds 1712 bytes, but dims"):
        load_model(path)


@pytest.mark.parametrize("bad", [6.5, True], ids=["fraction", "bool"])
def test_load_rejects_non_integer_dims(tmp_path, bad):
    path = tmp_path / "model.json"
    save_model(toy_model(0), path)
    dims = list(TOY_DIMS)
    dims[1] = bad
    _rewrite(path, dims=dims)
    with pytest.raises(ArtifactError, match="model.json: bad value in field 'dims'"):
        load_model(path)


def test_load_refuses_base64_format(tmp_path):
    """A model.json of the older format, params as base64 inside the JSON, is refused."""
    path = tmp_path / "model.json"
    save_model(toy_model(0), path)
    raw = (tmp_path / "model.params").read_bytes()
    doc = json.loads(path.read_text())
    del doc["params_sha256"]
    doc["params"] = base64.b64encode(raw).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="model.json: .*older model format.*model.params"):
        load_model(path)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _flip_byte(path):
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0x01
    path.write_bytes(bytes(raw))


def _other_seed(path):
    other = path.parent / "other"
    other.mkdir()
    save_model(toy_model(1), other / "model.json")
    shutil.copyfile(other / "model.params", path)


@pytest.mark.parametrize("damage,match", [
    (lambda p: p.unlink(), r"model.json: cannot read its parameters from .*model.params"),
    (_truncate, r"model.params: SHA-256 does not match params_sha256 in .*model.json"),
    (_flip_byte, r"model.params: SHA-256 does not match params_sha256 in .*model.json"),
    (_other_seed, r"model.params: SHA-256 does not match params_sha256 in .*model.json"),
], ids=["missing", "truncated", "flipped-byte", "other-seed"])
def test_load_rejects_damaged_params_file(tmp_path, damage, match):
    path = tmp_path / "model.json"
    save_model(toy_model(0), path)
    damage(tmp_path / "model.params")
    with pytest.raises(ArtifactError, match=match):
        load_model(path)


@pytest.mark.parametrize("param", ["weights", "biases"])
def test_load_rejects_non_finite_parameters(tmp_path, param):
    model = toy_model(0)
    path = tmp_path / "model.json"
    save_model(model, path)
    params = _stored_params(path).copy()
    # layer 0 is W_0 then b_0; layer 1's weights follow, then its biases
    w1 = TOY_DIMS[1] * TOY_DIMS[0] + TOY_DIMS[1]
    params[w1 if param == "weights" else w1 + TOY_DIMS[2] * TOY_DIMS[1]] = np.nan
    store_params(path, params)
    with pytest.raises(ArtifactError, match="model.json: layer 1 .*model.params"):
        load_model(path)


def test_load_refuses_list_format(tmp_path):
    model = toy_model(0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "variant": model.variant, "dims": list(model.dims),
        "activations": list(model.activations),
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": 0, "train_config": None,
    }))
    with pytest.raises(ArtifactError, match="model.json: .*retrain"):
        load_model(path)


def test_load_rejects_unknown_activation(tmp_path):
    path = tmp_path / "model.json"
    save_model(toy_model(0), path)
    _rewrite(path, activations=["linear", "relu", "linear", "sigmoid", "linear"])
    with pytest.raises(ArtifactError, match="model.json: layer 1 has unknown activation 'relu'"):
        load_model(path)
