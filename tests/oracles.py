"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, textbook way (pure-Python
loops, fsum, explicit enumeration, eigendecompositions) and never calls the
code under test.
"""

import math

import numpy as np


def stats7_oracle(xs):
    """Mean, population std, excess kurtosis, skew, min, max, median."""
    xs = [float(x) for x in xs]
    n = len(xs)
    mean = math.fsum(xs) / n
    m2 = math.fsum((x - mean) ** 2 for x in xs) / n
    m3 = math.fsum((x - mean) ** 3 for x in xs) / n
    m4 = math.fsum((x - mean) ** 4 for x in xs) / n
    std = math.sqrt(m2)
    skew = 0.0 if m2 == 0.0 else m3 / m2 ** 1.5
    kurt = 0.0 if m2 == 0.0 else m4 / m2 ** 2 - 3.0
    ordered = sorted(xs)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    return [mean, std, kurt, skew, min(xs), max(xs), median]


def window_count_oracle(n_frames, window_frames=32, stride_frames=8):
    """Count window placements by explicit enumeration."""
    count = 0
    start = 0
    while start + window_frames <= n_frames:
        count += 1
        start += stride_frames
    return count


def nearest_rank_oracle(n, percentile):
    """Smallest 1-based rank r with r/n >= percentile/100, found by scanning."""
    from fractions import Fraction

    target = Fraction(str(percentile)) / 100
    for r in range(1, n + 1):
        if Fraction(r, n) >= target:
            return r
    return n


def pca_reconstruction_mse(X, k):
    """Reconstruction MSE of the top-k principal components (eigh-based)."""
    X = np.asarray(X, dtype=np.float64)
    mu = X.mean(axis=0)
    Xc = X - mu
    C = (Xc.T @ Xc) / X.shape[0]
    _, V = np.linalg.eigh(C)
    Vk = V[:, -k:]
    recon = mu + (Xc @ Vk) @ Vk.T
    return float(np.mean((X - recon) ** 2))


def central_difference_grads(loss_fn, params, h=1e-5):
    """Numerical gradient of loss_fn() wrt every entry of every param array."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss_fn()
            flat_p[i] = orig - h
            down = loss_fn()
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_gradient_error(analytic, numeric, floor=1e-4):
    """Worst relative disagreement, with an absolute floor for tiny gradients."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def reference_sigmoid(z):
    """Logistic function by boolean gather and scatter, split by sign."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_train(weights, biases, activations, X, config):
    """Autoencoder training with per-layer arrays and list-wise ADAM.

    The loop the flat-buffer trainer must reproduce bit for bit: the same
    seeded split and shuffles, full-batch forward passes through
    reference_sigmoid, per-layer backprop and per-array ADAM (Kingma & Ba
    2015, Alg. 1). Trains copies of the given arrays and returns
    (weights, biases, train_losses, val_losses).
    """
    weights = [np.array(W, dtype=np.float64) for W in weights]
    biases = [np.array(b, dtype=np.float64) for b in biases]

    def forward(x):
        acts = [x]
        for W, b, act in zip(weights, biases, activations):
            z = acts[-1] @ W.T + b
            acts.append(reference_sigmoid(z) if act == "sigmoid" else z)
        return acts

    def mse(x_hat, x):
        d = x_hat - x
        return float(np.mean(d * d))

    def backward(acts, x):
        out = acts[-1]
        delta = (out - x) * (2.0 / out.size)
        dWs, dbs = [None] * len(weights), [None] * len(weights)
        for l in range(len(weights) - 1, -1, -1):
            a = acts[l + 1]
            grad = np.ones_like(a) if activations[l] == "linear" else a * (1.0 - a)
            dz = delta * grad
            dWs[l] = dz.T @ acts[l]
            dbs[l] = dz.sum(axis=0)
            if l > 0:
                delta = dz @ weights[l]
        return dWs, dbs

    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]

    def adam(grads, t):
        lr, beta1, beta2, eps = (config.learning_rate, config.beta1,
                                 config.beta2, config.eps)
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for mi, vi, p, g in zip(m, v, params, grads):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * (g * g)
            p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)

    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(config.rng_seed)
    n = X.shape[0]
    perm = rng.permutation(n)
    n_val = min(max(1, round(n * config.validation_fraction)), n - 1)
    X_val, X_train = X[perm[:n_val]], X[perm[n_val:]]
    n_train, d = X_train.shape
    train_losses, val_losses = [], []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n_train)
        sse = 0.0
        for b0 in range(0, n_train, config.batch_size):
            batch = X_train[order[b0:b0 + config.batch_size]]
            acts = forward(batch)
            sse += mse(acts[-1], batch) * batch.size
            dWs, dbs = backward(acts, batch)
            step += 1
            adam(dWs + dbs, step)
        train_losses.append(sse / (n_train * d))
        val_losses.append(mse(forward(X_val)[-1], X_val))
    return weights, biases, train_losses, val_losses


def reference_stats_block(data):
    """The seven window statistics with np.min, np.max and np.median.

    This is the reduction-per-statistic form the sort-based `_stats_block`
    replaced; its arithmetic is kept here so the two can be compared bit for
    bit. `data` is (n, frames, channels); returns (n, channels, 7).
    """
    x = np.swapaxes(data, 1, 2)
    mean = x.mean(axis=-1)
    mn = x.min(axis=-1)
    mx = x.max(axis=-1)
    med = np.median(x, axis=-1)
    d = x - mean[..., None]
    m2 = np.mean(d * d, axis=-1)
    const = (mn == mx) | (m2 == 0.0)
    std = np.where(const, 0.0, np.sqrt(m2))
    z = d / np.where(const, 1.0, std)[..., None]
    z3 = z * z * z
    skew = np.where(const, 0.0, np.mean(z3, axis=-1))
    kurt = np.where(const, 0.0, np.mean(z3 * z, axis=-1) - 3.0)
    return np.stack([mean, std, kurt, skew, mn, mx, med], axis=-1)


def bounded_walk_oracle(rng, n, step_sd, reversion, clamp):
    """The suspension walk stepped over numpy scalars, one frame at a time: the loop
    that synth's block-wise walk over Python floats replaced, kept for comparison."""
    steps = rng.normal(0.0, step_sd, n)
    keep = 1.0 - reversion
    out = np.empty(n)
    x = 0.0
    for k in range(n):
        x = x * keep + steps[k]
        if x > clamp:
            x = clamp
        elif x < -clamp:
            x = -clamp
        out[k] = x
    return out


def top_contributors(e, a, names):
    """Top features of one residual row e by magnitude, at most 3, each >= 10% of the
    score a, ties to the lower index, the top one always kept: the row-by-row loop
    that `detect.flag`'s pass over every flagged row replaced, kept for comparison."""
    mags = np.abs(np.asarray(e, dtype=np.float64))
    order = np.argsort(-mags, kind="stable")[:3]
    picked = []
    for rank, idx in enumerate(order):
        if rank > 0 and mags[idx] < 0.10 * a:
            break
        picked.append((names[int(idx)], float(mags[idx])))
    return tuple(picked)
