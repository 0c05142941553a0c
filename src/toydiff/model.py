"""Small fully-connected networks with analytic backpropagation.

One architecture serves two roles: the noise predictor eps_hat(x_t, t[, y])
with a linear output head, and the noisy-input classifier p(y | x_t, t)
with a log-softmax head.  No autodiff framework is used; gradients are
hand-derived and verified against finite differences in the test suite.

Input features are the state x concatenated with a 4-feature time encoding
(t/T, sin(2 pi t/T), cos(2 pi t/T), sqrt(1 - abar_t)) and, for conditional
models, a one-hot label block with a dedicated null slot.  The time encoding
of every step is one read-only (T + 1, 4) table per schedule, built on the
first call with that schedule and indexed by the checked step.

Inference (NoisePredictor.predict, Classifier.log_probs, Classifier.grad_x)
builds the features of all n rows at once, then runs the MLP over blocks of
at most ROWS rows into one (n, out) array.  Each layer's (ROWS, width)
temporaries then stay in cache, and peak inference memory no longer grows
with n times the hidden width.  A call with n <= ROWS, and every training
batch, runs in one pass.  BLAS may round a product differently by row count,
at any count: on the AVX-512 OpenBLAS kernel (SkylakeX) that the golden
digests pin, row 0 of an n-row predict (hidden (64, 64)) differed from the
same row run alone for 296 of n = 2..299, by at most 5.6e-17.  So a chain run
inside a batch of chains matches the same chain run alone only to the last
bits, and a blocked result can differ from a one-pass result in the last
bits; the tests hold the latter to 1e-12.  ROWS = 256 was chosen
by timing one call at n = 10,000 (hidden (64, 64), one OpenBLAS thread,
2-vCPU Xeon): predict / grad_x took 10.2 / 21.2 ms in one pass and 8.4 / 19.8,
7.1 / 14.8, 6.5 / 12.4, 6.6 / 11.9, 6.3 / 11.3, 6.4 / 11.8 and 6.7 / 12.7 ms at
ROWS = 32, 64, 128, 256, 512, 1024 and 2048.  128 to 1024 tie within the
noise, and 256 keeps a (ROWS, 64) block at 128 KB.
"""

import numpy as np

from .schedules import check_count, check_index, check_t

N_TIME_FEATURES = 4
ROWS = 256  # rows per block of an inference pass (see above)


def _widths(data_dim, hidden, out_dim, conditioning):
    """(data_dim, hidden, out_dim, conditioning) checked as counts and made ints, then
    the layer widths (features, hidden..., head) and the parameter count of the MLP."""
    d, out, *hidden = (check_count(w, 1, "layer width") for w in (data_dim, out_dim, *hidden))
    k = None if conditioning is None else check_count(conditioning, 1, "conditioning")
    widths = (d + N_TIME_FEATURES + (0 if k is None else k + 1), *hidden, out)
    return (d, tuple(hidden), out, k), widths, sum(a * b + b for a, b in zip(widths, widths[1:]))


def _layers(p, widths):
    """Views (W, b) per layer into the flat parameter array p."""
    out, off = [], 0
    for n_in, n_out in zip(widths, widths[1:]):
        end = off + n_in * n_out
        out.append((p[off:end].reshape(n_in, n_out), p[end:end + n_out]))
        off = end + n_out
    return out


def _init_params(widths, n_params, rng):
    """uniform(+-1/sqrt(fan_in)) weights and zero biases, drawn layer by layer."""
    p = np.zeros(n_params)
    for W, _ in _layers(p, widths):
        W[...] = rng.uniform(-1.0, 1.0, W.shape) / np.sqrt(W.shape[0])
    return p


def _log_softmax(logits):
    """Row-wise log-softmax through the max-shifted log-sum-exp."""
    m = logits.max(axis=1, keepdims=True)
    return logits - (m + np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True)))


class _Network:
    """Shared MLP core: tanh hidden layers, head chosen by subclass."""

    def __init__(self, data_dim, hidden, out_dim, conditioning, params):
        sizes, self.widths, self.n_params = _widths(data_dim, hidden, out_dim, conditioning)
        self.data_dim, self.hidden, self.out_dim, self.conditioning = sizes
        self.in_features = self.widths[0]
        params = np.array(params, dtype=np.float64)  # a copy: SGD updates it in place
        if params.shape != (self.n_params,):
            raise ValueError(f"params must be a flat array of length {self.n_params}")
        if not np.all(np.isfinite(params)):
            raise ValueError("params must be finite")
        self.params = params
        self._viewed = self._views = None
        self._timed = self._times = None

    def _layers(self):
        """(W, b) views into self.params, rebuilt only when params is reassigned."""
        if self._viewed is not self.params:
            self._views = _layers(self.params, self.widths)
            self._viewed = self.params
        return self._views

    def _time_table(self, sched):
        """The read-only time encoding of sched, row t for step t, rebuilt when sched changes."""
        if self._timed is not sched:
            frac = np.arange(sched.T + 1) / sched.T
            table = np.stack((frac, np.sin(2.0 * np.pi * frac), np.cos(2.0 * np.pi * frac),
                              np.sqrt(1.0 - sched.alpha_bar)), axis=1)
            table.setflags(write=False)
            self._times, self._timed = table, sched
        return self._times

    def _features(self, x, t, y, sched):
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        xb = np.atleast_2d(x)
        if xb.shape[1] != self.data_dim:
            raise ValueError("dimension mismatch between x and model")
        n, d = xb.shape
        t = check_t(t, sched)
        feats = np.zeros((n, self.in_features))
        feats[:, :d] = xb
        feats[:, d:d + N_TIME_FEATURES] = self._time_table(sched)[t]  # the time encoding follows x
        if self.conditioning is None:
            if y is not None:
                raise ValueError("unconditional model: y must be None")
        else:
            k = self.conditioning
            ys = check_index(-1 if y is None else y, -1, k - 1, "label")  # -1: null label
            if np.ndim(ys) > 1 or np.size(ys) not in (1, n):
                raise ValueError("label: need one label, or one per row")
            cols = np.where(ys < 0, -1, ys - k - 1)  # last column = null
            feats[np.arange(n), cols] = 1.0
        return feats, squeeze

    def _forward(self, feats):
        """Forward pass; returns raw output and activation cache."""
        acts = [feats]
        a = feats
        layers = self._layers()
        for i, (W, b) in enumerate(layers):
            a = a @ W
            a += b
            if i < len(layers) - 1:
                np.tanh(a, out=a)
            acts.append(a)
        return a, acts

    def _backward(self, acts, d_out, param_grad=True):
        """Backprop d_out through the cached pass; overwrites the hidden activations.

        With param_grad True returns (flat parameter gradient, None): the pass stops
        before the first layer's input gradient, which no training caller reads.
        With param_grad False returns (None, gradient w.r.t. the feature rows).
        """
        layers = self._layers()
        flat = np.empty(self.n_params) if param_grad else None
        grads = _layers(flat, self.widths) if param_grad else None
        delta = d_out
        for i in range(len(layers) - 1, -1, -1):
            if param_grad:
                gW, gb = grads[i]
                np.matmul(acts[i].T, delta, out=gW)
                np.sum(delta, axis=0, out=gb)
                if i == 0:
                    return flat, None
            delta = delta @ layers[i][0].T
            if i > 0:  # tanh', written over the activation it was computed from
                delta *= np.subtract(1.0, np.square(acts[i], out=acts[i]), out=acts[i])
        return flat, delta

    def _by_rows(self, feats, width, f):
        """f(feats) when n <= ROWS; else f over blocks of at most ROWS rows of feats,
        written into one (n, width) array."""
        n = feats.shape[0]
        if n <= ROWS:
            return f(feats)
        out = np.empty((n, width))
        for i in range(0, n, ROWS):
            out[i:i + ROWS] = f(feats[i:i + ROWS])
        return out

    def _output(self, feats):
        """The raw network output, block by block."""
        return self._by_rows(feats, self.out_dim, lambda f: self._forward(f)[0])


class NoisePredictor(_Network):
    """eps_hat(x_t, t[, y]) = mlp(features) + sqrt(1 - abar_t) * x, always.

    The parameter-free baseline is the exact eps for a N(0, I) target, so the
    linear head (width data_dim) learns only the residual.  A plain tanh net
    saturates for large |x| and cannot track eps ~ x in the tails, which wrecks
    deterministic sampling; the baseline restores linear extrapolation while
    leaving the parameter gradient untouched.
    """

    def __init__(self, data_dim, hidden, conditioning, params):
        super().__init__(data_dim, hidden, data_dim, conditioning, params)

    def _baseline(self, feats):
        """sqrt(1 - abar_t) * x, both read from the feature rows."""
        d = self.data_dim
        return feats[:, d + N_TIME_FEATURES - 1, None] * feats[:, :d]

    def predict(self, x, t, y=None, sched=None):
        feats, squeeze = self._features(x, t, y, sched)
        out = self._output(feats) + self._baseline(feats)
        return out[0] if squeeze else out

    def loss_and_grad(self, x_t, t, y, eps, sched, weights=None):
        """Mean (optionally per-sample weighted) squared noise-prediction
        error and its parameter gradient; ``weights`` default to ones."""
        eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
        n = eps.shape[0]
        if n == 0:
            raise ValueError("empty batch")
        feats, _ = self._features(x_t, t, y, sched)
        if feats.shape[0] != n or eps.shape[1] != self.data_dim:
            raise ValueError("batch shape mismatch")
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError("weights must hold one value per batch row")
        out, acts = self._forward(feats)
        resid = out + self._baseline(feats) - eps
        sq = np.sum(resid ** 2, axis=1)
        if weights is None:  # unit weights multiply by 1.0 exactly: skipping them keeps the bits
            d_out = 2.0 * resid
        else:
            sq, d_out = w * sq, 2.0 * w[:, None] * resid
        grad, _ = self._backward(acts, d_out / n)
        return float(np.mean(sq)), grad


class Classifier(_Network):
    """p(y | x_t, t): K-way log-softmax head over noisy inputs."""

    def __init__(self, data_dim, hidden, n_classes, params):
        self.n_classes = check_count(n_classes, 2, "n_classes")
        super().__init__(data_dim, hidden, self.n_classes, None, params)

    def log_probs(self, x, t, sched):
        feats, squeeze = self._features(x, t, None, sched)
        lp = _log_softmax(self._output(feats))
        return lp[0] if squeeze else lp

    def grad_x(self, x, t, y, sched):
        """Analytic gradient of log p(y | x, t) with respect to x."""
        if np.ndim(y):
            raise ValueError("grad_x takes one class id")
        y = check_index(y, 0, self.n_classes - 1, "class id")
        feats, squeeze = self._features(x, t, None, sched)
        gx = self._by_rows(feats, self.data_dim, lambda f: self._grad_x_rows(f, y))
        return gx[0] if squeeze else gx

    def _grad_x_rows(self, feats, y):
        """grad_x for the rows of feats: one forward and one backward pass."""
        logits, acts = self._forward(feats)
        m = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - m)
        p /= p.sum(axis=1, keepdims=True)
        d_logits = -p
        d_logits[:, y] += 1.0
        _, d_feats = self._backward(acts, d_logits, param_grad=False)
        return d_feats[:, :self.data_dim]

    def nll_and_grad(self, x_t, t, y, sched):
        """Mean negative log-likelihood and its parameter gradient."""
        y = check_index(np.atleast_1d(y), 0, self.n_classes - 1, "labels")
        feats, _ = self._features(x_t, t, None, sched)
        n = feats.shape[0]
        if y.shape != (n,):
            raise ValueError("labels: need one per row")
        rows = (np.arange(n), y)
        logits, acts = self._forward(feats)
        lp = _log_softmax(logits)
        loss = float(-np.mean(lp[rows]))
        d_logits = np.exp(lp)
        d_logits[rows] -= 1.0
        grad, _ = self._backward(acts, d_logits / n)
        return loss, grad


def init_noise_predictor(data_dim, hidden=(64, 64), conditioning=None, *, rng):
    """Fresh noise predictor: uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    params = _init_params(*_widths(data_dim, hidden, data_dim, conditioning)[1:], rng)
    return NoisePredictor(data_dim, hidden, conditioning, params)


def init_classifier(data_dim, n_classes, hidden=(64, 64), *, rng):
    """Fresh classifier with the same initialization scheme."""
    n_classes = check_count(n_classes, 2, "n_classes")  # before any draw
    params = _init_params(*_widths(data_dim, hidden, n_classes, None)[1:], rng)
    return Classifier(data_dim, hidden, n_classes, params)
