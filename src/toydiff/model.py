"""Small fully-connected networks with analytic backpropagation.

One architecture serves two roles: the noise predictor eps_hat(x_t, t[, y])
with a linear output head, and the noisy-input classifier p(y | x_t, t)
with a log-softmax head.  No autodiff framework is used; gradients are
hand-derived and verified against finite differences in the test suite.

Input features are the state x concatenated with a 4-feature time encoding
(t/T, sin(2 pi t/T), cos(2 pi t/T), sqrt(1 - abar_t)) and, for conditional
models, a one-hot label block with a dedicated null slot.
"""

import numpy as np

from .rng import RngState
from .schedules import check_t

N_TIME_FEATURES = 4


def _widths(data_dim, hidden, out_dim, conditioning):
    """(layer widths, parameter count) of the MLP: features, hidden..., head."""
    if data_dim < 1 or out_dim < 1 or any(w < 1 for w in hidden):
        raise ValueError("all layer widths must be >= 1")
    n_in = data_dim + N_TIME_FEATURES + (0 if conditioning is None else conditioning + 1)
    widths = (n_in,) + tuple(hidden) + (out_dim,)
    return widths, sum(a * b + b for a, b in zip(widths, widths[1:]))


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
    rng = rng if rng is not None else RngState(0)
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
        self.data_dim = int(data_dim)
        self.hidden = tuple(int(w) for w in hidden)
        self.out_dim = int(out_dim)
        self.conditioning = None if conditioning is None else int(conditioning)
        self.widths, self.n_params = _widths(self.data_dim, self.hidden, self.out_dim,
                                             self.conditioning)
        self.in_features = self.widths[0]
        params = np.array(params, dtype=np.float64)  # a copy: SGD updates it in place
        if params.shape != (self.n_params,):
            raise ValueError(f"params must be a flat array of length {self.n_params}")
        if not np.all(np.isfinite(params)):
            raise ValueError("params must be finite")
        self.params = params
        self._viewed = self._views = None

    def _layers(self):
        """(W, b) views into self.params, rebuilt only when params is reassigned."""
        if self._viewed is not self.params:
            self._views = _layers(self.params, self.widths)
            self._viewed = self.params
        return self._views

    def _features(self, x, t, y, sched):
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        xb = np.atleast_2d(x)
        if xb.shape[1] != self.data_dim:
            raise ValueError("dimension mismatch between x and model")
        n, d = xb.shape
        t = check_t(t, sched)
        frac = t / sched.T
        feats = np.zeros((n, self.in_features))
        feats[:, :d] = xb
        feats[:, d] = frac  # the N_TIME_FEATURES time-encoding columns follow x
        feats[:, d + 1] = np.sin(2.0 * np.pi * frac)
        feats[:, d + 2] = np.cos(2.0 * np.pi * frac)
        feats[:, d + 3] = np.sqrt(1.0 - sched.alpha_bar[t])
        if self.conditioning is None:
            if y is not None:
                raise ValueError("unconditional model: y must be None")
        else:
            k = self.conditioning
            ys = np.asarray(-1 if y is None else y)
            if (ys.ndim > 1 or ys.size not in (1, n) or not np.all((ys >= -1) & (ys < k))
                    or np.any(ys % 1)):
                raise ValueError(f"label not an integer in [0, {k}) or not one per row")
            cols = np.where(ys < 0, -1, ys.astype(np.int64) - k - 1)  # last column = null
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

        Returns (flat parameter gradient, gradient w.r.t. the feature row).
        With param_grad False the parameter gradient is skipped and returned as None.
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
            delta = delta @ layers[i][0].T
            if i > 0:  # tanh', written over the activation it was computed from
                delta *= np.subtract(1.0, np.square(acts[i], out=acts[i]), out=acts[i])
        return flat, delta


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
        out, _ = self._forward(feats)
        out = out + self._baseline(feats)
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
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("weights must hold one value per batch row")
        out, acts = self._forward(feats)
        resid = out + self._baseline(feats) - eps
        loss = float(np.mean(w * np.sum(resid ** 2, axis=1)))
        grad, _ = self._backward(acts, 2.0 * w[:, None] * resid / n)
        return loss, grad


class Classifier(_Network):
    """p(y | x_t, t): K-way log-softmax head over noisy inputs."""

    def __init__(self, data_dim, hidden, n_classes, params):
        if n_classes < 2:
            raise ValueError("classifier needs at least 2 classes")
        super().__init__(data_dim, hidden, n_classes, None, params)
        self.n_classes = int(n_classes)

    def log_probs(self, x, t, sched):
        feats, squeeze = self._features(x, t, None, sched)
        lp = _log_softmax(self._forward(feats)[0])
        return lp[0] if squeeze else lp

    def grad_x(self, x, t, y, sched):
        """Analytic gradient of log p(y | x, t) with respect to x."""
        if not 0 <= y < self.n_classes or y % 1:
            raise ValueError("invalid class id")
        feats, squeeze = self._features(x, t, None, sched)
        logits, acts = self._forward(feats)
        m = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - m)
        p /= p.sum(axis=1, keepdims=True)
        d_logits = -p
        d_logits[:, int(y)] += 1.0
        _, d_feats = self._backward(acts, d_logits, param_grad=False)
        gx = d_feats[:, :self.data_dim]
        return gx[0] if squeeze else gx

    def nll_and_grad(self, x_t, t, y, sched):
        """Mean negative log-likelihood and its parameter gradient."""
        y = np.atleast_1d(y)
        feats, _ = self._features(x_t, t, None, sched)
        n = feats.shape[0]
        if y.shape != (n,) or not np.all((y >= 0) & (y < self.n_classes)) or np.any(y % 1):
            raise ValueError("labels out of range or not integer-valued")
        rows = (np.arange(n), y.astype(np.int64, copy=False))
        logits, acts = self._forward(feats)
        lp = _log_softmax(logits)
        loss = float(-np.mean(lp[rows]))
        d_logits = np.exp(lp)
        d_logits[rows] -= 1.0
        grad, _ = self._backward(acts, d_logits / n)
        return loss, grad


def init_noise_predictor(data_dim, hidden=(64, 64), conditioning=None, rng=None):
    """Fresh noise predictor: uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    params = _init_params(*_widths(data_dim, hidden, data_dim, conditioning), rng)
    return NoisePredictor(data_dim, hidden, conditioning, params)


def init_classifier(data_dim, n_classes, hidden=(64, 64), rng=None):
    """Fresh classifier with the same initialization scheme."""
    params = _init_params(*_widths(data_dim, hidden, n_classes, None), rng)
    return Classifier(data_dim, hidden, n_classes, params)
