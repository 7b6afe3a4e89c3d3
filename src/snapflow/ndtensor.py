"""Dense float64 tensors with reverse-mode autodiff on a per-step tape, plus Adam.

The graph is define-by-run: every op executed while gradients are enabled
appends one node to the active tape, and ``backward`` replays the tape in
exact reverse recording order. Accumulation order is therefore fixed, which
makes repeated runs with the same seed bit-for-bit reproducible.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an op."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, self.shapes))}")


class GradMissingError(RuntimeError):
    """Raised when an optimizer update is requested for a parameter without a gradient."""


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class Tape:
    """Ordered record of executed ops for one forward pass.

    Each node stores the output tensor, an optional gate and, per input, a
    closure mapping the gated output adjoint to that input's adjoint
    contribution. The gate, when present, runs once per backward visit, so
    inputs that share an intermediate adjoint (a fused layer's
    pre-activation gradient) do not recompute it.
    """

    def __init__(self):
        self.nodes = []          # list of (out, gate or None, [(inp, adjoint_fn), ...])
        self.leaves = []         # requires-grad tensors that are not op outputs
        self._leaf_ids = set()
        self.epoch = 0

    def record(self, out, pairs, gate=None):
        for inp, _ in pairs:
            if inp.requires_grad and inp.node_id is None and id(inp) not in self._leaf_ids:
                self._leaf_ids.add(id(inp))
                self.leaves.append(inp)
        out.node_id = len(self.nodes)
        out.tape_epoch = self.epoch
        self.nodes.append((out, gate, pairs))

    def reset(self):
        self.nodes.clear()
        self.leaves.clear()
        self._leaf_ids.clear()
        self.epoch += 1


_TAPE = Tape()
_GRAD_ENABLED = True


def active_tape():
    return _TAPE


def reset_tape():
    """Drop all recorded nodes, e.g. after an aborted step."""
    _TAPE.reset()


@contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------

class Tensor:
    """Dense float64 array, optionally tracked on the tape.

    ``data`` is never mutated by ops; every op allocates a fresh output.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "tape_epoch", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = None
        self.tape_epoch = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name=None):
    """Leaf tensor that participates in gradient computation."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def constant(data):
    return Tensor(data, requires_grad=False)


def make_out(data, pairs, gate=None):
    """Output of an op on ``pairs`` of (input, adjoint map), taped if any
    input requires grad; an input listed twice sums its terms in list order."""
    track = _GRAD_ENABLED and any(inp.requires_grad for inp, _ in pairs)
    out = Tensor(data, requires_grad=track)
    if track:
        _TAPE.record(out, pairs, gate)
    return out


def _accumulate(t, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def _binary_shapes(op, a, b):
    """Equal shapes, or a 1-D vector broadcast against the rows of a 2-D batch."""
    if a.shape == b.shape:
        return None
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return "b"
    if a.data.ndim == 1 and b.data.ndim == 2 and a.shape[0] == b.shape[1]:
        return "a"
    raise ShapeError(op, a.shape, b.shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    bc = _binary_shapes("add", a, b)
    ga = (lambda g: g.sum(axis=0)) if bc == "a" else (lambda g: g)
    gb = (lambda g: g.sum(axis=0)) if bc == "b" else (lambda g: g)
    return make_out(a.data + b.data, [(a, ga), (b, gb)])


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    bc = _binary_shapes("sub", a, b)
    ga = (lambda g: g.sum(axis=0)) if bc == "a" else (lambda g: g)
    gb = (lambda g: -g.sum(axis=0)) if bc == "b" else (lambda g: -g)
    return make_out(a.data - b.data, [(a, ga), (b, gb)])


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    bc = _binary_shapes("mul", a, b)
    ad, bd = a.data, b.data
    ga = (lambda g: (g * bd).sum(axis=0)) if bc == "a" else (lambda g: g * bd)
    gb = (lambda g: (g * ad).sum(axis=0)) if bc == "b" else (lambda g: g * ad)
    return make_out(ad * bd, [(a, ga), (b, gb)])


def scale(a, c):
    a = as_tensor(a)
    c = float(c)
    return make_out(a.data * c, [(a, lambda g: g * c)])


def add_scalar(a, c):
    a = as_tensor(a)
    c = float(c)
    return make_out(a.data + c, [(a, lambda g: g)])


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    ad, bd = a.data, b.data
    return make_out(ad @ bd, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return make_out(out_data, [(a, lambda g: g * out_data)])


def log(a):
    a = as_tensor(a)
    ad = a.data
    return make_out(np.log(ad), [(a, lambda g: g / ad)])


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return make_out(out_data, [(a, lambda g: g * (1.0 - out_data * out_data))])


def _leaky(x, alpha, out=None):
    """Leaky ReLU of ``x``, into ``out`` if given.

    ``max(x, alpha*x)`` needs no mask and, for 0 <= alpha <= 1, gives the
    bits of ``where(x > 0, x, alpha*x)``. ``leaky_grad`` reads its mask
    from the output, which is positive exactly where ``x`` is, so ``out``
    may be ``x`` itself.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"leaky ReLU slope must be in [0, 1], got {alpha}")
    return np.maximum(x, alpha * x, out=out)


def leaky_grad(y, g, alpha):
    """The adjoint ``g`` of a leaky ReLU's output ``y``, taken to its input."""
    return np.where(y > 0, g, alpha * g)


def leaky_relu(a, alpha=0.01):
    a = as_tensor(a)
    y = _leaky(a.data, alpha)
    return make_out(y, [(a, lambda g: leaky_grad(y, g, alpha))])


def affine(x, W, b, leak=None):
    """The array ``x @ W + b``, then a leaky ReLU of slope ``leak`` unless None."""
    y = x @ W
    y += b
    return y if leak is None else _leaky(y, leak, out=y)


def dense(x, W, b, leak=None):
    """One layer ``affine(x, W, b, leak)``, recorded as a single tape node.

    Gives the bits of ``leaky_relu(add(matmul(x, W), b), leak)``; the
    backward visit forms the pre-activation gradient once and feeds x, W
    and b from it.
    """
    x, W, b = as_tensor(x), as_tensor(W), as_tensor(b)
    if (x.data.ndim != 2 or W.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != W.shape[0] or W.shape[1] != b.shape[0]):
        raise ShapeError("dense", x.shape, W.shape, b.shape)
    xd, Wd = x.data, W.data
    y = affine(xd, Wd, b.data, leak)
    gate = None if leak is None else (lambda g: leaky_grad(y, g, leak))
    pairs = [(x, lambda g: g @ Wd.T), (W, lambda g: xd.T @ g),
             (b, lambda g: g.sum(axis=0))]
    return make_out(y, pairs, gate)


def square(a):
    a = as_tensor(a)
    ad = a.data
    return make_out(ad * ad, [(a, lambda g: g * (2.0 * ad))])


def clip(a, lo, hi):
    """Clamp values to [lo, hi]; gradient passes through only inside the bounds."""
    a = as_tensor(a)
    ad = a.data
    mask = (ad >= lo) & (ad <= hi)
    return make_out(np.clip(ad, lo, hi), [(a, lambda g: g * mask)])


def tsum(a, axis=None):
    a = as_tensor(a)
    shape = a.shape

    def adj(g):
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), shape).copy()

    return make_out(a.data.sum(axis=axis), [(a, adj)])


def tmean(a, axis=None):
    a = as_tensor(a)
    shape = a.shape
    n = a.data.size if axis is None else shape[axis]

    def adj(g):
        if axis is None:
            return np.broadcast_to(g / n, shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy()

    return make_out(a.data.mean(axis=axis), [(a, adj)])


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    ndim = tensors[0].data.ndim
    ax = axis % ndim
    widths = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + widths)
    pairs = []
    for k, t in enumerate(tensors):
        lo, hi = offsets[k], offsets[k + 1]

        def adj(g, lo=lo, hi=hi):
            sl = [slice(None)] * ndim
            sl[ax] = slice(lo, hi)
            return g[tuple(sl)]

        pairs.append((t, adj))
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=ax)
    except ValueError:
        raise ShapeError("concat", *[t.shape for t in tensors])
    return make_out(out_data, pairs)


def take_rows(a, sel):
    """Row slice or integer-array gather along axis 0."""
    a = as_tensor(a)
    shape = a.shape
    if isinstance(sel, slice):
        idx = np.arange(*sel.indices(shape[0]))
    else:
        idx = np.asarray(sel, dtype=np.intp)

    def adj(g):
        out = np.zeros(shape, dtype=np.float64)
        np.add.at(out, idx, g)
        return out

    return make_out(a.data[idx], [(a, adj)])


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def backward(loss):
    """Populate .grad for everything the scalar ``loss`` depends on, then reset the tape.

    Parameters that were recorded on the tape but do not influence the loss
    receive an exact zero gradient.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node_id is None:
        raise ValueError("loss is not connected to the tape (no recorded ops)")
    if loss.tape_epoch != _TAPE.epoch:
        raise ValueError("loss belongs to an already-consumed tape")

    loss.grad = np.ones_like(loss.data)
    for out, gate, pairs in reversed(_TAPE.nodes):
        g = out.grad
        if g is None:
            continue
        if gate is not None:
            g = gate(g)
        for inp, adjoint in pairs:
            if inp.requires_grad:
                _accumulate(inp, adjoint(g))
    for leaf in _TAPE.leaves:
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
    _TAPE.reset()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class AdamState:
    """Bias-corrected Adam moments for a fixed, ordered parameter list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params, state):
    """One Adam update over ``params``; gradients are consumed and zeroed."""
    if len(params) != len(state.m):
        raise ValueError(f"param list length {len(params)} != state length {len(state.m)}")
    for i, p in enumerate(params):
        if p.grad is None:
            raise GradMissingError(f"parameter {p.name or i} has no gradient")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for i, p in enumerate(params):
        g = p.grad
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.grad = None
    return params, state


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, meta=None):
    """Write named parameters to a JSON container with a versioned header.

    ``params`` maps names to Tensors or arrays. Floats round-trip exactly
    through repr, so save/load is lossless.
    """
    blob = {"format_version": CHECKPOINT_VERSION, "meta": meta or {}, "params": {}}
    for name, p in params.items():
        arr = p.data if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64)
        blob["params"][name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(blob, fh)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns (dict name -> float64 array, meta dict)."""
    with open(path) as fh:
        blob = json.load(fh)
    version = blob.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {version!r}")
    params = {}
    for name, rec in blob["params"].items():
        params[name] = np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
    return params, blob.get("meta", {})
