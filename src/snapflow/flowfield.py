"""Time-conditioned forward/backward velocity fields with sinusoidal time
embeddings, and fixed-step Euler/RK4 integrators for latent rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

import numpy as np

from . import ndtensor as nd
from .ndtensor import Tensor
from .latentvae import LEAK


class IntegrationError(RuntimeError):
    def __init__(self, time, message):
        self.time = time
        super().__init__(message)


@dataclass
class TimeEmbedding:
    """Sinusoidal embedding of physical time.

    Time is affinely normalized to [0, 1] over [t_min, t_max] (queries past
    t_max map beyond 1), then expanded as sin/cos at dim/2 geometrically
    spaced frequencies spanning [1, 1000]*pi.
    """

    dim: int = 64
    t_min: float = 0.0
    t_max: float = 1.0
    freqs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim < 2:
            raise ValueError(f"embedding dim must be even and >= 2, got {self.dim}")
        if self.t_max <= self.t_min:
            raise ValueError("t_max must exceed t_min")
        if self.freqs is None:
            half = self.dim // 2
            self.freqs = np.pi * np.geomspace(1.0, 1000.0, half)

    def __call__(self, t):
        """Embed a scalar time into (dim,) or an array of times into (n, dim)."""
        t = np.asarray(t, dtype=np.float64)
        u = (t - self.t_min) / (self.t_max - self.t_min)
        phases = np.multiply.outer(u, self.freqs)
        return np.concatenate([np.sin(phases), np.cos(phases)], axis=-1)


@dataclass
class VelocityFieldParams:
    """Residual MLP (z, time-embedding) -> velocity, one per direction.

    The output layer and the linear skip from z start at zero, so the field
    is exactly zero at init and early rollouts stay put.
    """

    direction: str
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor
    w_skip: Tensor
    embedding: TimeEmbedding
    latent_dim: int
    hidden: int

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self.w_skip]

    def named_parameters(self):
        names = ("w1", "b1", "w2", "b2", "w3", "b3", "w_skip")
        return {f"field.{self.direction}.{n}": p
                for n, p in zip(names, self.parameters())}


def init_field(direction, latent_dim, hidden, embedding, rng):
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    d_in = latent_dim + embedding.dim

    def he(n_in, n_out):
        return rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))

    return VelocityFieldParams(
        direction=direction,
        w1=nd.parameter(he(d_in, hidden), f"field.{direction}.w1"),
        b1=nd.parameter(np.zeros(hidden), f"field.{direction}.b1"),
        w2=nd.parameter(he(hidden, hidden), f"field.{direction}.w2"),
        b2=nd.parameter(np.zeros(hidden), f"field.{direction}.b2"),
        w3=nd.parameter(np.zeros((hidden, latent_dim)), f"field.{direction}.w3"),
        b3=nd.parameter(np.zeros(latent_dim), f"field.{direction}.b3"),
        w_skip=nd.parameter(np.zeros((latent_dim, latent_dim)), f"field.{direction}.w_skip"),
        embedding=embedding,
        latent_dim=latent_dim,
        hidden=hidden,
    )


def _field_forward(params, t, Z):
    """Velocity rows of the array Z at time t (scalar, or one per row), and
    the activations ``(Z, x, h1, h2)`` that ``_field_vjp`` reads."""
    emb = params.embedding(t)
    if emb.ndim == 1:
        emb = np.tile(emb, (Z.shape[0], 1))
    elif emb.shape[0] != Z.shape[0]:
        raise nd.ShapeError("eval_field", (emb.shape[0],), (Z.shape[0],))
    x = np.concatenate([Z, emb], axis=-1)
    h1 = nd.affine(x, params.w1.data, params.b1.data, LEAK)
    h2 = nd.affine(h1, params.w2.data, params.b2.data, LEAK)
    v = nd.affine(h2, params.w3.data, params.b3.data) + Z @ params.w_skip.data
    return v, (Z, x, h1, h2)


def _field_vjp(params, acts, g, wrt_z=True):
    """Adjoints of one evaluation for the velocity adjoint g: one per
    parameter in ``parameters()`` order, then (if ``wrt_z``) Z's skip term
    and concat slice, kept apart so that Z sums them in per-op tape order."""
    Z, x, h1, h2 = acts
    w1, _, w2, _, w3, _, w_skip = (p.data for p in params.parameters())
    g2 = nd.leaky_grad(h2, g @ w3.T, LEAK)
    g1 = nd.leaky_grad(h1, g2 @ w2.T, LEAK)
    grads = [x.T @ g1, g1.sum(axis=0), h1.T @ g2, g2.sum(axis=0),
             h2.T @ g, g.sum(axis=0), Z.T @ g]
    if wrt_z:
        grads += [g @ w_skip.T, (g1 @ w1.T)[:, :Z.shape[1]]]
    return grads


def _node(out, inputs, gate):
    """``out`` as one tape node; ``gate`` gives a term for each of ``inputs``."""
    return nd.make_out(out, [(inp, itemgetter(i)) for i, inp in enumerate(inputs)], gate)


def eval_field(params, t, Z):
    """Velocity batch for latents Z at time t (scalar, or one time per row).

    Differentiable w.r.t. the field parameters and Z, recorded as one tape
    node; inference runs it under ``nd.no_grad()``.
    """
    Z = nd.as_tensor(Z)
    if Z.data.ndim != 2 or Z.shape[1] != params.latent_dim:
        raise nd.ShapeError("eval_field", Z.shape, (Z.shape[0], params.latent_dim))
    v, acts = _field_forward(params, t, Z.data)
    wrt_z = Z.requires_grad
    return _node(v, params.parameters() + [Z, Z] * wrt_z,
                 lambda g: _field_vjp(params, acts, g, wrt_z))


@dataclass
class Rollout:
    """States recorded at each query time of one integration run."""

    times: np.ndarray
    states: list
    method: str
    step: float

    def state_at(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9:
            raise KeyError(f"time {t} not recorded in rollout")
        return self.states[idx]


# Bytes of the widest activation in one no-tape block. A whole 4000-row
# batch would allocate 2 MiB temporaries that the allocator maps afresh on
# every evaluation; blocks of this size reuse cache-resident memory. Of
# 256 KiB, 512 KiB and 1 MiB, 256 KiB gave the fastest 4000-cell predict;
# smaller blocks lose time to per-call Python overhead.
_INFER_BLOCK_BYTES = 256 * 1024


def _field_fn(field):
    if not isinstance(field, VelocityFieldParams):
        return field
    # every layer is row-wise and t is shared, so blocks are independent
    width = max(field.hidden, field.latent_dim + field.embedding.dim)
    rows = max(1, _INFER_BLOCK_BYTES // (8 * width))

    def infer(t, z):
        with nd.no_grad():
            out = np.empty((len(z), field.latent_dim))
            for s in range(0, len(z), rows):
                out[s:s + rows] = eval_field(field, t, z[s:s + rows]).data
            return out
    return infer


def _advance(fn, t, z, h, method):
    """The state one Euler or RK4 step of size h after the array z."""
    if method == "euler":
        return z + fn(t, z) * h
    k1 = fn(t, z)
    k2 = fn(t + h / 2, z + k1 * (h / 2))
    k3 = fn(t + h / 2, z + k2 * (h / 2))
    k4 = fn(t + h, z + k3 * h)
    return z + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0)


def _step_node(field, t, z, h, method):
    """``_advance`` of the Tensor state z as one tape node. To keep the bits
    of per-op stage arithmetic, z takes the output adjoint, the stage
    states' adjoints from last to first, then k1's skip and concat terms;
    each parameter takes the last stage's term first."""
    acts = []

    def fn(s, zs):
        v, a = _field_forward(field, s, zs)
        acts.append(a)
        return v

    out = _advance(fn, t, z.data, h, method)
    shifts = [None, h / 2, h / 2, h]    # stage i's state is z + k_{i-1} * shifts[i]

    def gate(g):
        g6 = g * (h / 6.0)
        gk = [g * h] if method == "euler" else [g6, g6 * 2.0, g6 * 2.0, g6]
        z_terms, param_terms = [g], []
        for i in reversed(range(len(acts))):
            grads = _field_vjp(field, acts[i], gk[i])
            param_terms += grads[:-2]
            if i == 0:
                z_terms += grads[-2:]
            else:
                gz = grads[-2] + grads[-1]
                z_terms.append(gz)
                gk[i - 1] = gk[i - 1] + gz * shifts[i]
        return z_terms + param_terms
    return _node(out, [z] * (len(acts) + 2) + field.parameters() * len(acts), gate)


def integrate(field, z0, t0, query_times, method="rk4", step=0.1):
    """Fixed-step integration of dz/dt = field(t, z), recording every query time.

    ``field`` is a VelocityFieldParams or any callable (t, Z) -> velocity.
    Steps are clipped at segment boundaries so each query time is hit
    exactly. Query times must move monotonically away from t0 (forward
    fields ascend, backward fields descend). Passing a Tensor z0 makes the
    rollout differentiable, one tape node per step, and needs a
    VelocityFieldParams field. An array z0 records nothing on the tape,
    and a VelocityFieldParams field is then evaluated in row blocks whose
    widest activation takes at most ``_INFER_BLOCK_BYTES``, which keeps the
    temporaries of a large batch cache-sized.
    """
    query_times = np.asarray(query_times, dtype=np.float64)
    if query_times.ndim != 1 or query_times.size == 0:
        raise ValueError("query_times must be a nonempty 1-D sequence")
    deltas = np.diff(np.concatenate([[t0], query_times]))
    ascending = bool((deltas >= -1e-12).all())
    descending = bool((deltas <= 1e-12).all())
    if not ascending and not descending:
        raise ValueError("query times must move monotonically away from t0")
    if isinstance(field, VelocityFieldParams):
        if field.direction == "forward" and not ascending:
            raise ValueError("forward field requires sorted query times >= t0")
        if field.direction == "backward" and not descending:
            raise ValueError("backward field requires sorted query times <= t0")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")

    differentiable = isinstance(z0, Tensor)
    if differentiable and not isinstance(field, VelocityFieldParams):
        raise TypeError("a Tensor state needs a VelocityFieldParams field")
    advance = partial(_step_node, field) if differentiable \
        else partial(_advance, _field_fn(field))
    z = z0 if differentiable else np.asarray(z0, dtype=np.float64)
    if not np.isfinite(z.data if differentiable else z).all():
        raise IntegrationError(t0, "non-finite initial state")

    states = []
    t_cur = float(t0)
    for t_q in query_times:
        remaining = t_q - t_cur
        while abs(remaining) > 1e-12:
            h = np.sign(remaining) * min(step, abs(remaining))
            z = advance(t_cur, z, h, method)
            t_cur += h
            remaining = t_q - t_cur
            vals = z.data if differentiable else z
            if not np.isfinite(vals).all():
                raise IntegrationError(t_cur, f"state blew up at t={t_cur:.6g}")
        t_cur = float(t_q)
        states.append(z)
    return Rollout(times=query_times.copy(), states=states, method=method, step=step)
