"""Time-conditioned forward/backward velocity fields with sinusoidal time
embeddings, and fixed-step Euler/RK4 integrators for latent rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def eval_field(params, t, Z):
    """Velocity batch for latents Z at time t (scalar, or one time per row).

    Differentiable w.r.t. the field parameters and Z; inference runs it
    under ``nd.no_grad()``.
    """
    Z = Z if isinstance(Z, Tensor) else nd.constant(np.asarray(Z, dtype=np.float64))
    if Z.data.ndim != 2 or Z.shape[1] != params.latent_dim:
        raise nd.ShapeError("eval_field", Z.shape, (Z.shape[0], params.latent_dim))
    emb = params.embedding(t)
    if emb.ndim == 1:
        emb = np.tile(emb, (Z.shape[0], 1))
    elif emb.shape[0] != Z.shape[0]:
        raise nd.ShapeError("eval_field", (emb.shape[0],), (Z.shape[0],))
    x = nd.concat([Z, nd.constant(emb)], axis=-1)
    h = nd.dense(x, params.w1, params.b1, LEAK)
    h = nd.dense(h, params.w2, params.b2, LEAK)
    out = nd.dense(h, params.w3, params.b3)
    return nd.add(out, nd.matmul(Z, params.w_skip))


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


def _field_fn(field, differentiable):
    if callable(field) and not isinstance(field, VelocityFieldParams):
        return field
    if differentiable:
        return lambda t, z: eval_field(field, t, z)

    def infer(t, z):
        with nd.no_grad():
            return eval_field(field, t, z).data
    return infer


def integrate(field, z0, t0, query_times, method="rk4", step=0.1):
    """Fixed-step integration of dz/dt = field(t, z), recording every query time.

    ``field`` is a VelocityFieldParams or any callable (t, Z) -> velocity.
    Steps are clipped at segment boundaries so each query time is hit
    exactly. Query times must move monotonically away from t0 (forward
    fields ascend, backward fields descend). Passing a Tensor z0 makes the
    whole rollout differentiable; an array z0 records nothing on the tape.
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
    fn = _field_fn(field, differentiable)
    z = z0 if differentiable else np.asarray(z0, dtype=np.float64)
    if not np.isfinite(z.data if differentiable else z).all():
        raise IntegrationError(t0, "non-finite initial state")

    states = []
    t_cur = float(t0)
    for t_q in query_times:
        remaining = t_q - t_cur
        while abs(remaining) > 1e-12:
            h = np.sign(remaining) * min(step, abs(remaining))
            if method == "rk4":
                k1 = fn(t_cur, z)
                k2 = fn(t_cur + h / 2, z + k1 * (h / 2))
                k3 = fn(t_cur + h / 2, z + k2 * (h / 2))
                k4 = fn(t_cur + h, z + k3 * h)
                z = z + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0)
            else:
                z = z + fn(t_cur, z) * h
            t_cur += h
            remaining = t_q - t_cur
            vals = z.data if differentiable else z
            if not np.isfinite(vals).all():
                raise IntegrationError(t_cur, f"state blew up at t={t_cur:.6g}")
        t_cur = float(t_q)
        states.append(z)
    return Rollout(times=query_times.copy(), states=states, method=method, step=step)
