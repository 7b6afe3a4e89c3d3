"""Two-phase training: VAE pretraining, then joint dynamics learning with
OT-coupled flow matching, warmup cost switching, and periodically scheduled
global distribution losses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, fields as dc_fields

import numpy as np

from . import ndtensor as nd
from . import otcore
from . import latentvae
from .datakit import write_json_atomic, write_records_csv
from .flowfield import eval_field, integrate
from .model import ModelBundle, build_model


class NonFiniteLossError(RuntimeError):
    """A loss term became non-finite; carries the diagnostic step record."""

    def __init__(self, record):
        self.record = record
        super().__init__(f"non-finite loss at step {record.get('step')}: {record}")


class DegenerateCouplingError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Every scalar the training procedure depends on.

    The JSON form must list all fields explicitly (a run's config file is a
    complete snapshot); the Python constructor applies these defaults.
    """

    # model sizes
    latent_dim: int = 50
    vae_hidden: int = 256
    field_hidden: int = 256
    time_dim: int = 64
    # coupling and schedule
    epsilon: float = 0.05
    e_warm: int = 200
    k_ot: int = 10
    top_k: int = 5
    batch: int = 128
    # loss weights
    lambda_kl: float = 1e-3
    lambda_fm: float = 1.0
    lambda_ot: float = 0.1
    lambda_dyn: float = 0.1
    # optimization
    lr: float = 1e-3
    max_steps: int = 3000
    patience: int = 3
    patience_window: int = 50
    min_rel_improvement: float = 1e-4
    seed: int = 0
    freeze_vae: bool = False
    # phase I
    vae_epochs: int = 500
    vae_batch: int = 128
    vae_patience: int = 5
    # integrator and solver settings
    ode_method: str = "rk4"
    ode_step: float = 0.1
    sinkhorn_max_iters: int = 500
    sinkhorn_tol: float = 1e-6
    # data handling
    preprocess: bool = False
    hvg: int = 2000

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.e_warm < 0 or self.k_ot < 1:
            raise ValueError("need e_warm >= 0 and k_ot >= 1")
        if not 1 <= self.top_k <= self.batch:
            raise ValueError(f"top_k must be in [1, batch={self.batch}]")
        for name in ("lambda_kl", "lambda_fm", "lambda_ot", "lambda_dyn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.lr <= 0 or self.max_steps < 0:
            raise ValueError("need lr > 0 and max_steps >= 0")
        if self.patience < 1 or self.patience_window < 1:
            raise ValueError("need patience >= 1 and patience_window >= 1")
        if self.vae_epochs < 0 or self.vae_batch < 1 or self.vae_patience < 1:
            raise ValueError("need vae_epochs >= 0, vae_batch >= 1 and vae_patience >= 1")
        if self.ode_method not in ("euler", "rk4"):
            raise ValueError(f"unknown ode_method {self.ode_method!r}")
        if self.ode_step <= 0 or self.sinkhorn_tol <= 0 or self.sinkhorn_max_iters < 1:
            raise ValueError("integrator/solver settings must be positive")
        if min(self.latent_dim, self.vae_hidden, self.field_hidden) < 1:
            raise ValueError("model sizes must be positive")

    def to_dict(self):
        return asdict(self)

    def to_json(self, path):
        write_json_atomic(path, self.to_dict())

    @staticmethod
    def from_json(path):
        with open(path) as fh:
            blob = json.load(fh)
        names = {f.name for f in dc_fields(TrainConfig)}
        unknown = sorted(set(blob) - names)
        if unknown:
            raise KeyError(f"unknown config key: {unknown[0]}")
        missing = sorted(names - set(blob))
        if missing:
            raise KeyError(f"missing config key: {missing[0]}")
        return TrainConfig(**blob)


@dataclass
class TrainLog:
    """One record per optimization step, plus run-level counters."""

    records: list = field(default_factory=list)
    converged: bool = False
    rollout_count: int = 0
    phase1_epochs: int = 0

    # "seconds" is always 0.0: wall time would make the log nondeterministic
    CSV_COLUMNS = ("step", "phase", "l_vae", "l_fm", "l_ot", "l_dyn",
                   "total", "retained_mass", "seconds")

    def to_csv(self, path):
        write_records_csv(path, self.CSV_COLUMNS, self.records)


def _sample_rows(rng, n, size):
    """Without replacement when possible, with replacement otherwise."""
    return rng.choice(n, size=size, replace=n < size)


# ---------------------------------------------------------------------------
# flow-matching loss
# ---------------------------------------------------------------------------

def fm_loss_topk(coupling, Za, Zb, t_a, t_b, forward_field, backward_field, rng):
    """Coupling-weighted regression of both fields onto bridge velocities.

    For each retained pair (i, j) and a fresh alpha ~ U[0,1], the bridge
    point is z = (1-alpha) z_i^a + alpha z_j^b at time t = (1-alpha) t_a +
    alpha t_b, and the constant bridge velocity (z_j^b - z_i^a)/(t_b - t_a)
    is the regression target of the forward and the backward field alike
    (the backward target (z_i^a - z_j^b)/(t_a - t_b) is the same vector).
    Weighted terms are normalized by the retained mass. Endpoints are
    treated as constants: only field parameters receive gradients.
    """
    if t_b <= t_a:
        raise ValueError(f"need t_b > t_a, got {t_a}, {t_b}")
    if coupling.mass <= 0:
        raise DegenerateCouplingError("coupling retained mass is zero")
    Za = Za.data if isinstance(Za, nd.Tensor) else np.asarray(Za, dtype=np.float64)
    Zb = Zb.data if isinstance(Zb, nd.Tensor) else np.asarray(Zb, dtype=np.float64)
    B, K = coupling.indices.shape
    i_idx = np.repeat(np.arange(B), K)
    j_idx = coupling.indices.ravel()
    w = nd.constant(coupling.weights.ravel())
    za = Za[i_idx]
    zb = Zb[j_idx]
    u = nd.constant((zb - za) / (t_b - t_a))
    alpha = rng.uniform(size=(B * K, 1))
    z_alpha = nd.constant((1.0 - alpha) * za + alpha * zb)
    t_alpha = (1.0 - alpha[:, 0]) * t_a + alpha[:, 0] * t_b
    total = None
    for fld in (forward_field, backward_field):
        V = eval_field(fld, t_alpha, z_alpha)
        sq = nd.tsum(nd.square(nd.sub(V, u)), axis=1)
        term = nd.tsum(nd.mul(sq, w))
        total = term if total is None else nd.add(total, term)
    return nd.scale(total, 1.0 / coupling.mass)


# ---------------------------------------------------------------------------
# global losses
# ---------------------------------------------------------------------------

def _rollout_latents(model, dataset, B, rng, ode_method, ode_step):
    """Encode a batch at t_0 and roll it to every training time (differentiable)."""
    X0 = dataset.matrices[0]
    rows = _sample_rows(rng, X0.shape[0], B)
    _, _, z0 = latentvae.encode(model.vae, X0[rows], rng=rng)
    roll = integrate(model.forward_field, z0, float(dataset.times[0]),
                     dataset.times, method=ode_method, step=ode_step)
    return roll.states


def _transport_term(x, y, config):
    """Transport cost between two batches under an entropic plan of their
    squared distances; the plan is held fixed, so gradients flow through
    the cost alone.
    """
    D = otcore.pairwise_sqdist(nd.as_tensor(x).data, y.data)
    plan = otcore.sinkhorn(D, epsilon=config.epsilon,
                           max_iters=config.sinkhorn_max_iters,
                           tol=config.sinkhorn_tol).plan
    return otcore.transport_cost_sq(plan, x, y)


def _fused_global_terms(model, dataset, config, rng):
    """Both global losses from one shared rollout of encoded t_0 cells.

    ``l_ot`` is the gene-space transport cost between decoded rollout states
    and observed cells, ``l_dyn`` the latent-space cost between rollout
    states and the encoder latents of those cells; each is averaged over
    all training timepoints. A term whose weight is 0 is skipped (its rng
    draws included) and returned as None.
    """
    states = _rollout_latents(model, dataset, config.batch, rng,
                              config.ode_method, config.ode_step)
    ot_terms = None
    dyn_terms = None
    for k in range(dataset.n_timepoints):
        Xk = dataset.matrices[k]
        obs = Xk[_sample_rows(rng, Xk.shape[0], config.batch)]
        if config.lambda_ot > 0:
            pred = latentvae.decode(model.vae, states[k])
            term = _transport_term(obs, pred, config)
            ot_terms = term if ot_terms is None else nd.add(ot_terms, term)
        if config.lambda_dyn > 0:
            _, _, z_enc = latentvae.encode(model.vae, obs, rng=rng)
            term = _transport_term(z_enc, states[k], config)
            dyn_terms = term if dyn_terms is None else nd.add(dyn_terms, term)
    scale = 1.0 / dataset.n_timepoints
    l_ot = nd.scale(ot_terms, scale) if ot_terms is not None else None
    l_dyn = nd.scale(dyn_terms, scale) if dyn_terms is not None else None
    return l_ot, l_dyn


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------

def train_step(model, dataset, config, s, rng, opt_state, log):
    """One Phase-II step: adjacent-pair coupling, flow matching, scheduled
    global losses, and a single optimizer update. Appends and returns the
    step record.
    """
    n_pairs = dataset.n_timepoints - 1
    pair = int(rng.integers(0, n_pairs))
    t_a, t_b = float(dataset.times[pair]), float(dataset.times[pair + 1])
    Xa = dataset.matrices[pair]
    Xb = dataset.matrices[pair + 1]
    B = config.batch
    rows_a = _sample_rows(rng, Xa.shape[0], B)
    rows_b = _sample_rows(rng, Xb.shape[0], B)
    X_pair = np.concatenate([Xa[rows_a], Xb[rows_b]], axis=0)

    l_vae, _, _, z = latentvae.elbo_terms(model.vae, X_pair, config.lambda_kl, rng=rng)
    Za = nd.take_rows(z, slice(0, B))
    Zb = nd.take_rows(z, slice(B, 2 * B))

    warmup = s <= config.e_warm
    if warmup:
        C = otcore.cost_euclidean(Za.data, Zb.data)
    else:
        fwd = lambda t, Z: eval_field(model.forward_field, t, Z).data
        bwd = lambda t, Z: eval_field(model.backward_field, t, Z).data
        with nd.no_grad():
            C = otcore.cost_bidirectional(Za.data, Zb.data, fwd, bwd, t_a, t_b)
    pi = otcore.sinkhorn(C, epsilon=config.epsilon,
                         max_iters=config.sinkhorn_max_iters,
                         tol=config.sinkhorn_tol)
    top = otcore.topk_truncate(pi, config.top_k)

    l_fm = fm_loss_topk(top, Za, Zb, t_a, t_b, model.forward_field,
                        model.backward_field, rng)
    total = nd.add(l_vae, nd.scale(l_fm, config.lambda_fm))

    l_ot = l_dyn = None
    if s % config.k_ot == 0 and (config.lambda_ot > 0 or config.lambda_dyn > 0):
        l_ot, l_dyn = _fused_global_terms(model, dataset, config, rng)
        log.rollout_count += 1
        if l_ot is not None:
            total = nd.add(total, nd.scale(l_ot, config.lambda_ot))
        if l_dyn is not None:
            total = nd.add(total, nd.scale(l_dyn, config.lambda_dyn))

    record = {
        "step": s,
        "phase": "warmup" if warmup else "fused",
        "l_vae": float(l_vae.data),
        "l_fm": float(l_fm.data),
        "l_ot": None if l_ot is None else float(l_ot.data),
        "l_dyn": None if l_dyn is None else float(l_dyn.data),
        "total": float(total.data),
        "retained_mass": float(top.mass),
        "seconds": 0.0,
    }
    if not np.isfinite(record["total"]):
        nd.reset_tape()
        log.records.append(record)
        raise NonFiniteLossError(record)

    nd.backward(total)
    params = model.field_parameters() if config.freeze_vae else model.all_parameters()
    nd.adam_step(params, opt_state)
    if config.freeze_vae:
        for p in model.vae_parameters():
            p.grad = None
    log.records.append(record)
    return record


def pretrain_vae(model, dataset, config, rng, log):
    """Phase I: optimize the VAE on all training snapshots pooled together.

    Runs up to vae_epochs epochs with early stop once the epoch loss stops
    improving by min_rel_improvement for vae_patience consecutive epochs.
    """
    X_all = np.concatenate(dataset.matrices, axis=0)
    n = X_all.shape[0]
    params = model.vae_parameters()
    opt = nd.AdamState(params, lr=config.lr)
    best = np.inf
    stale = 0
    for epoch in range(config.vae_epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, config.vae_batch):
            batch = X_all[perm[start:start + config.vae_batch]]
            loss = latentvae.vae_loss(model.vae, batch, config.lambda_kl, rng=rng)
            losses.append(float(loss.data))
            nd.backward(loss)
            nd.adam_step(params, opt)
        epoch_loss = float(np.mean(losses))
        log.phase1_epochs = epoch + 1
        if epoch_loss < best * (1.0 - config.min_rel_improvement):
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.vae_patience:
                break
    return log.phase1_epochs


def fit(dataset, config):
    """Run Phase I then Phase II on the training dataset.

    Phase II stops at max_steps or earlier when the moving-average total
    loss stops improving by min_rel_improvement over ``patience``
    consecutive windows. Returns (ModelBundle, TrainLog).
    """
    if dataset.n_timepoints < 2:
        raise ValueError("training requires at least 2 timepoints (no adjacent pairs)")
    rng = np.random.default_rng(config.seed)
    model = build_model(
        gene_dim=dataset.gene_dim,
        latent_dim=config.latent_dim,
        vae_hidden=config.vae_hidden,
        field_hidden=config.field_hidden,
        time_dim=config.time_dim,
        t_min=float(dataset.times[0]),
        t_max=float(dataset.times[-1]),
        seed=config.seed,
    )
    model.gene_names = list(dataset.gene_names)
    log = TrainLog()
    pretrain_vae(model, dataset, config, rng, log)

    params = model.field_parameters() if config.freeze_vae else model.all_parameters()
    opt = nd.AdamState(params, lr=config.lr)
    best_window = np.inf
    current_window = []
    stale_windows = 0
    for s in range(1, config.max_steps + 1):
        record = train_step(model, dataset, config, s, rng, opt, log)
        current_window.append(record["total"])
        if len(current_window) == config.patience_window:
            mean = float(np.mean(current_window))
            current_window = []
            if mean < best_window * (1.0 - config.min_rel_improvement):
                best_window = mean
                stale_windows = 0
            else:
                stale_windows += 1
                if stale_windows >= config.patience:
                    log.converged = True
                    break
    return model, log
