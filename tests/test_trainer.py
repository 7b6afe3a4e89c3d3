import numpy as np
import pytest

from snapflow import datakit, latentvae, ndtensor as nd, otcore, trainer
from snapflow.flowfield import TimeEmbedding, eval_field, init_field
from snapflow.model import ModelBundle, build_model

from helpers import make_identity_vae


def tiny_config(**overrides):
    base = dict(latent_dim=3, vae_hidden=16, field_hidden=16, time_dim=8,
                batch=16, top_k=4, e_warm=5, k_ot=4, max_steps=20,
                vae_epochs=20, vae_batch=32, lr=1e-3, seed=0)
    base.update(overrides)
    return trainer.TrainConfig(**base)


def tiny_dataset(seed=0, timepoints=4, cells=40, genes=5):
    spec = datakit.SyntheticSpec(kind="drift-gaussian", dim=2, genes=genes,
                                 timepoints=timepoints, cells=cells,
                                 noise=0.15, lift_noise=0.02, seed=seed)
    return datakit.synth_generate(spec)


def make_const_field(direction, dim, value, emb=None):
    emb = emb or TimeEmbedding(dim=8, t_min=0.0, t_max=1.0)
    f = init_field(direction, dim, 8, emb, np.random.default_rng(0))
    f.b3.data[:] = value
    return f


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        trainer.TrainConfig(top_k=200, batch=100)
    with pytest.raises(ValueError):
        trainer.TrainConfig(lambda_ot=-0.1)
    with pytest.raises(ValueError):
        trainer.TrainConfig(ode_method="heun")
    for bad in (dict(vae_batch=-4), dict(vae_batch=0), dict(vae_epochs=-1),
                dict(vae_patience=0), dict(patience=0), dict(patience_window=0)):
        with pytest.raises(ValueError):
            trainer.TrainConfig(**bad)


def test_config_json_round_trip_is_strict(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "config.json"
    cfg.to_json(path)
    assert trainer.TrainConfig.from_json(path) == cfg

    blob = cfg.to_dict()
    del blob["epsilon"]
    bad = tmp_path / "missing.json"
    bad.write_text(__import__("json").dumps(blob))
    with pytest.raises(KeyError, match="epsilon"):
        trainer.TrainConfig.from_json(bad)

    blob = cfg.to_dict()
    blob["epsilonn"] = 0.1
    bad2 = tmp_path / "unknown.json"
    bad2.write_text(__import__("json").dumps(blob))
    with pytest.raises(KeyError, match="epsilonn"):
        trainer.TrainConfig.from_json(bad2)


# ---------------------------------------------------------------------------
# flow-matching loss
# ---------------------------------------------------------------------------

def test_fm_loss_zero_for_identical_endpoints():
    rng = np.random.default_rng(1)
    Z = np.tile(rng.normal(size=3), (6, 1))   # every endpoint is the same point
    pi = otcore.sinkhorn(otcore.cost_euclidean(Z, Z), epsilon=0.1)
    top = otcore.topk_truncate(pi, 3)
    emb = TimeEmbedding(dim=8, t_min=0.0, t_max=1.0)
    fwd = init_field("forward", 3, 8, emb, rng)   # zero output at init
    bwd = init_field("backward", 3, 8, emb, rng)
    loss = trainer.fm_loss_topk(top, Z, Z, 0.0, 1.0, fwd, bwd,
                                np.random.default_rng(2))
    assert float(loss.data) == 0.0
    nd.reset_tape()


def test_fm_loss_topk_full_k_matches_dense_oracle():
    rng = np.random.default_rng(3)
    B, d = 8, 3
    Za, Zb = rng.normal(size=(B, d)), rng.normal(size=(B, d)) + 0.5
    pi = otcore.sinkhorn(otcore.cost_euclidean(Za, Zb), epsilon=0.1)
    top = otcore.topk_truncate(pi, B)
    emb = TimeEmbedding(dim=8, t_min=0.0, t_max=2.0)
    fwd = make_const_field("forward", d, 0.3, emb)
    bwd = make_const_field("backward", d, -0.2, emb)
    t_a, t_b = 0.5, 2.0

    loss = trainer.fm_loss_topk(top, Za, Zb, t_a, t_b, fwd, bwd,
                                np.random.default_rng(77))
    nd.reset_tape()

    # dense oracle: same alpha stream, all B^2 pairs, plain numpy
    alpha = np.random.default_rng(77).uniform(size=(B * B, 1))
    i_idx = np.repeat(np.arange(B), B)
    j_idx = np.tile(np.arange(B), B)
    za, zb = Za[i_idx], Zb[j_idx]
    u = (zb - za) / (t_b - t_a)
    z_alpha = (1 - alpha) * za + alpha * zb
    t_alpha = (1 - alpha[:, 0]) * t_a + alpha[:, 0] * t_b
    w = pi.plan[i_idx, j_idx]
    total = 0.0
    for fld in (fwd, bwd):
        with nd.no_grad():
            V = eval_field(fld, t_alpha, z_alpha).data
        total += float((w * np.sum((V - u) ** 2, axis=1)).sum())
    expected = total / pi.plan.sum()
    assert abs(float(loss.data) - expected) < 1e-10


def test_fm_loss_zero_for_perfect_field():
    rng = np.random.default_rng(5)
    drift = np.array([0.7, -0.3])
    Za = rng.normal(size=(5, 2))
    t_a, t_b = 1.0, 3.0
    Zb = Za + drift * (t_b - t_a)
    plan = np.diag(np.full(5, 0.2))
    top = otcore.topk_truncate(plan, 1)
    fwd = make_const_field("forward", 2, drift)
    bwd = make_const_field("backward", 2, drift)
    loss = trainer.fm_loss_topk(top, Za, Zb, t_a, t_b, fwd, bwd,
                                np.random.default_rng(6))
    assert float(loss.data) < 1e-12
    nd.reset_tape()


def test_fm_loss_degenerate_coupling():
    top = otcore.TopKCoupling(indices=np.zeros((2, 1), dtype=int),
                              weights=np.zeros((2, 1)), mass=0.0, k=1)
    fwd = make_const_field("forward", 2, 0.0)
    with pytest.raises(trainer.DegenerateCouplingError):
        trainer.fm_loss_topk(top, np.zeros((2, 2)), np.zeros((2, 2)), 0.0, 1.0,
                             fwd, fwd, np.random.default_rng(0))


def test_fm_loss_row_permutation_invariance():
    rng = np.random.default_rng(8)
    B = 6
    Za, Zb = rng.normal(size=(B, 2)), rng.normal(size=(B, 2))
    pi = otcore.sinkhorn(otcore.cost_euclidean(Za, Zb), epsilon=0.2)
    top = otcore.topk_truncate(pi, 2)
    fwd = make_const_field("forward", 2, 0.4)
    bwd = make_const_field("backward", 2, 0.4)

    loss = trainer.fm_loss_topk(top, Za, Zb, 0.0, 1.0, fwd, bwd,
                                np.random.default_rng(9))
    nd.reset_tape()
    perm = rng.permutation(B)
    top_p = otcore.TopKCoupling(indices=top.indices[perm],
                                weights=top.weights[perm],
                                mass=top.mass, k=top.k)
    # alpha draws follow retained-pair order, so use a fixed alpha instead
    class ConstRng:
        def uniform(self, size):
            return np.full(size, 0.37)

    l1 = trainer.fm_loss_topk(top, Za, Zb, 0.0, 1.0, fwd, bwd, ConstRng())
    nd.reset_tape()
    l2 = trainer.fm_loss_topk(top_p, Za[perm], Zb, 0.0, 1.0, fwd, bwd, ConstRng())
    nd.reset_tape()
    assert abs(float(l1.data) - float(l2.data)) < 1e-12
    assert float(loss.data) >= 0.0


# ---------------------------------------------------------------------------
# global losses
# ---------------------------------------------------------------------------

def identity_model(dim, t_max=1.0):
    emb = TimeEmbedding(dim=8, t_min=0.0, t_max=t_max)
    rng = np.random.default_rng(0)
    return ModelBundle(vae=make_identity_vae(dim),
                       forward_field=init_field("forward", dim, 8, emb, rng),
                       backward_field=init_field("backward", dim, 8, emb, rng),
                       embedding=emb)


def test_global_ot_loss_identity_autoencoder_near_zero():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(24, 4)) * 0.6
    ds = datakit.SnapshotDataset(times=np.array([0.0]), matrices=[X],
                                 gene_names=[f"g{i}" for i in range(4)])
    model = identity_model(4)
    cfg = trainer.TrainConfig(batch=24, epsilon=0.05, lambda_dyn=0.0)
    loss, l_dyn = trainer._fused_global_terms(model, ds, cfg, np.random.default_rng(1))
    assert l_dyn is None
    assert 0.0 <= float(loss.data) < 5 * 0.05
    nd.reset_tape()


def test_global_ot_loss_positive_for_untrained_model_on_shifted_data():
    ds = tiny_dataset(seed=2, timepoints=3)
    cfg = tiny_config(batch=16, epsilon=0.05, lambda_dyn=0.0)
    model = build_model(ds.gene_dim, latent_dim=3, vae_hidden=16,
                        field_hidden=16, time_dim=8, t_min=0.0, t_max=2.0, seed=3)
    loss, l_dyn = trainer._fused_global_terms(model, ds, cfg, np.random.default_rng(4))
    assert l_dyn is None
    assert float(loss.data) > 0.1
    nd.reset_tape()


def test_latent_dyn_loss_identity_near_zero_and_grows_with_gap():
    rng = np.random.default_rng(13)
    X0 = rng.normal(size=(20, 3)) * 0.5
    model = identity_model(3, t_max=3.0)

    def dyn_for(times, mats):
        ds = datakit.SnapshotDataset(times=np.array(times), matrices=mats,
                                     gene_names=["a", "b", "c"])
        cfg = trainer.TrainConfig(batch=20, epsilon=0.05, lambda_ot=0.0)
        l_ot, val = trainer._fused_global_terms(model, ds, cfg, np.random.default_rng(5))
        assert l_ot is None
        nd.reset_tape()
        return float(val.data)

    same = dyn_for([0.0], [X0])
    assert 0.0 <= same < 5 * 0.05

    # zero field: rollout stays at t0 latents while the data drifts away
    near = dyn_for([0.0, 1.0], [X0, X0 + 1.0])
    far = dyn_for([0.0, 3.0], [X0, X0 + 3.0])
    assert near > same
    assert far > near


# ---------------------------------------------------------------------------
# train_step and fit
# ---------------------------------------------------------------------------

def run_steps(ds, cfg, n_steps):
    model, log = prepared_model(ds, cfg)
    opt = nd.AdamState(model.all_parameters(), lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    for s in range(1, n_steps + 1):
        trainer.train_step(model, ds, cfg, s, rng, opt, log)
    return model, log


def prepared_model(ds, cfg):
    model = build_model(ds.gene_dim, latent_dim=cfg.latent_dim,
                        vae_hidden=cfg.vae_hidden, field_hidden=cfg.field_hidden,
                        time_dim=cfg.time_dim, t_min=float(ds.times[0]),
                        t_max=float(ds.times[-1]), seed=cfg.seed)
    return model, trainer.TrainLog()


def test_warmup_boundary_inclusive():
    ds = tiny_dataset()
    cfg = tiny_config(e_warm=3, k_ot=100)
    _, log = run_steps(ds, cfg, 5)
    phases = {r["step"]: r["phase"] for r in log.records}
    assert phases[3] == "warmup"
    assert phases[4] == "fused"
    assert all(p == "warmup" for s, p in phases.items() if s <= 3)


def test_global_losses_logged_only_at_k_ot_multiples():
    ds = tiny_dataset()
    cfg = tiny_config(k_ot=4)
    _, log = run_steps(ds, cfg, 9)
    for r in log.records:
        if r["step"] % 4 == 0:
            assert r["l_ot"] is not None and r["l_dyn"] is not None
        else:
            assert r["l_ot"] is None and r["l_dyn"] is None
    assert log.rollout_count == 2


def test_no_rollouts_when_global_weights_zero():
    ds = tiny_dataset()
    cfg = tiny_config(lambda_ot=0.0, lambda_dyn=0.0, k_ot=2)
    _, log = run_steps(ds, cfg, 8)
    assert log.rollout_count == 0
    assert all(r["l_ot"] is None for r in log.records)


def test_train_step_loss_sequence_deterministic():
    ds = tiny_dataset()
    cfg = tiny_config(k_ot=3)
    _, log1 = run_steps(ds, cfg, 10)
    _, log2 = run_steps(ds, cfg, 10)
    for r1, r2 in zip(log1.records, log2.records):
        assert r1 == r2


def test_all_logged_losses_finite_nonnegative():
    ds = tiny_dataset()
    cfg = tiny_config(k_ot=3)
    _, log = run_steps(ds, cfg, 12)
    for r in log.records:
        for key in ("l_vae", "l_fm", "total", "retained_mass"):
            assert np.isfinite(r[key]) and r[key] >= 0.0


def test_global_loss_drops_during_training():
    ds = tiny_dataset(timepoints=5, cells=60)
    cfg = tiny_config(batch=24, top_k=5, e_warm=10, k_ot=10, max_steps=150,
                      vae_epochs=30)
    model, log = trainer.fit(ds, cfg)
    ots = [r["l_ot"] for r in log.records if r["l_ot"] is not None]
    assert ots[-1] * 2 <= ots[0]


def test_fit_zero_steps_keeps_fields_at_init():
    ds = tiny_dataset()
    cfg = tiny_config(max_steps=0, vae_epochs=5)
    model, log = trainer.fit(ds, cfg)
    Z = np.random.default_rng(1).normal(size=(4, cfg.latent_dim))
    with nd.no_grad():
        assert np.all(eval_field(model.forward_field, 0.5, Z).data == 0.0)
    assert len(log.records) == 0
    assert not log.converged


def test_fit_requires_two_timepoints():
    rng = np.random.default_rng(1)
    ds = datakit.SnapshotDataset(times=np.array([0.0]),
                                 matrices=[rng.normal(size=(10, 3))],
                                 gene_names=["a", "b", "c"])
    with pytest.raises(ValueError):
        trainer.fit(ds, tiny_config())


def test_fit_convergence_flag():
    ds = tiny_dataset(timepoints=3, cells=30)
    cfg = tiny_config(max_steps=400, vae_epochs=10, patience_window=10,
                      patience=2, min_rel_improvement=0.5)  # trips quickly
    model, log = trainer.fit(ds, cfg)
    assert log.converged
    assert len(log.records) < 400


def test_freeze_vae_leaves_vae_untouched():
    ds = tiny_dataset()
    cfg = tiny_config(freeze_vae=True, max_steps=6)
    model, _ = prepared_model(ds, cfg)
    before = {k: v.data.copy() for k, v in model.vae.named_parameters().items()}
    opt = nd.AdamState(model.field_parameters(), lr=cfg.lr)
    rng = np.random.default_rng(0)
    log = trainer.TrainLog()
    for s in range(1, 7):
        trainer.train_step(model, ds, cfg, s, rng, opt, log)
    after = model.vae.named_parameters()
    for k in before:
        assert np.array_equal(before[k], after[k].data)


def test_train_log_csv_format(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(k_ot=2)
    _, log = run_steps(ds, cfg, 4)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,phase,l_vae,l_fm,l_ot,l_dyn,total,retained_mass,seconds"
    assert len(lines) == 5
    # off-schedule steps leave the global columns empty
    first = lines[1].split(",")
    assert first[4] == "" and first[5] == ""
