"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline; in a plain run they appear in captured stdout.
"""

import json
import time

import numpy as np
import pytest

from snapflow import datakit, evalkit, latentvae, ndtensor as nd, otcore, trainer
from snapflow.cli import main as cli_main
from snapflow.flowfield import TimeEmbedding, eval_field, init_field, integrate
from snapflow.model import build_model

from helpers import make_identity_vae
from oracles import central_diff_grad, dip_statistic, lp_transport, rel_err


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          f"{'  (' + detail + ')' if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared expensive fixtures
# ---------------------------------------------------------------------------

ACCEPT_SEEDS = (0, 1, 2)


def accept_config(seed):
    # spec-default training scalars; desk-scale model sizes for the G=10 task
    return trainer.TrainConfig(latent_dim=6, vae_hidden=64, field_hidden=64,
                               time_dim=16, seed=seed)


@pytest.fixture(scope="module")
def drift_runs():
    """One multi-holdout training run per seed on the drift benchmark:
    8 timepoints, 300 cells, G=10 lifted from 2-D, holdouts {3, 5} + {7}.
    """
    spec = datakit.SyntheticSpec(kind="drift-gaussian", dim=2, genes=10,
                                 timepoints=8, cells=300, noise=0.1,
                                 lift_noise=0.05, seed=1)
    full = datakit.synth_generate(spec)
    train_ds, split = datakit.split_holdout(full, interp_times=[3.0, 5.0],
                                            extrap_times=[7.0])
    started = time.time()
    runs = []
    for seed in ACCEPT_SEEDS:
        model, log = trainer.fit(train_ds, accept_config(seed))
        rep = evalkit.evaluate(model, full, split,
                               evalkit.EvalConfig(seed=seed), train_ds=train_ds)
        runs.append({"seed": seed, "model": model, "log": log, "report": rep})
    return {"runs": runs, "elapsed": time.time() - started, "split": split,
            "train": train_ds, "full": full, "spec": spec}


@pytest.fixture(scope="module")
def bifurcation_run():
    """Training run on the branching benchmark with the post-split
    timepoint t=4 held out."""
    spec = datakit.SyntheticSpec(kind="bifurcation", dim=2, genes=10,
                                 timepoints=8, cells=300, noise=0.25,
                                 lift_noise=0.02, split_time=2.5,
                                 branch_rate=1.2, seed=5)
    full = datakit.synth_generate(spec)
    train_ds, split = datakit.split_holdout(full, interp_times=[4.0],
                                            extrap_times=[])
    model, log = trainer.fit(train_ds, accept_config(0))
    return {"full": full, "train": train_ds, "split": split, "model": model,
            "spec": spec}


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(101)
    started = time.time()
    worst = 0.0

    def check(p, closure, n_coords=3):
        nonlocal worst
        base = p.data.copy()
        grad = p.grad.copy()

        def f(v):
            p.data = v
            with nd.no_grad():
                out = closure()
            p.data = base
            return out

        coords = rng.choice(base.size, size=min(n_coords, base.size), replace=False)
        fd = central_diff_grad(f, base, coords=coords)
        mask = ~np.isnan(fd)
        worst = max(worst, rel_err(grad[mask], fd[mask]))

    for _ in range(34):  # vae_loss
        G, d, H, B = (int(rng.integers(3, 7)), int(rng.integers(2, 4)),
                      int(rng.integers(4, 10)), int(rng.integers(2, 6)))
        vae = latentvae.init_vae(G, d, H, rng)
        X = rng.normal(size=(B, G))
        noise = rng.standard_normal(size=(B, d))

        class R:
            def standard_normal(self, size):
                return noise

        lam = float(rng.uniform(0, 0.5))
        nd.backward(latentvae.vae_loss(vae, X, lam, rng=R()))
        p = vae.parameters()[int(rng.integers(0, 10))]
        check(p, lambda: float(latentvae.vae_loss(vae, X, lam, rng=R()).data))

    for _ in range(33):  # fm_loss_topk
        d, B, K = int(rng.integers(2, 4)), int(rng.integers(3, 7)), int(rng.integers(1, 3))
        emb = TimeEmbedding(dim=8, t_min=0.0, t_max=2.0)
        fwd = init_field("forward", d, 6, emb, rng)
        bwd = init_field("backward", d, 6, emb, rng)
        for fld in (fwd, bwd):
            fld.w3.data[:] = 0.2 * rng.normal(size=fld.w3.shape)
            fld.w_skip.data[:] = 0.2 * rng.normal(size=fld.w_skip.shape)
        Za, Zb = rng.normal(size=(B, d)), rng.normal(size=(B, d))
        pi = otcore.sinkhorn(otcore.cost_euclidean(Za, Zb), epsilon=0.2)
        top = otcore.topk_truncate(pi, K)
        alpha = rng.uniform(size=(B * K, 1))

        class A:
            def uniform(self, size):
                return alpha

        def loss():
            return trainer.fm_loss_topk(top, Za, Zb, 0.3, 1.7, fwd, bwd, A())

        nd.backward(loss())
        params = fwd.parameters() + bwd.parameters()
        p = params[int(rng.integers(0, len(params)))]
        check(p, lambda: float(loss().data))

    for _ in range(33):  # eval_field, both d/dZ and d/dparams from one backward
        d = int(rng.integers(2, 4))
        emb = TimeEmbedding(dim=8, t_min=0.0, t_max=1.0)
        fld = init_field("forward", d, 6, emb, rng)
        fld.w3.data[:] = 0.3 * rng.normal(size=fld.w3.shape)
        fld.w_skip.data[:] = 0.3 * rng.normal(size=fld.w_skip.shape)
        Z0 = rng.normal(size=(int(rng.integers(2, 5)), d))
        t = float(rng.uniform(0, 1))
        Zt = nd.parameter(Z0.copy())
        nd.backward(nd.tsum(nd.square(eval_field(fld, t, Zt))))

        def val():
            return float(nd.tsum(nd.square(eval_field(fld, t, nd.constant(Zt.data)))).data)

        check(Zt, val)
        check(fld.parameters()[int(rng.integers(0, 7))], val)

    elapsed = time.time() - started
    report(1, "gradient correctness", worst < 1e-4 and elapsed < 60,
           f"100 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. sinkhorn correctness
# ---------------------------------------------------------------------------

def test_criterion_02_sinkhorn_vs_lp_oracle():
    rng = np.random.default_rng(202)
    started = time.time()
    worst_marg = 0.0
    worst_gap = -np.inf
    for _ in range(200):
        B = int(rng.integers(2, 9))
        C = rng.uniform(0.0, 1.0, size=(B, B))
        eps = float(rng.uniform(0.02, 0.2))
        u = np.full(B, 1.0 / B)
        out = otcore.sinkhorn(C, epsilon=eps, max_iters=100000, tol=1e-10)
        worst_marg = max(worst_marg,
                         np.abs(out.plan.sum(axis=1) - u).max(),
                         np.abs(out.plan.sum(axis=0) - u).max())
        cost = otcore.transport_cost(out.plan, C)
        opt = lp_transport(C, u, u)
        slack = eps * np.log(B * B) + 1e-6
        worst_gap = max(worst_gap, abs(cost - opt) - slack)
    zero = otcore.sinkhorn(np.zeros((2, 2)), epsilon=0.05)
    zero_dev = np.abs(zero.plan - 0.25).max()
    elapsed = time.time() - started
    ok = worst_marg < 1e-6 and worst_gap <= 0 and zero_dev < 1e-9 and elapsed < 60
    report(2, "sinkhorn vs exact LP", ok,
           f"marginal {worst_marg:.2e}, slack margin {worst_gap:.2e}, "
           f"uniform dev {zero_dev:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. cost-fusion identity
# ---------------------------------------------------------------------------

def test_criterion_03_bidirectional_cost_identity():
    rng = np.random.default_rng(303)
    zero = lambda t, z: np.zeros_like(z)
    worst = 0.0
    for _ in range(100):
        B, d = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        Za, Zb = rng.normal(size=(B, d)) * 3, rng.normal(size=(B, d)) * 3
        Cb = otcore.cost_bidirectional(Za, Zb, zero, zero, 0.0, 1.0).entries
        Ce = otcore.cost_euclidean(Za, Zb).entries
        worst = max(worst, float(np.max(np.abs(Cb - Ce))))
    report(3, "zero-field fused cost equals euclidean", worst < 1e-12,
           f"worst entry gap {worst:.2e} over 100 batches")


# ---------------------------------------------------------------------------
# 4. Top-K exactness at K = B
# ---------------------------------------------------------------------------

def test_criterion_04_topk_tightness():
    rng = np.random.default_rng(404)
    worst = 0.0
    for B in (4, 8, 16):
        d = 3
        Za, Zb = rng.normal(size=(B, d)), rng.normal(size=(B, d)) + 0.3
        pi = otcore.sinkhorn(otcore.cost_euclidean(Za, Zb), epsilon=0.1)
        top = otcore.topk_truncate(pi, B)
        emb = TimeEmbedding(dim=8, t_min=0.0, t_max=1.0)
        fwd = init_field("forward", d, 8, emb, rng)
        bwd = init_field("backward", d, 8, emb, rng)
        for fld in (fwd, bwd):
            fld.w3.data[:] = 0.3 * rng.normal(size=fld.w3.shape)
        seed = int(rng.integers(1 << 30))
        loss = trainer.fm_loss_topk(top, Za, Zb, 0.0, 1.0, fwd, bwd,
                                    np.random.default_rng(seed))
        nd.reset_tape()
        # dense oracle over all B^2 pairs with the identical alpha stream
        alpha = np.random.default_rng(seed).uniform(size=(B * B, 1))
        i_idx = np.repeat(np.arange(B), B)
        j_idx = np.tile(np.arange(B), B)
        za, zb = Za[i_idx], Zb[j_idx]
        u = (zb - za) / 1.0
        z_alpha = (1 - alpha) * za + alpha * zb
        t_alpha = alpha[:, 0]
        w = pi.plan[i_idx, j_idx]
        with nd.no_grad():
            dense = sum(
                float((w * np.sum((eval_field(f, t_alpha, z_alpha).data - u) ** 2,
                                  axis=1)).sum())
                for f in (fwd, bwd)) / pi.plan.sum()
        worst = max(worst, abs(float(loss.data) - dense))
    report(4, "top-K loss tight at K=B", worst < 1e-10,
           f"worst |topk - dense| = {worst:.2e} for B in (4, 8, 16)")


# ---------------------------------------------------------------------------
# 5. integrator accuracy
# ---------------------------------------------------------------------------

def test_criterion_05_integrator_accuracy():
    err_at = {}
    for h in (0.2, 0.1, 0.05):
        roll = integrate(lambda t, z: z, np.array([[1.0]]), 0.0, [1.0],
                         method="rk4", step=h)
        err_at[h] = abs(roll.states[0][0, 0] - np.e)
    ratios = (err_at[0.2] / err_at[0.1], err_at[0.1] / err_at[0.05])
    ok = err_at[0.1] < 1e-5 and all(12 <= r <= 20 for r in ratios)
    report(5, "RK4 accuracy and order", ok,
           f"|err(0.1)|={err_at[0.1]:.2e}, ratios {ratios[0]:.1f}, {ratios[1]:.1f}")


# ---------------------------------------------------------------------------
# 6/7. end-to-end drift benchmark
# ---------------------------------------------------------------------------

def test_criterion_06_interpolation_beats_naive(drift_runs):
    ratios = {}
    for run in drift_runs["runs"]:
        for row in run["report"].rows:
            if row["task"] == "interp":
                ratios[(run["seed"], row["time"])] = (
                    row["wasserstein"] / row["naive_wasserstein"])
    ok = all(r <= 0.6 for r in ratios.values()) and drift_runs["elapsed"] <= 600
    detail = ", ".join(f"s{s} t={t:g}: {r:.3f}" for (s, t), r in sorted(ratios.items()))
    report(6, "interpolation W <= 0.6x naive (3 seeds)", ok,
           f"{detail}; {drift_runs['elapsed']:.0f}s for all runs")


def test_criterion_07_extrapolation_beats_naive(drift_runs):
    ratios = {}
    horizon_w = {}
    for run in drift_runs["runs"]:
        for row in run["report"].rows:
            if row["task"] == "extrap":
                ratios[run["seed"]] = row["wasserstein"] / row["naive_wasserstein"]
            horizon_w.setdefault(run["seed"], []).append(
                (row["time"], row["wasserstein"]))
    # degradation with horizon is logged, not asserted
    for seed, series in sorted(horizon_w.items()):
        trend = ", ".join(f"t={t:g}: W={w:.4f}" for t, w in sorted(series))
        print(f"\n  [horizon log] seed {seed}: {trend}")
    ok = all(r <= 0.8 for r in ratios.values())
    report(7, "extrapolation W <= 0.8x naive (3 seeds)", ok,
           ", ".join(f"s{s}: {r:.3f}" for s, r in sorted(ratios.items())))


# ---------------------------------------------------------------------------
# 8. bifurcation structure
# ---------------------------------------------------------------------------

def test_criterion_08_bifurcation_bimodality(bifurcation_run):
    spec = bifurcation_run["spec"]
    full = bifurcation_run["full"]
    axis = np.array(full.provenance["generator"]["branch_axis"])
    preds = evalkit.predict(bifurcation_run["model"], bifurcation_run["train"],
                            [4.0], n_cells=300, seed=0)[0]
    proj = preds.cells @ axis
    # unimodal null from the generator's own parameters: a single branch
    # projected on the axis is Gaussian with this scale
    sigma = float(np.hypot(spec.noise, spec.lift_noise))
    rng = np.random.default_rng(808)
    null = [dip_statistic(rng.normal(0.0, sigma, size=proj.size))
            for _ in range(199)]
    threshold = float(np.quantile(null, 0.99))
    dip = dip_statistic(proj)
    truth_dip = dip_statistic(bifurcation_run["split"].truth[4.0] @ axis)
    report(8, "held-out split interval stays bimodal", dip > threshold,
           f"dip(pred)={dip:.4f} > null99={threshold:.4f} "
           f"(dip(truth)={truth_dip:.4f})")


# ---------------------------------------------------------------------------
# 9. schedule conformance
# ---------------------------------------------------------------------------

def test_criterion_09_schedule_conformance():
    spec = datakit.SyntheticSpec(kind="drift-gaussian", dim=2, genes=5,
                                 timepoints=4, cells=40, noise=0.15,
                                 lift_noise=0.02, seed=9)
    ds = datakit.synth_generate(spec)
    cfg = trainer.TrainConfig(latent_dim=3, vae_hidden=16, field_hidden=16,
                              time_dim=8, batch=16, top_k=3, e_warm=5, k_ot=3,
                              max_steps=12, vae_epochs=5, seed=0)
    model = build_model(ds.gene_dim, latent_dim=3, vae_hidden=16,
                        field_hidden=16, time_dim=8, t_min=0.0, t_max=3.0, seed=0)
    log = trainer.TrainLog()
    opt = nd.AdamState(model.all_parameters(), lr=cfg.lr)
    rng = np.random.default_rng(0)
    for s in range(1, 13):
        trainer.train_step(model, ds, cfg, s, rng, opt, log)
    phases = [r["phase"] for r in log.records]
    switch_points = [i + 2 for i, (a, b) in enumerate(zip(phases, phases[1:]))
                     if a != b]
    global_steps = [r["step"] for r in log.records if r["l_ot"] is not None]
    ok = (switch_points == [cfg.e_warm + 1]
          and phases[cfg.e_warm - 1] == "warmup"
          and phases[cfg.e_warm] == "fused"
          and global_steps == [3, 6, 9, 12]
          and log.rollout_count == 4)
    report(9, "warmup switch at E_warm+1, globals at K_OT multiples", ok,
           f"switch at {switch_points}, global steps {global_steps}")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(
        kind="drift-gaussian", dim=2, genes=5, timepoints=5, cells=50,
        noise=0.12, lift_noise=0.02, seed=3)))
    cli_main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")])
    cfg = trainer.TrainConfig(latent_dim=3, vae_hidden=16, field_hidden=16,
                              time_dim=8, batch=16, top_k=3, e_warm=4, k_ot=5,
                              max_steps=25, vae_epochs=10, seed=0)
    cfg_path = tmp_path / "config.json"
    cfg.to_json(cfg_path)
    split_path = tmp_path / "split.json"
    split_path.write_text(json.dumps({"interp": [2], "extrap": [4]}))

    outputs = []
    for tag in ("run1", "run2"):
        rdir, edir = tmp_path / tag, tmp_path / f"{tag}_eval"
        assert cli_main(["train", "--config", str(cfg_path),
                         "--data", str(tmp_path / "data" / "data.csv"),
                         "--split", str(split_path), "--out", str(rdir)]) == 0
        assert cli_main(["evaluate", "--checkpoint", str(rdir / "checkpoint.json"),
                         "--data", str(tmp_path / "data" / "data.csv"),
                         "--split", str(split_path), "--out", str(edir),
                         "--seed", "0"]) == 0
        outputs.append({
            "trainlog": (rdir / "trainlog.csv").read_bytes(),
            "metrics_csv": (edir / "metrics.csv").read_bytes(),
            "metrics_json": (edir / "metrics.json").read_bytes(),
        })
    same = {k: outputs[0][k] == outputs[1][k] for k in outputs[0]}
    report(10, "seeded reruns byte-identical", all(same.values()),
           ", ".join(f"{k}: {'=' if v else '!='}" for k, v in same.items()))
