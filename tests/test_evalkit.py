import numpy as np
import pytest

from snapflow import datakit, evalkit, latentvae, ndtensor as nd
from snapflow.evalkit import (EvalConfig, MetricReport, PredictionSet,
                              emit_projection, evaluate, l2_metric,
                              naive_baseline, predict)
from snapflow.flowfield import integrate

from oracles import avg_pairwise_l2_loop


# ---------------------------------------------------------------------------
# l2 metric
# ---------------------------------------------------------------------------

def test_l2_metric_345():
    assert l2_metric(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_l2_metric_identical_point():
    p = np.array([[1.0, 2.0, 3.0]])
    assert l2_metric(p, p) == 0.0


def test_l2_metric_matches_double_loop():
    rng = np.random.default_rng(2)
    X, Y = rng.normal(size=(20, 4)), rng.normal(size=(20, 4))
    assert abs(l2_metric(X, Y) - avg_pairwise_l2_loop(X, Y)) < 1e-10


def test_l2_metric_symmetric_nonnegative():
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(7, 3)), rng.normal(size=(9, 3))
    assert l2_metric(X, Y) == pytest.approx(l2_metric(Y, X))
    assert l2_metric(X, Y) > 0


def test_l2_metric_errors():
    with pytest.raises(ValueError):
        l2_metric(np.zeros((0, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        l2_metric(np.zeros((2, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# naive baseline
# ---------------------------------------------------------------------------

def test_naive_baseline_picks_latest_preceding(quick_drift):
    train = quick_drift["train"]
    pred = naive_baseline(train, 4.0)          # t=4 held out; bracket is t=3
    assert pred.provenance["source_time"] == 3.0
    assert np.array_equal(pred.cells, train.matrix_at(3.0))


def test_naive_baseline_at_training_time(quick_drift):
    train = quick_drift["train"]
    pred = naive_baseline(train, 5.0)
    assert pred.provenance["source_time"] == 5.0
    assert np.array_equal(pred.cells, train.matrix_at(5.0))


def test_naive_baseline_no_preceding_time(quick_drift):
    with pytest.raises(ValueError):
        naive_baseline(quick_drift["train"], -1.0)


def test_naive_metric_equals_bracket_metric(quick_drift):
    full, train, split = quick_drift["full"], quick_drift["train"], quick_drift["split"]
    truth = split.truth[4.0]
    naive = naive_baseline(train, 4.0)
    assert l2_metric(truth, naive.cells) == pytest.approx(
        l2_metric(truth, train.matrix_at(3.0)))


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_at_t0_is_encode_decode_of_sources(quick_drift):
    model, train = quick_drift["model"], quick_drift["train"]
    out = predict(model, train, [0.0], n_cells=12, seed=5)[0]
    rng = np.random.default_rng(5)
    X0 = train.matrices[0]
    rows = rng.choice(X0.shape[0], size=12, replace=False)
    with nd.no_grad():
        _, _, z0 = latentvae.encode(model.vae, X0[rows], rng=rng)
        assert np.array_equal(out.cells, latentvae.decode(model.vae, z0).data)


def test_inference_records_nothing_on_the_tape(quick_drift):
    model, train = quick_drift["model"], quick_drift["train"]
    nd.reset_tape()
    predict(model, train, [0.0, 2.5], n_cells=10, seed=2)
    assert not nd.active_tape().nodes
    z0 = np.random.default_rng(3).normal(size=(6, model.forward_field.latent_dim))
    roll = integrate(model.forward_field, z0, 0.0, [1.0, 2.0], step=0.5)
    assert isinstance(roll.states[-1], np.ndarray)
    assert not nd.active_tape().nodes


def test_predict_seed_determinism(quick_drift):
    model, train = quick_drift["model"], quick_drift["train"]
    a = predict(model, train, [2.0, 4.5], n_cells=20, seed=9)
    b = predict(model, train, [2.0, 4.5], n_cells=20, seed=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.cells, pb.cells)


def test_predict_validation(quick_drift):
    model, train = quick_drift["model"], quick_drift["train"]
    with pytest.raises(ValueError):
        predict(model, train, [-0.5], n_cells=5, seed=0)
    with pytest.raises(ValueError):
        predict(model, train, [1.0], n_cells=0, seed=0)
    with pytest.raises(ValueError):
        predict(model, train, [], n_cells=5, seed=0)


def test_predict_unobserved_time_interpolates_generator_means(quick_drift):
    model, train, spec = quick_drift["model"], quick_drift["train"], quick_drift["spec"]
    full = quick_drift["full"]
    gen = full.provenance["generator"]
    lift = np.array(gen["lift"])
    direction = lift @ np.ones(spec.dim)
    direction /= np.linalg.norm(direction)
    preds = predict(model, train, [4.5], n_cells=300, seed=4)[0]
    proj = preds.cells @ direction
    mu4 = np.array(gen["intrinsic_means"][4]) @ lift.T @ direction
    mu5 = np.array(gen["intrinsic_means"][5]) @ lift.T @ direction
    se = 3 * spec.noise / np.sqrt(300)
    assert mu4 - 3 * se <= proj.mean() <= mu5 + 3 * se


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_oracle_replay_near_zero(quick_drift):
    full, split = quick_drift["full"], quick_drift["split"]

    def oracle(model, ds, times, n_cells, seed):
        return [PredictionSet(time=t, cells=split.truth[t]) for t in times]

    report = evaluate(quick_drift["model"], full, split,
                      EvalConfig(seed=0), train_ds=quick_drift["train"],
                      predict_fn=oracle)
    for row in report.rows:
        assert row["wasserstein"] < 1e-3
        assert row["l2"] > 0  # average pairwise distance of a cloud with itself


def test_evaluate_summary_is_row_mean(quick_drift):
    report = evaluate(quick_drift["model"], quick_drift["full"],
                      quick_drift["split"], EvalConfig(seed=0),
                      train_ds=quick_drift["train"])
    rows = [r for r in report.rows if r["task"] == "interp"]
    assert report.summary["interp"]["wasserstein"] == pytest.approx(
        np.mean([r["wasserstein"] for r in rows]))
    assert report.summary["interp"]["l2"] == pytest.approx(
        np.mean([r["l2"] for r in rows]))


def test_evaluate_beats_naive_on_drift(quick_drift):
    report = evaluate(quick_drift["model"], quick_drift["full"],
                      quick_drift["split"], EvalConfig(seed=0),
                      train_ds=quick_drift["train"])
    for row in report.rows:
        assert row["wasserstein"] < row["naive_wasserstein"]


def test_evaluate_deterministic(quick_drift):
    args = (quick_drift["model"], quick_drift["full"], quick_drift["split"])
    r1 = evaluate(*args, EvalConfig(seed=7), train_ds=quick_drift["train"])
    r2 = evaluate(*args, EvalConfig(seed=7), train_ds=quick_drift["train"])
    assert r1.rows == r2.rows
    assert r1.summary == r2.summary


def test_metric_ranking_consistency(quick_drift):
    split = quick_drift["split"]
    truth = split.truth[4.0]
    rng = np.random.default_rng(6)
    near = truth + 0.02 * rng.normal(size=truth.shape)
    far = truth + 0.8 * rng.normal(size=truth.shape)
    assert evalkit.ot_distance(truth, near) <= evalkit.ot_distance(truth, far)
    assert l2_metric(truth, near) <= l2_metric(truth, far)


def test_evaluate_requires_holdouts(quick_drift):
    empty = datakit.HoldoutSplit(train_times=quick_drift["train"].times,
                                 interp_times=np.array([]),
                                 extrap_times=np.array([]))
    with pytest.raises(ValueError):
        evaluate(quick_drift["model"], quick_drift["full"], empty,
                 EvalConfig(), train_ds=quick_drift["train"])


def test_metric_report_files(tmp_path, quick_drift):
    report = evaluate(quick_drift["model"], quick_drift["full"],
                      quick_drift["split"], EvalConfig(seed=0),
                      train_ds=quick_drift["train"])
    csv_path = tmp_path / "metrics.csv"
    json_path = tmp_path / "metrics.json"
    report.to_csv(csv_path)
    report.to_json(json_path)
    header = csv_path.read_text().split("\n")[0]
    assert header == "time,task,wasserstein,l2,naive_wasserstein,naive_l2,n_true,n_pred"
    blob = __import__("json").loads(json_path.read_text())
    assert blob["summary"] == report.summary


# ---------------------------------------------------------------------------
# projection emission
# ---------------------------------------------------------------------------

def test_emit_projection_identical_sets(tmp_path, quick_drift):
    full = quick_drift["full"]
    preds = [PredictionSet(time=float(t), cells=M)
             for t, M in zip(full.times, full.matrices)]
    path = tmp_path / "proj.csv"
    info = emit_projection(full, preds, path)
    lines = path.read_text().strip().split("\n")[1:]
    n = full.total_cells()
    assert info["rows"] == 2 * n == len(lines)
    true_xy = np.array([list(map(float, ln.split(",")[:2]))
                        for ln in lines if ln.endswith("true")])
    pred_xy = np.array([list(map(float, ln.split(",")[:2]))
                        for ln in lines if ln.endswith("pred")])
    assert np.array_equal(true_xy, pred_xy)


def test_emit_projection_matches_eigendecomposition(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(400, 5))
    ds = datakit.SnapshotDataset(times=np.array([0.0]), matrices=[X],
                                 gene_names=[f"g{i}" for i in range(5)])
    info = emit_projection(ds, [], tmp_path / "p.csv")
    A = X - X.mean(axis=0)
    evals = np.sort(np.linalg.eigvalsh(A.T @ A))[::-1]
    assert np.allclose(sorted(info["explained_variance"], reverse=True),
                       evals[:2], rtol=1e-8)
    # isotropic data: top-2 share close to 2/5 of the variance
    share = sum(info["explained_variance"]) / info["total_variance"]
    assert 0.35 <= share <= 0.55


def test_emit_projection_rank_check(tmp_path):
    X = np.outer(np.arange(10.0), np.ones(3))      # rank 1
    ds = datakit.SnapshotDataset(times=np.array([0.0]), matrices=[X],
                                 gene_names=["a", "b", "c"])
    with pytest.raises(ValueError):
        emit_projection(ds, [], tmp_path / "bad.csv")
