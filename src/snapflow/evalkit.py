"""Held-out timepoint evaluation: forward generation, Wasserstein and average
pairwise L2 metrics, the replicate-last-snapshot baseline, and 2-D projection
emission for plotting.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, asdict

import numpy as np

from . import latentvae, ndtensor as nd
from .datakit import split_holdout, write_json_atomic, write_records_csv
from .flowfield import integrate
from .otcore import ot_distance, pairwise_sqdist


@dataclass
class EvalConfig:
    blur: float = 0.05
    n_max: int = 1000
    seed: int = 0
    ode_method: str = "rk4"
    ode_step: float = 0.1

    def to_dict(self):
        return asdict(self)


@dataclass
class PredictionSet:
    """Generated cells for one query time, with generation provenance."""

    time: float
    cells: np.ndarray
    provenance: dict = field(default_factory=dict)


def predict(model, dataset, query_times, n_cells, seed, ode_method="rk4",
            ode_step=0.1):
    """Generate populations at the query times by encoding source cells at
    the earliest training time and rolling the forward field.

    Source cells are drawn with replacement when n_cells exceeds the
    snapshot size. Only forward generation is supported: all query times
    must be >= t_0.
    """
    if n_cells < 1:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    query_times = sorted(float(t) for t in query_times)
    if not query_times:
        raise ValueError("query_times must list at least one time")
    t0 = float(dataset.times[0])
    if query_times[0] < t0 - 1e-9:
        raise ValueError(f"query time {query_times[0]} precedes t_0={t0}")
    rng = np.random.default_rng(seed)
    X0 = dataset.matrices[0]
    rows = rng.choice(X0.shape[0], size=n_cells, replace=X0.shape[0] < n_cells)
    out = []
    with nd.no_grad():
        _, _, z0 = latentvae.encode(model.vae, X0[rows], rng=rng)
        roll = integrate(model.forward_field, z0.data, t0, query_times,
                         method=ode_method, step=ode_step)
        for t, z in zip(query_times, roll.states):
            cells = latentvae.decode(model.vae, z).data
            out.append(PredictionSet(
                time=float(t), cells=cells,
                provenance={"n_cells": n_cells, "seed": seed,
                            "integrator": {"method": ode_method, "step": ode_step},
                            "source_time": t0}))
    return out


def l2_metric(X, X_hat):
    """Average pairwise Euclidean distance between two cell sets."""
    X = np.asarray(X, dtype=np.float64)
    X_hat = np.asarray(X_hat, dtype=np.float64)
    if X.size == 0 or X_hat.size == 0:
        raise ValueError("l2_metric requires nonempty sets")
    if X.shape[1] != X_hat.shape[1]:
        raise ValueError(f"feature dims differ: {X.shape[1]} vs {X_hat.shape[1]}")
    return float(np.sqrt(pairwise_sqdist(X, X_hat)).mean())


def naive_baseline(train_ds, query_time):
    """Replicate the latest training snapshot that does not exceed the query time."""
    mask = train_ds.times <= query_time + 1e-9
    if not mask.any():
        raise ValueError(f"no training timepoint precedes query time {query_time}")
    idx = int(np.where(mask)[0][-1])
    return PredictionSet(
        time=float(query_time),
        cells=train_ds.matrices[idx].copy(),
        provenance={"baseline": "naive", "source_time": float(train_ds.times[idx])})


@dataclass
class MetricReport:
    """Per-holdout metric rows plus per-task summary averages."""

    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    COLUMNS = ("time", "task", "wasserstein", "l2", "naive_wasserstein",
               "naive_l2", "n_true", "n_pred")

    def finalize(self):
        self.summary = {}
        for task in ("interp", "extrap"):
            rows = [r for r in self.rows if r["task"] == task]
            if rows:
                self.summary[task] = {
                    k: float(np.mean([r[k] for r in rows]))
                    for k in ("wasserstein", "l2", "naive_wasserstein", "naive_l2")
                }
        return self

    def to_csv(self, path):
        write_records_csv(path, self.COLUMNS, self.rows)

    def to_json(self, path):
        write_json_atomic(path, {"rows": self.rows, "summary": self.summary,
                                 "config": self.config})


def evaluate(model, dataset, split, config=None, train_ds=None, predict_fn=None):
    """Score predictions against every held-out timepoint.

    ``dataset`` is the full dataset; the training view is derived from the
    split (or passed explicitly). ``predict_fn(model, train_ds, times,
    n_cells, seed)`` may be substituted for oracle tests.
    """
    config = config or EvalConfig()
    if len(split.interp_times) + len(split.extrap_times) == 0:
        raise ValueError("split contains no holdouts")
    if train_ds is None:
        train_ds, _ = split_holdout(dataset, split.interp_times, split.extrap_times)
    if predict_fn is None:
        def predict_fn(model, ds, times, n_cells, seed):
            return predict(model, ds, times, n_cells, seed,
                           ode_method=config.ode_method, ode_step=config.ode_step)
    report = MetricReport(config=config.to_dict())
    holdouts = [(float(t), "interp") for t in split.interp_times] + \
               [(float(t), "extrap") for t in split.extrap_times]
    for t, task in sorted(holdouts):
        truth = split.truth[t]
        n_pred = min(truth.shape[0], config.n_max)
        preds = predict_fn(model, train_ds, [t], n_pred, config.seed)
        pred_cells = preds[0].cells
        naive = naive_baseline(train_ds, t)
        report.rows.append({
            "time": t,
            "task": task,
            "wasserstein": float(ot_distance(truth, pred_cells, blur=config.blur)),
            "l2": l2_metric(truth, pred_cells),
            "naive_wasserstein": float(ot_distance(truth, naive.cells,
                                                   blur=config.blur)),
            "naive_l2": l2_metric(truth, naive.cells),
            "n_true": int(truth.shape[0]),
            "n_pred": int(pred_cells.shape[0]),
        })
    return report.finalize()


def emit_projection(dataset, predictions, out_path):
    """Fit a 2-component PCA on the true cells and write both true and
    predicted cells as (x, y, time, source) CSV rows.
    """
    X_true = np.concatenate(dataset.matrices, axis=0)
    center = X_true.mean(axis=0)
    A = X_true - center
    _, svals, Vt = np.linalg.svd(A, full_matrices=False)
    if (svals > 1e-12).sum() < 2:
        raise ValueError("data has fewer than 2 effective dimensions")
    comps = Vt[:2]
    # deterministic sign: largest-magnitude loading positive
    for k in range(2):
        j = int(np.argmax(np.abs(comps[k])))
        if comps[k, j] < 0:
            comps[k] = -comps[k]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "time", "source"])
        for t, M in zip(dataset.times, dataset.matrices):
            for xy in (M - center) @ comps.T:
                writer.writerow([repr(float(xy[0])), repr(float(xy[1])),
                                 repr(float(t)), "true"])
        for pred in predictions:
            for xy in (pred.cells - center) @ comps.T:
                writer.writerow([repr(float(xy[0])), repr(float(xy[1])),
                                 repr(float(pred.time)), "pred"])
    proj_var = ((A @ comps.T) ** 2).sum(axis=0)
    return {"explained_variance": proj_var.tolist(),
            "total_variance": float((A ** 2).sum()),
            "rows": int(X_true.shape[0] + sum(p.cells.shape[0] for p in predictions))}
