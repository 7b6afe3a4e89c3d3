"""The benchmark's two workloads.

Each workload has a set-up and a unit of work, both repeated by the runner.
A unit returns its measurements and the list of output checks it failed; a
unit that raises or fails a check counts as one failed operation. ``items``
and ``items_s`` are the work a unit counts (Phase II steps, or predicted
cells x query times) and the seconds it took.

drift-train
    One ``trainer.fit`` on the acceptance drift task (drift-gaussian, G=10,
    300 cells, holdouts {3, 5} and {7}; training seed 0) for a fixed number
    of steps that covers the warmup and the fused phase, then, untimed, a
    checkpoint save and an evaluation of the fit whose samples the workload
    seed draws. Stresses the step and global Sinkhorn solves, the tape
    backward and Phase I. The training seed is fixed because the solver work
    of a fit depends on it: over training seeds 11-15 the same fit took 27
    to 49 s.
drift-eval
    ``snapflow evaluate`` of a committed checkpoint on the three holdouts,
    then ``snapflow predict`` of thousands of cells at several times, both
    in process through ``cli.main``, with the workload seed as their seed.
    Stresses ``ot_distance``, no-tape inference and the CLI's checkpoint and
    CSV IO; bypasses the step Sinkhorn and the tape. The set-up writes the
    data through ``snapflow synth``.

The workload seed therefore draws samples but never changes the amount of
solver work, so the spread across seeds measures the host.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from snapflow import cli, datakit, evalkit, trainer

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "data" / "drift_checkpoint.json"
CHECKPOINT_CONFIG = HERE / "data" / "drift_checkpoint_config.json"

# The acceptance drift task (tests/test_acceptance.py: drift_runs).
DRIFT_SPEC = dict(kind="drift-gaussian", dim=2, genes=10, timepoints=8,
                  cells=300, noise=0.1, lift_noise=0.05, seed=1)
DRIFT_INTERP = [3.0, 5.0]
DRIFT_EXTRAP = [7.0]
# 200 warmup steps (spec-default e_warm) plus 60 fused ones.
DRIFT_STEPS = 260
DRIFT_TRAIN_SEED = 0
# Acceptance gates of criteria 6 and 7.
INTERP_GATE = 0.6
EXTRAP_GATE = 0.8

# Query times of the drift-eval predict call; the last training snapshot is t=6.
PREDICT_TIMES = (1.5, 3.0, 6.0, 8.0)
PREDICT_CELLS = 4000



def drift_config(seed, steps):
    """Acceptance config with early stopping held off by ``patience``."""
    return trainer.TrainConfig(latent_dim=6, vae_hidden=64, field_hidden=64,
                               time_dim=16, seed=seed, max_steps=steps,
                               patience=steps + 1)


def spans_named(spans, name):
    return [sp for sp in spans if sp.name == name]


def w_ratios(rows):
    """Mean held-out W / naive W over the interp and the extrap rows."""
    out = {}
    for task in ("interp", "extrap"):
        ratios = [r["wasserstein"] / r["naive_wasserstein"]
                  for r in rows if r["task"] == task]
        out[f"{task}_w_ratio"] = float(np.mean(ratios))
    return out


def rows_finite(rows):
    return all(np.isfinite(v) for r in rows for v in r.values()
               if isinstance(v, float))


def run_cli(*commands):
    """Run snapflow subcommands in process; returns an error or None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in commands:
            if cli.main(argv) != 0:
                return f"{argv[0]} failed: {err.getvalue().strip()}"
    return None


class DriftTrain:
    name = "drift-train"
    # end-to-end metric -> the name it also goes by on this workload
    aliases = {"unit_s": "fit_s", "items_per_s": "train_steps_per_s"}
    # set-ups per timed block: about 1.4 s at some 3.4 ms each
    setup_reps = 400

    def __init__(self, seed, workdir):
        self.seed = seed
        self.work = Path(workdir)

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.full = datakit.synth_generate(datakit.SyntheticSpec(**DRIFT_SPEC))
        self.train_ds, self.split = datakit.split_holdout(
            self.full, DRIFT_INTERP, DRIFT_EXTRAP)
        self.config = drift_config(DRIFT_TRAIN_SEED, DRIFT_STEPS)

    def unit(self, tracer):
        first = len(tracer.spans)
        t0 = time.perf_counter()
        model, log = trainer.fit(self.train_ds, self.config)
        fit_s = time.perf_counter() - t0
        phase1_s = sum(sp.seconds for sp in
                       spans_named(tracer.spans[first:], "trainer.pretrain_vae"))
        # untimed for fit_s: the checkpoint and the quality of the fit
        model.save(self.work / "checkpoint.json")
        t1 = time.perf_counter()
        report = evalkit.evaluate(model, self.full, self.split,
                                  evalkit.EvalConfig(seed=self.seed),
                                  train_ds=self.train_ds)
        eval_s = time.perf_counter() - t1
        ratios = w_ratios(report.rows)
        problems = []
        if len(log.records) != self.config.max_steps or log.converged:
            problems.append(f"ran {len(log.records)} of "
                            f"{self.config.max_steps} steps")
        losses = [r[k] for r in log.records
                  for k in ("l_vae", "l_fm", "l_ot", "l_dyn", "total")
                  if r[k] is not None]
        if not np.isfinite(losses).all():
            problems.append("non-finite loss")
        if {r["phase"] for r in log.records} != {"warmup", "fused"}:
            problems.append("fit did not reach the fused phase")
        for r in report.rows:
            gate = INTERP_GATE if r["task"] == "interp" else EXTRAP_GATE
            ratio = r["wasserstein"] / r["naive_wasserstein"]
            if not ratio <= gate:
                problems.append(f"t={r['time']:g} W ratio {ratio:.3f} > {gate}")
        return {"unit_s": fit_s, "items": len(log.records),
                "items_s": fit_s - phase1_s, "eval_s": eval_s, **ratios}, problems

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


class DriftEval:
    name = "drift-eval"
    aliases = {"items_per_s": "predict_cells_per_s"}
    # set-ups per timed block: about 1.4 s at some 57 ms each
    setup_reps = 25
    TIMES = ",".join(f"{t:g}" for t in PREDICT_TIMES)
    COMPARED = ("eval/metrics.csv", "eval/metrics.json",
                *(f"pred/prediction_t{t:g}.csv" for t in PREDICT_TIMES))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.work = Path(workdir)
        self.first = None

    def setup(self):
        blob = json.loads(CHECKPOINT_CONFIG.read_text())
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "spec.json").write_text(json.dumps(blob["spec"]))
        (self.work / "split.json").write_text(json.dumps(blob["split"]))
        error = run_cli(["synth", "--spec", str(self.work / "spec.json"),
                         "--out", str(self.work / "data")])
        if error:
            raise RuntimeError(error)

    def unit(self, tracer):
        w = self.work
        shutil.rmtree(w / "eval", ignore_errors=True)
        shutil.rmtree(w / "pred", ignore_errors=True)
        common = ["--checkpoint", str(CHECKPOINT), "--data",
                  str(w / "data" / "data.csv"), "--seed", str(self.seed)]
        first = len(tracer.spans)
        t0 = time.perf_counter()
        error = run_cli(["evaluate", *common, "--split", str(w / "split.json"),
                         "--out", str(w / "eval")])
        t1 = time.perf_counter()
        error = error or run_cli(["predict", *common, "--times", self.TIMES,
                                  "--n", str(PREDICT_CELLS), "--out", str(w / "pred")])
        t2 = time.perf_counter()
        if error:
            return {}, [error]
        eval_s = sum(sp.seconds for sp in
                     spans_named(tracer.spans[first:], "evalkit.evaluate"))
        outputs = {name: (w / name).read_bytes() for name in self.COMPARED}
        rows = json.loads(outputs["eval/metrics.json"])["rows"]
        problems = []
        if not rows_finite(rows):
            problems.append("non-finite metric")
        for t in PREDICT_TIMES:
            text = outputs[f"pred/prediction_t{t:g}.csv"]
            if text.count(b"\n") != PREDICT_CELLS + 1 or b"nan" in text or b"inf" in text:
                problems.append(f"prediction at t={t:g} is not {PREDICT_CELLS} finite rows")
        if self.first is None:
            self.first = outputs
        else:
            problems += [f"{name} differs from the first repetition"
                         for name in self.COMPARED
                         if outputs[name] != self.first[name]]
        return {"unit_s": t2 - t0, "eval_s": eval_s,
                "items": PREDICT_CELLS * len(PREDICT_TIMES), "items_s": t2 - t1,
                **w_ratios(rows)}, problems

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DriftTrain, DriftEval)}
