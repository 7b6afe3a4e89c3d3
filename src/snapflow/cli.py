"""Command-line entry point: synth / train / evaluate / predict subcommands
wired over JSON configs with seeded, file-for-file reproducible outputs.
"""

import os

# honor the thread cap before numpy binds its BLAS pool
_threads = os.environ.get("SNAPFLOW_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, datakit, evalkit, ndtensor as nd, trainer
from .model import ModelBundle


def _manifest(out_dir, command, seed, config, data_path=None, provenance=None,
              checkpoints=(), started=None, extra=None):
    blob = {
        "command": command,
        "seed": seed,
        "config": config,
        "data_path": None if data_path is None else str(data_path),
        "data_provenance": provenance or {},
        "checkpoint_paths": [str(p) for p in checkpoints],
        "versions": {"snapflow": __version__, "numpy": np.__version__,
                     "checkpoint_format": nd.CHECKPOINT_VERSION},
        "wall_clock_seconds": None if started is None else time.time() - started,
    }
    if extra:
        blob.update(extra)
    datakit.write_json_atomic(Path(out_dir) / "manifest.json", blob)


def _load_aligned(data_path, meta):
    """Load a CSV and replay the checkpoint's preprocessing and gene order."""
    ds = datakit.load_csv(data_path)
    if meta.get("preprocess"):
        ds = datakit.preprocess(ds, int(meta["hvg"]))
    genes = meta.get("gene_names")
    if genes:
        index = {g: j for j, g in enumerate(ds.gene_names)}
        missing = [g for g in genes if g not in index]
        if missing:
            raise ValueError(
                f"dataset is missing {len(missing)} genes required by the "
                f"checkpoint (first: {missing[0]})")
        cols = [index[g] for g in genes]
        ds = datakit.SnapshotDataset(
            times=ds.times, matrices=[M[:, cols] for M in ds.matrices],
            gene_names=list(genes), provenance=ds.provenance)
    elif ds.gene_dim != meta["gene_dim"]:
        raise ValueError(f"dataset has {ds.gene_dim} genes, checkpoint expects "
                         f"{meta['gene_dim']}")
    return ds


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args):
    started = time.time()
    spec = datakit.SyntheticSpec.from_json(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds = datakit.synth_generate(spec)
    data_path = out / "data.csv"
    datakit.save_csv(ds, data_path)
    datakit.write_json_atomic(out / "provenance.json", ds.provenance)
    _manifest(out, "synth", spec.seed, spec.__dict__, data_path=data_path,
              provenance=ds.provenance.get("generator", {}).get("spec"),
              started=started)
    print(f"wrote {data_path} ({ds.total_cells()} cells, "
          f"{ds.n_timepoints} timepoints, {ds.gene_dim} genes)")
    return 0


def cmd_train(args):
    started = time.time()
    config = trainer.TrainConfig.from_json(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.freeze_vae:
        config.freeze_vae = True
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds = datakit.load_csv(args.data)
    if config.preprocess:
        ds = datakit.preprocess(ds, config.hvg)
    split_info = None
    if args.split:
        interp, extrap = datakit.HoldoutSplit.request_from_json(args.split)
        ds, _ = datakit.split_holdout(ds, interp, extrap)
        split_info = {"interp": interp, "extrap": extrap}
    model, log = trainer.fit(ds, config)
    ckpt_path = out / "checkpoint.json"
    model.save(ckpt_path, extra_meta={"preprocess": config.preprocess,
                                      "hvg": config.hvg})
    log_path = out / "trainlog.csv"
    log.to_csv(log_path)
    _manifest(out, "train", config.seed, config.to_dict(), data_path=args.data,
              provenance=ds.provenance, checkpoints=[ckpt_path],
              started=started,
              extra={"converged": log.converged,
                     "steps": len(log.records),
                     "phase1_epochs": log.phase1_epochs,
                     "split": split_info})
    last = log.records[-1] if log.records else {}
    print(f"trained {len(log.records)} steps "
          f"(phase I: {log.phase1_epochs} epochs, converged: {log.converged})")
    if last:
        print(f"final: total={last['total']:.6g} l_vae={last['l_vae']:.6g} "
              f"l_fm={last['l_fm']:.6g}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_evaluate(args):
    started = time.time()
    model, meta = ModelBundle.load(args.checkpoint)
    ds = _load_aligned(args.data, meta)
    interp, extrap = datakit.HoldoutSplit.request_from_json(args.split)
    train_ds, split = datakit.split_holdout(ds, interp, extrap)
    config = evalkit.EvalConfig(seed=args.seed if args.seed is not None else 0)
    report = evalkit.evaluate(model, ds, split, config, train_ds=train_ds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "metrics.csv")
    report.to_json(out / "metrics.json")
    _manifest(out, "evaluate", config.seed, config.to_dict(),
              data_path=args.data, provenance=ds.provenance,
              checkpoints=[args.checkpoint], started=started,
              extra={"split": {"interp": interp, "extrap": extrap}})
    for row in report.rows:
        print(f"t={row['time']:g} [{row['task']}] "
              f"W={row['wasserstein']:.6g} (naive {row['naive_wasserstein']:.6g}) "
              f"l2={row['l2']:.6g} (naive {row['naive_l2']:.6g})")
    return 0


def cmd_predict(args):
    started = time.time()
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    times = [float(x) for x in args.times.split(",") if x.strip()]
    if not times:
        raise ValueError("--times must list at least one query time")
    model, meta = ModelBundle.load(args.checkpoint)
    ds = _load_aligned(args.data, meta)
    seed = args.seed if args.seed is not None else 0
    preds = evalkit.predict(model, ds, times, n_cells=args.n, seed=seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for pred in preds:
        pred_ds = datakit.SnapshotDataset(
            times=np.array([pred.time]), matrices=[pred.cells],
            gene_names=list(ds.gene_names))
        path = out / f"prediction_t{pred.time:g}.csv"
        datakit.save_csv(pred_ds, path)
        written.append(path)
    if args.emit_projection:
        evalkit.emit_projection(ds, preds, out / "projection.csv")
        written.append(out / "projection.csv")
    _manifest(out, "predict", seed,
              {"times": times, "n": args.n}, data_path=args.data,
              provenance=ds.provenance, checkpoints=[args.checkpoint],
              started=started)
    for p in written:
        print(f"wrote {p}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="snapflow",
        description="Learn continuous-time population dynamics from "
                    "unpaired snapshots and generate cells at unobserved times.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="run two-phase training")
    p.add_argument("--config", required=True, help="TrainConfig JSON")
    p.add_argument("--data", required=True, help="snapshot CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", default=None,
                   help="optional holdout JSON; held-out timepoints are "
                        "excluded from training")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--freeze-vae", action="store_true",
                   help="freeze VAE weights during phase II")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on held-out timepoints")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True,
                   help='JSON like {"interp": [4, 6], "extrap": [10]}')
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("predict", help="generate populations at query times")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--times", required=True, help="comma-separated query times")
    p.add_argument("--n", type=int, required=True, help="cells per query time")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--emit-projection", action="store_true",
                   help="also write a shared 2-D PCA projection CSV")
    p.set_defaults(fn=cmd_predict)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # uniform nonzero exit with the failure reason
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
