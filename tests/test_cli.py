import json

import numpy as np
import pytest

from snapflow import ndtensor as nd
from snapflow import trainer
from snapflow.cli import main
from snapflow.model import ModelBundle, build_model


def write_spec(path, **overrides):
    spec = dict(kind="drift-gaussian", dim=2, genes=5, timepoints=5, cells=40,
                noise=0.12, lift_noise=0.02, seed=7)
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


def write_config(path, **overrides):
    base = dict(latent_dim=3, vae_hidden=16, field_hidden=16, time_dim=8,
                batch=16, top_k=3, e_warm=3, k_ot=5, max_steps=12,
                vae_epochs=8, vae_batch=32, seed=0)
    cfg = trainer.TrainConfig(**base)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    cfg.to_json(path)
    return path


@pytest.fixture
def workspace(tmp_path):
    """Synth dataset plus a tiny trained checkpoint."""
    synth_dir = tmp_path / "synth"
    spec = write_spec(tmp_path / "spec.json")
    assert main(["synth", "--spec", str(spec), "--out", str(synth_dir)]) == 0
    cfg = write_config(tmp_path / "config.json")
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"interp": [2], "extrap": [4]}))
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(synth_dir / "data.csv"),
               "--split", str(split), "--out", str(run_dir)])
    assert rc == 0
    return {"tmp": tmp_path, "data": synth_dir / "data.csv", "config": cfg,
            "split": split, "run": run_dir,
            "checkpoint": run_dir / "checkpoint.json"}


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_dataset_and_sidecar(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "data.csv").exists()
    assert (out / "provenance.json").exists()
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["generator"]["spec"]["kind"] == "drift-gaussian"


def test_synth_rerun_identical(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["synth", "--spec", str(spec), "--out", str(out1)])
    main(["synth", "--spec", str(spec), "--out", str(out2)])
    assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
    assert (out1 / "provenance.json").read_bytes() == (out2 / "provenance.json").read_bytes()


def test_synth_invalid_kind_nonzero_exit(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", kind="spiral")
    rc = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "spiral" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_outputs(workspace):
    run = workspace["run"]
    assert (run / "checkpoint.json").exists()
    assert (run / "trainlog.csv").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert "converged" in manifest
    assert manifest["split"] == {"interp": [2], "extrap": [4]}
    assert manifest["versions"]["checkpoint_format"] == 1
    header = (run / "trainlog.csv").read_text().split("\n")[0]
    assert header == "step,phase,l_vae,l_fm,l_ot,l_dyn,total,retained_mass,seconds"


def test_train_missing_config_key_names_it(tmp_path, workspace, capsys):
    blob = json.loads(workspace["config"].read_text())
    del blob["lambda_fm"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    rc = main(["train", "--config", str(bad), "--data", str(workspace["data"]),
               "--out", str(tmp_path / "r2")])
    assert rc == 1
    assert "lambda_fm" in capsys.readouterr().err


def test_train_freeze_vae_flag(tmp_path, workspace):
    out = tmp_path / "frozen"
    rc = main(["train", "--config", str(workspace["config"]),
               "--data", str(workspace["data"]), "--out", str(out),
               "--freeze-vae"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["freeze_vae"] is True


def test_train_missing_data_file(workspace, tmp_path, capsys):
    rc = main(["train", "--config", str(workspace["config"]),
               "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x")])
    assert rc == 1


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_writes_reports(workspace, tmp_path):
    out = tmp_path / "eval"
    rc = main(["evaluate", "--checkpoint", str(workspace["checkpoint"]),
               "--data", str(workspace["data"]), "--split", str(workspace["split"]),
               "--out", str(out), "--seed", "0"])
    assert rc == 0
    blob = json.loads((out / "metrics.json").read_text())
    rows = blob["rows"]
    assert {r["task"] for r in rows} == {"interp", "extrap"}
    for task in ("interp", "extrap"):
        rws = [r for r in rows if r["task"] == task]
        assert blob["summary"][task]["wasserstein"] == pytest.approx(
            np.mean([r["wasserstein"] for r in rws]))
    header = (out / "metrics.csv").read_text().split("\n")[0]
    assert header.startswith("time,task,wasserstein,l2,naive_wasserstein")


def test_evaluate_zb_style_split_accepted(tmp_path):
    # 12 timepoints, interp {4,6,8}, extrap {10,11}
    spec = write_spec(tmp_path / "spec.json", timepoints=12, cells=30)
    synth = tmp_path / "s"
    main(["synth", "--spec", str(spec), "--out", str(synth)])
    cfg = write_config(tmp_path / "c.json", max_steps=6, vae_epochs=4)
    split = tmp_path / "zb.json"
    split.write_text(json.dumps({"interp": [4, 6, 8], "extrap": [10, 11]}))
    run = tmp_path / "r"
    assert main(["train", "--config", str(cfg), "--data", str(synth / "data.csv"),
                 "--split", str(split), "--out", str(run)]) == 0
    out = tmp_path / "e"
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(synth / "data.csv"), "--split", str(split),
                 "--out", str(out)]) == 0
    rows = json.loads((out / "metrics.json").read_text())["rows"]
    assert [r["time"] for r in rows] == [4.0, 6.0, 8.0, 10.0, 11.0]


def test_evaluate_dimension_mismatch_before_metrics(workspace, tmp_path, capsys):
    other = tmp_path / "other"
    spec = write_spec(tmp_path / "spec2.json", genes=3, seed=8)
    main(["synth", "--spec", str(spec), "--out", str(other)])
    out = tmp_path / "bad_eval"
    rc = main(["evaluate", "--checkpoint", str(workspace["checkpoint"]),
               "--data", str(other / "data.csv"), "--split", str(workspace["split"]),
               "--out", str(out)])
    assert rc == 1
    assert not (out / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_writes_one_file_per_time(workspace, tmp_path):
    out = tmp_path / "preds"
    rc = main(["predict", "--checkpoint", str(workspace["checkpoint"]),
               "--data", str(workspace["data"]), "--times", "0.0,1.5,3.0",
               "--n", "25", "--seed", "3", "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.glob("prediction_t*.csv"))
    assert files == ["prediction_t0.csv", "prediction_t1.5.csv", "prediction_t3.csv"]
    first = (out / "prediction_t0.csv").read_text().strip().split("\n")
    assert len(first) == 26  # header + 25 cells


def test_predict_seeded_reruns_identical(workspace, tmp_path):
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        main(["predict", "--checkpoint", str(workspace["checkpoint"]),
              "--data", str(workspace["data"]), "--times", "2.5",
              "--n", "10", "--seed", "11", "--out", str(out)])
        outs.append((out / "prediction_t2.5.csv").read_bytes())
    assert outs[0] == outs[1]


def test_predict_n_zero_usage_error(workspace, tmp_path, capsys):
    rc = main(["predict", "--checkpoint", str(workspace["checkpoint"]),
               "--data", str(workspace["data"]), "--times", "1.0",
               "--n", "0", "--out", str(tmp_path / "z")])
    assert rc == 1
    assert "--n" in capsys.readouterr().err


def test_predict_emit_projection(workspace, tmp_path):
    out = tmp_path / "proj"
    rc = main(["predict", "--checkpoint", str(workspace["checkpoint"]),
               "--data", str(workspace["data"]), "--times", "1.0,2.0",
               "--n", "15", "--seed", "0", "--out", str(out),
               "--emit-projection"])
    assert rc == 0
    lines = (out / "projection.csv").read_text().strip().split("\n")
    assert lines[0] == "x,y,time,source"
    n_true = 5 * 40
    assert len(lines) - 1 == n_true + 2 * 15


def test_unreadable_checkpoint_errors(workspace, tmp_path):
    rc = main(["predict", "--checkpoint", str(tmp_path / "ghost.json"),
               "--data", str(workspace["data"]), "--times", "1.0",
               "--n", "5", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_checkpoint_with_unexpected_parameter_rejected(tmp_path):
    path = tmp_path / "ckpt.json"
    build_model(gene_dim=5, latent_dim=3, vae_hidden=8, field_hidden=8,
                time_dim=4).save(path)
    arrays, meta = nd.load_checkpoint(path)
    arrays["field.forward.w4"] = np.zeros(3)
    nd.save_checkpoint(path, arrays, meta=meta)
    with pytest.raises(ValueError, match=r"unexpected parameters: \['field\.forward\.w4'\]"):
        ModelBundle.load(path)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_train_and_evaluate_reruns_byte_identical(workspace, tmp_path):
    runs = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        main(["train", "--config", str(workspace["config"]),
              "--data", str(workspace["data"]), "--split", str(workspace["split"]),
              "--out", str(run)])
        ev = tmp_path / f"{name}_eval"
        main(["evaluate", "--checkpoint", str(run / "checkpoint.json"),
              "--data", str(workspace["data"]), "--split", str(workspace["split"]),
              "--out", str(ev), "--seed", "0"])
        runs.append((
            (run / "trainlog.csv").read_bytes(),
            (run / "checkpoint.json").read_bytes(),
            (ev / "metrics.csv").read_bytes(),
            (ev / "metrics.json").read_bytes(),
        ))
    assert runs[0] == runs[1]
