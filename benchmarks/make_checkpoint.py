"""Write the drift-eval checkpoint and the config it was trained with.

    python3 benchmarks/make_checkpoint.py

Runs the drift-train fit (BLAS pinned to one thread) and writes
``benchmarks/data/drift_checkpoint.json`` plus
``benchmarks/data/drift_checkpoint_config.json``. The checkpoint is
committed so that every commit's drift-eval scores identical inputs; run
this only to replace it on purpose.
"""

import json
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from snapflow import datakit, trainer  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    spec = datakit.SyntheticSpec(**workloads.DRIFT_SPEC)
    train_ds, _ = datakit.split_holdout(datakit.synth_generate(spec),
                                        workloads.DRIFT_INTERP,
                                        workloads.DRIFT_EXTRAP)
    config = workloads.drift_config(workloads.DRIFT_TRAIN_SEED,
                                    workloads.DRIFT_STEPS)
    model, log = trainer.fit(train_ds, config)
    workloads.CHECKPOINT.parent.mkdir(exist_ok=True)
    model.save(workloads.CHECKPOINT)
    env = run.environment(1)
    blob = {
        "spec": workloads.DRIFT_SPEC,
        "split": {"interp": workloads.DRIFT_INTERP,
                  "extrap": workloads.DRIFT_EXTRAP},
        "train_config": config.to_dict(),
        "steps_run": len(log.records),
        "phase1_epochs": log.phase1_epochs,
        "generated_by": "python3 benchmarks/make_checkpoint.py",
        "git_sha": env["git_sha"],
        "src_sha256": env["src_sha256"],
    }
    workloads.CHECKPOINT_CONFIG.write_text(json.dumps(blob, indent=2) + "\n")
    print(f"wrote {workloads.CHECKPOINT} after {len(log.records)} steps")


if __name__ == "__main__":
    main()
