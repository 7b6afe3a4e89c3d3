"""Hooks on the package's modules and the per-layer metrics built from them.

Each hook targets a name where the program looks it up; the span names are
``<module>.<function>``, with a suffix where one function serves two paths
(tape or inference, step or global solve, warmup or fused step, Phase I
or Phase II).
Counts are reported per unit of work, so they repeat exactly for a fixed
seed however many units fit in the measuring window.
"""

from __future__ import annotations

import os
import statistics

from snapflow import (cli, datakit, evalkit, flowfield, latentvae,
                      ndtensor as nd, otcore, trainer)

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("otcore.sinkhorn.step.calls", "count"),
    ("otcore.sinkhorn.step.ms_p50", "ms"),
    ("otcore.sinkhorn.step.iterations_mean", "count"),
    ("otcore.sinkhorn.step.unconverged_frac", "ratio"),
    ("otcore.sinkhorn.global.calls", "count"),
    ("otcore.sinkhorn.global.ms_p50", "ms"),
    ("otcore.sinkhorn.global.iterations_mean", "count"),
    ("otcore.sinkhorn.global.unconverged_frac", "ratio"),
    ("otcore.sinkhorn.iter_cells_per_s", "1/s"),
    ("otcore.sinkhorn.phase2_share", "ratio"),
    ("otcore.cost_bidirectional.ms_p50", "ms"),
    ("otcore.topk_truncate.retained_mass_mean", "ratio"),
    ("otcore.ot_distance.calls", "count"),
    ("otcore.ot_distance.ms_p50", "ms"),
    ("ndtensor.backward.ms_p50", "ms"),
    ("ndtensor.backward.tape_nodes_mean", "count"),
    ("ndtensor.adam_step.ms_p50", "ms"),
    ("ndtensor.save_checkpoint.ms", "ms"),
    ("ndtensor.load_checkpoint.ms", "ms"),
    ("ndtensor.checkpoint_bytes", "bytes"),
    ("trainer.pretrain_vae.s", "s"),
    ("trainer.pretrain_vae.epochs", "count"),
    ("trainer.train_step.warmup.ms_p50", "ms"),
    ("trainer.train_step.fused.ms_p50", "ms"),
    ("trainer.train_step.global.ms_p50", "ms"),
    ("trainer.fm_loss_topk.ms_p50", "ms"),
    ("trainer.global_block.ms_p50", "ms"),
    ("flowfield.integrate.tape.ms_p50", "ms"),
    ("flowfield.integrate.infer.ms_p50", "ms"),
    ("flowfield.field_evals", "count"),
    ("latentvae.encode.tape.ms_p50", "ms"),
    ("latentvae.encode.infer.ms_p50", "ms"),
    ("latentvae.decode.tape.ms_p50", "ms"),
    ("latentvae.decode.infer.ms_p50", "ms"),
    ("evalkit.predict.ms_p50", "ms"),
    ("evalkit.evaluate.self_s", "s"),
    ("datakit.load_csv.ms", "ms"),
    ("datakit.save_csv.ms", "ms"),
    ("datakit.synth_generate.ms", "ms"),
    ("cli.synth.self_ms", "ms"),
    ("cli.evaluate.self_ms", "ms"),
    ("cli.predict.self_ms", "ms"),
    ("evalkit.interp_w_ratio", "ratio"),
    ("evalkit.extrap_w_ratio", "ratio"),
    ("process.minor_faults", "count"),
    ("trace.spans", "count"),
]


def install_timing_hooks(tracer):
    """The few spans the end-to-end metrics need inside the program."""
    tracer.hook(trainer, "fit", "trainer.fit")
    tracer.hook(trainer, "pretrain_vae", "trainer.pretrain_vae",
                after=lambda sp, a, kw, epochs: sp.attrs.update(epochs=epochs))
    tracer.hook(evalkit, "evaluate", "evalkit.evaluate")


def install_layer_hooks(tracer):
    """Every per-layer span and counter, on top of the timing hooks."""

    def sinkhorn_before(sp, args, kwargs):
        if tracer.inside("trainer.global_block"):
            sp.name = "otcore.sinkhorn.global"
        elif tracer.inside("trainer.train_step"):
            sp.name = "otcore.sinkhorn.step"

    def sinkhorn_after(sp, args, kwargs, coupling):
        sp.attrs.update(iterations=coupling.iterations,
                        converged=bool(coupling.converged),
                        cells=coupling.plan.size)

    def step_after(sp, args, kwargs, record):
        if record["l_ot"] is not None or record["l_dyn"] is not None:
            sp.name = "trainer.train_step.global"
        else:
            sp.name = f"trainer.train_step.{record['phase']}"

    def phase1(sp, args=None, kwargs=None):
        # Phase I runs the same ops on other shapes; keep it out of the
        # Phase II medians
        if tracer.inside("trainer.pretrain_vae"):
            sp.name += ".phase1"

    def grad_mode(base):
        # encode/decode under no_grad are the inference path
        def before(sp, args, kwargs):
            sp.name = f"{base}.tape" if getattr(nd, "_GRAD_ENABLED", True) \
                else f"{base}.infer"
            phase1(sp)
        return before

    def backward_before(sp, args, kwargs):
        sp.attrs.update(nodes=len(nd.active_tape().nodes))
        phase1(sp)

    def integrate_before(sp, args, kwargs):
        z0 = args[1] if len(args) > 1 else kwargs.get("z0")
        sp.name = "flowfield.integrate." + (
            "tape" if isinstance(z0, nd.Tensor) else "infer")

    def file_bytes(sp, args, kwargs, *result):
        sp.attrs.update(bytes=os.path.getsize(args[0] if args else kwargs["path"]))

    tracer.hook(otcore, "sinkhorn", "otcore.sinkhorn.other",
                before=sinkhorn_before, after=sinkhorn_after)
    tracer.hook(otcore, "cost_bidirectional", "otcore.cost_bidirectional")
    tracer.hook(otcore, "topk_truncate", "otcore.topk_truncate",
                after=lambda sp, a, kw, top: sp.attrs.update(mass=top.mass))
    tracer.hook(evalkit, "ot_distance", "otcore.ot_distance")
    tracer.hook(nd, "backward", "ndtensor.backward", before=backward_before)
    tracer.hook(nd, "adam_step", "ndtensor.adam_step", before=phase1)
    tracer.hook(nd, "save_checkpoint", "ndtensor.save_checkpoint", after=file_bytes)
    tracer.hook(nd, "load_checkpoint", "ndtensor.load_checkpoint", after=file_bytes)
    tracer.hook(trainer, "train_step", "trainer.train_step", after=step_after)
    tracer.hook(trainer, "fm_loss_topk", "trainer.fm_loss_topk")
    tracer.hook(trainer, "_fused_global_terms", "trainer.global_block")
    for module in (trainer, evalkit):
        tracer.hook(module, "integrate", "flowfield.integrate",
                    before=integrate_before)
    for module in (flowfield, trainer):
        for attr in ("eval_field", "eval_field_np"):
            tracer.hook_count(module, attr, "flowfield.field_evals")
    for fn in ("encode", "decode"):
        tracer.hook(latentvae, fn, f"latentvae.{fn}",
                    before=grad_mode(f"latentvae.{fn}"))
        tracer.hook(latentvae, f"{fn}_np", f"latentvae.{fn}.infer")
    tracer.hook(evalkit, "predict", "evalkit.predict")
    for fn in ("load_csv", "save_csv", "synth_generate"):
        tracer.hook(datakit, fn, f"datakit.{fn}")
    for cmd in ("synth", "evaluate", "predict"):
        tracer.hook(cli, f"cmd_{cmd}", f"cli.{cmd}")


def _mean(values):
    return statistics.fmean(values) if values else None


def per_layer_metrics(tracer, units):
    """Metric name -> value, None where no call was recorded (absent)."""
    summary = tracer.summary()
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def stat(name, key, scale=1.0):
        s = summary.get(name)
        return None if s is None else s[key] * scale

    def attr_values(name, key):
        return [sp.attrs[key] for sp in by_name.get(name, ()) if key in sp.attrs]

    out = {}
    for kind in ("step", "global"):
        name = f"otcore.sinkhorn.{kind}"
        out[f"{name}.calls"] = stat(name, "calls", 1.0 / units)
        out[f"{name}.ms_p50"] = stat(name, "ms_p50")
        out[f"{name}.iterations_mean"] = _mean(attr_values(name, "iterations"))
        conv = attr_values(name, "converged")
        out[f"{name}.unconverged_frac"] = (
            None if not conv else sum(not c for c in conv) / len(conv))
    solves = by_name.get("otcore.sinkhorn.step", []) + \
        by_name.get("otcore.sinkhorn.global", [])
    busy = sum(sp.seconds for sp in solves)
    out["otcore.sinkhorn.iter_cells_per_s"] = None if not solves else \
        sum(sp.attrs["iterations"] * sp.attrs["cells"] for sp in solves) / busy
    step_busy = sum(summary[n]["busy_s"] for n in summary
                    if n.startswith("trainer.train_step."))
    out["otcore.sinkhorn.phase2_share"] = \
        busy / step_busy if solves and step_busy else None
    out["otcore.cost_bidirectional.ms_p50"] = stat("otcore.cost_bidirectional", "ms_p50")
    out["otcore.topk_truncate.retained_mass_mean"] = \
        _mean(attr_values("otcore.topk_truncate", "mass"))
    out["otcore.ot_distance.calls"] = stat("otcore.ot_distance", "calls", 1.0 / units)
    out["otcore.ot_distance.ms_p50"] = stat("otcore.ot_distance", "ms_p50")
    out["ndtensor.backward.ms_p50"] = stat("ndtensor.backward", "ms_p50")
    out["ndtensor.backward.tape_nodes_mean"] = \
        _mean(attr_values("ndtensor.backward", "nodes"))
    out["ndtensor.adam_step.ms_p50"] = stat("ndtensor.adam_step", "ms_p50")
    out["ndtensor.save_checkpoint.ms"] = stat("ndtensor.save_checkpoint", "ms_p50")
    out["ndtensor.load_checkpoint.ms"] = stat("ndtensor.load_checkpoint", "ms_p50")
    sizes = attr_values("ndtensor.save_checkpoint", "bytes") or \
        attr_values("ndtensor.load_checkpoint", "bytes")
    out["ndtensor.checkpoint_bytes"] = statistics.median(sizes) if sizes else None
    out["trainer.pretrain_vae.s"] = stat("trainer.pretrain_vae", "ms_p50", 1e-3)
    out["trainer.pretrain_vae.epochs"] = \
        _mean(attr_values("trainer.pretrain_vae", "epochs"))
    for kind in ("warmup", "fused", "global"):
        name = f"trainer.train_step.{kind}"
        out[f"{name}.ms_p50"] = stat(name, "ms_p50")
    out["trainer.fm_loss_topk.ms_p50"] = stat("trainer.fm_loss_topk", "ms_p50")
    out["trainer.global_block.ms_p50"] = stat("trainer.global_block", "ms_p50")
    for path in ("tape", "infer"):
        name = f"flowfield.integrate.{path}"
        out[f"{name}.ms_p50"] = stat(name, "ms_p50")
    evals = tracer.counters.get("flowfield.field_evals")
    out["flowfield.field_evals"] = evals / units if evals else None
    for fn in ("encode", "decode"):
        for path in ("tape", "infer"):
            name = f"latentvae.{fn}.{path}"
            out[f"{name}.ms_p50"] = stat(name, "ms_p50")
    out["evalkit.predict.ms_p50"] = stat("evalkit.predict", "ms_p50")
    out["evalkit.evaluate.self_s"] = stat("evalkit.evaluate", "self_s", 1.0 / units)
    for fn in ("load_csv", "save_csv", "synth_generate"):
        out[f"datakit.{fn}.ms"] = stat(f"datakit.{fn}", "ms_p50")
    for cmd in ("synth", "evaluate", "predict"):
        out[f"cli.{cmd}.self_ms"] = stat(f"cli.{cmd}", "self_ms_p50")
    # spans recorded inside units; set-up repeats a timed number of times
    in_unit = []
    for sp in tracer.spans:
        in_unit.append(sp.name == "bench.unit" or
                       (sp.parent is not None and in_unit[sp.parent]))
    out["trace.spans"] = sum(in_unit) / units
    return out
