"""Bundle of trained components (VAE + both velocity fields) with checkpoint IO."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndtensor as nd
from .flowfield import TimeEmbedding, VelocityFieldParams, init_field
from .latentvae import VaeParams, init_vae


@dataclass
class ModelBundle:
    """Everything needed to generate populations at query times."""

    vae: VaeParams
    forward_field: VelocityFieldParams
    backward_field: VelocityFieldParams
    embedding: TimeEmbedding
    gene_names: list | None = None

    @property
    def latent_dim(self):
        return self.vae.latent_dim

    @property
    def gene_dim(self):
        return self.vae.gene_dim

    def vae_parameters(self):
        return self.vae.parameters()

    def field_parameters(self):
        return self.forward_field.parameters() + self.backward_field.parameters()

    def all_parameters(self):
        return self.vae_parameters() + self.field_parameters()

    def named_parameters(self):
        out = {}
        out.update(self.vae.named_parameters())
        out.update(self.forward_field.named_parameters())
        out.update(self.backward_field.named_parameters())
        return out

    def save(self, path, extra_meta=None):
        meta = {
            "gene_dim": self.gene_dim,
            "latent_dim": self.latent_dim,
            "vae_hidden": self.vae.hidden,
            "field_hidden": self.forward_field.hidden,
            "time_dim": self.embedding.dim,
            "t_min": self.embedding.t_min,
            "t_max": self.embedding.t_max,
            "gene_names": self.gene_names,
        }
        if extra_meta:
            meta.update(extra_meta)
        nd.save_checkpoint(path, self.named_parameters(), meta=meta)

    @classmethod
    def load(cls, path):
        arrays, meta = nd.load_checkpoint(path)
        bundle = build_model(
            gene_dim=int(meta["gene_dim"]),
            latent_dim=int(meta["latent_dim"]),
            vae_hidden=int(meta["vae_hidden"]),
            field_hidden=int(meta["field_hidden"]),
            time_dim=int(meta["time_dim"]),
            t_min=float(meta["t_min"]),
            t_max=float(meta["t_max"]),
            seed=0,
        )
        bundle.gene_names = meta.get("gene_names")
        named = bundle.named_parameters()
        missing = set(named) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {sorted(missing)}")
        unexpected = set(arrays) - set(named)
        if unexpected:
            raise ValueError(f"checkpoint has unexpected parameters: {sorted(unexpected)}")
        for name, tensor in named.items():
            arr = arrays[name]
            if arr.shape != tensor.data.shape:
                raise ValueError(
                    f"checkpoint shape mismatch for {name}: "
                    f"{arr.shape} vs {tensor.data.shape}")
            tensor.data = arr
        return bundle, meta


def build_model(gene_dim, latent_dim=50, vae_hidden=256, field_hidden=256,
                time_dim=64, t_min=0.0, t_max=1.0, seed=0):
    """Fresh model with seeded initialization and a shared time embedding."""
    rng = np.random.default_rng(seed)
    embedding = TimeEmbedding(dim=time_dim, t_min=t_min, t_max=t_max)
    vae = init_vae(gene_dim, latent_dim, vae_hidden, rng)
    fwd = init_field("forward", latent_dim, field_hidden, embedding, rng)
    bwd = init_field("backward", latent_dim, field_hidden, embedding, rng)
    return ModelBundle(vae=vae, forward_field=fwd, backward_field=bwd,
                       embedding=embedding)
