"""Gaussian-encoder VAE between gene space and the latent space the dynamics
live in: reparameterized sampling, deterministic decoding, and the
reconstruction + KL objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndtensor as nd
from .ndtensor import Tensor

LOGSIG_MIN, LOGSIG_MAX = -5.0, 5.0
LEAK = 0.01


@dataclass
class VaeParams:
    """Encoder (two heads for mu and log-sigma) and decoder weights."""

    enc_w1: Tensor
    enc_b1: Tensor
    enc_w_mu: Tensor
    enc_b_mu: Tensor
    enc_w_ls: Tensor
    enc_b_ls: Tensor
    dec_w1: Tensor
    dec_b1: Tensor
    dec_w2: Tensor
    dec_b2: Tensor
    gene_dim: int
    latent_dim: int
    hidden: int

    def parameters(self):
        return [self.enc_w1, self.enc_b1, self.enc_w_mu, self.enc_b_mu,
                self.enc_w_ls, self.enc_b_ls,
                self.dec_w1, self.dec_b1, self.dec_w2, self.dec_b2]

    def named_parameters(self):
        enc = {"w1": self.enc_w1, "b1": self.enc_b1,
               "w_mu": self.enc_w_mu, "b_mu": self.enc_b_mu,
               "w_ls": self.enc_w_ls, "b_ls": self.enc_b_ls}
        dec = {"w1": self.dec_w1, "b1": self.dec_b1,
               "w2": self.dec_w2, "b2": self.dec_b2}
        out = {f"vae.encoder.{k}": v for k, v in enc.items()}
        out.update({f"vae.decoder.{k}": v for k, v in dec.items()})
        return out


def init_vae(gene_dim, latent_dim, hidden, rng):
    """He-scaled hidden layers; small output heads so mu ~ 0, sigma ~ 1 at start."""
    def he(n_in, n_out):
        return rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))

    return VaeParams(
        enc_w1=nd.parameter(he(gene_dim, hidden), "vae.encoder.w1"),
        enc_b1=nd.parameter(np.zeros(hidden), "vae.encoder.b1"),
        enc_w_mu=nd.parameter(0.01 * rng.normal(size=(hidden, latent_dim)), "vae.encoder.w_mu"),
        enc_b_mu=nd.parameter(np.zeros(latent_dim), "vae.encoder.b_mu"),
        enc_w_ls=nd.parameter(0.01 * rng.normal(size=(hidden, latent_dim)), "vae.encoder.w_ls"),
        enc_b_ls=nd.parameter(np.zeros(latent_dim), "vae.encoder.b_ls"),
        dec_w1=nd.parameter(he(latent_dim, hidden), "vae.decoder.w1"),
        dec_b1=nd.parameter(np.zeros(hidden), "vae.decoder.b1"),
        dec_w2=nd.parameter(0.01 * rng.normal(size=(hidden, gene_dim)), "vae.decoder.w2"),
        dec_b2=nd.parameter(np.zeros(gene_dim), "vae.decoder.b2"),
        gene_dim=gene_dim, latent_dim=latent_dim, hidden=hidden,
    )


def encode(params, X, rng=None, sample=True):
    """Map a gene-space batch to (mu, sigma, z) with z = mu + sigma * noise.

    ``sample=False`` returns z = mu exactly (deterministic mode). The noise
    is drawn from ``rng`` so a fixed seed reproduces z bit for bit.
    """
    X = X if isinstance(X, Tensor) else nd.constant(np.asarray(X, dtype=np.float64))
    if not np.isfinite(X.data).all():
        raise ValueError("encode: input contains non-finite values")
    if X.data.ndim != 2 or X.shape[1] != params.gene_dim:
        raise nd.ShapeError("encode", X.shape, (X.shape[0], params.gene_dim))
    h = nd.dense(X, params.enc_w1, params.enc_b1, LEAK)
    mu = nd.dense(h, params.enc_w_mu, params.enc_b_mu)
    logsig = nd.clip(nd.dense(h, params.enc_w_ls, params.enc_b_ls),
                     LOGSIG_MIN, LOGSIG_MAX)
    sigma = nd.exp(logsig)
    if not sample:
        return mu, sigma, mu
    if rng is None:
        raise ValueError("encode: sampling requires an rng")
    noise = nd.constant(rng.standard_normal(size=mu.shape))
    z = nd.add(mu, nd.mul(sigma, noise))
    return mu, sigma, z


def decode(params, Z):
    """Deterministic decoder from latents back to gene space."""
    Z = Z if isinstance(Z, Tensor) else nd.constant(np.asarray(Z, dtype=np.float64))
    if Z.data.ndim != 2 or Z.shape[1] != params.latent_dim:
        raise nd.ShapeError("decode", Z.shape, (Z.shape[0], params.latent_dim))
    h = nd.dense(Z, params.dec_w1, params.dec_b1, LEAK)
    return nd.dense(h, params.dec_w2, params.dec_b2)


def kl_standard_normal(mu, sigma):
    """Mean over the batch of KL(N(mu, sigma^2) || N(0, I)), in closed form."""
    # 0.5 * sum_j (mu^2 + sigma^2 - 1 - log sigma^2)
    sig_sq = nd.square(sigma)
    per_cell = nd.tsum(nd.add_scalar(
        nd.sub(nd.add(nd.square(mu), sig_sq), nd.log(sig_sq)), -1.0), axis=1)
    return nd.scale(nd.tmean(per_cell), 0.5)


def elbo_terms(params, X, lambda_kl, rng=None, sample=True):
    """VAE loss plus the latent sample it was computed from.

    Returns (loss, recon_term, kl_term, z); the trainer reuses z so the loss
    and the coupling see the same reparameterization draw.
    """
    X = X if isinstance(X, Tensor) else nd.constant(np.asarray(X, dtype=np.float64))
    mu, sigma, z = encode(params, X, rng=rng, sample=sample)
    recon = nd.tmean(nd.tsum(nd.square(nd.sub(X, decode(params, z))), axis=1))
    kl = kl_standard_normal(mu, sigma)
    return nd.add(recon, nd.scale(kl, lambda_kl)), recon, kl, z


def vae_loss(params, X, lambda_kl, rng=None, sample=True):
    """Mean squared reconstruction error plus lambda_kl * mean KL to N(0, I)."""
    loss, _, _, _ = elbo_terms(params, X, lambda_kl, rng=rng, sample=sample)
    return loss

