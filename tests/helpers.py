"""Constructed model instances with known exact behavior, used across tests."""

import numpy as np

from snapflow import ndtensor as nd
from snapflow.latentvae import LEAK, VaeParams


def make_identity_vae(dim):
    """VAE whose encoder mean and decoder are exact identities on R^dim.

    Uses the leaky-relu identity lrelu(x) - lrelu(-x) = (1 + leak) * x, so
    encode(x, sample=False) returns x and decode(z) returns z bit-for-bit up
    to rounding. The log-sigma head is pinned at its clamp floor.
    """
    eye = np.eye(dim)
    split = np.concatenate([eye, -eye], axis=1)          # dim -> 2*dim
    merge = np.concatenate([eye, -eye], axis=0) / (1.0 + LEAK)

    return VaeParams(
        enc_w1=nd.parameter(split.copy()),
        enc_b1=nd.parameter(np.zeros(2 * dim)),
        enc_w_mu=nd.parameter(merge.copy()),
        enc_b_mu=nd.parameter(np.zeros(dim)),
        enc_w_ls=nd.parameter(np.zeros((2 * dim, dim))),
        enc_b_ls=nd.parameter(np.full(dim, -20.0)),      # clamps to -5
        dec_w1=nd.parameter(split.copy()),
        dec_b1=nd.parameter(np.zeros(2 * dim)),
        dec_w2=nd.parameter(merge.copy()),
        dec_b2=nd.parameter(np.zeros(dim)),
        gene_dim=dim, latent_dim=dim, hidden=2 * dim,
    )

