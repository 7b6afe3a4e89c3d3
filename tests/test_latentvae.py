import numpy as np
import pytest

from snapflow import latentvae, ndtensor as nd

from helpers import make_identity_vae
from oracles import central_diff_grad, rel_err


@pytest.fixture
def small_vae():
    return latentvae.init_vae(gene_dim=6, latent_dim=3, hidden=16,
                              rng=np.random.default_rng(0))


def test_deterministic_mode_returns_mu(small_vae):
    X = np.random.default_rng(1).normal(size=(5, 6))
    mu, sigma, z = latentvae.encode(small_vae, X, sample=False)
    assert np.array_equal(z.data, mu.data)
    assert np.all(sigma.data > 0)


def test_encode_seed_determinism(small_vae):
    X = np.random.default_rng(1).normal(size=(5, 6))
    _, _, z1 = latentvae.encode(small_vae, X, rng=np.random.default_rng(42))
    _, _, z2 = latentvae.encode(small_vae, X, rng=np.random.default_rng(42))
    assert np.array_equal(z1.data, z2.data)


def test_reparam_noise_is_centered(small_vae):
    # 10k samples of z - mu at a fixed input; CLT bound per coordinate
    x = np.random.default_rng(2).normal(size=6)
    X = np.tile(x, (10000, 1))
    mu, sigma, z = latentvae.encode(small_vae, X, rng=np.random.default_rng(7))
    resid = (z.data - mu.data).mean(axis=0)
    bound = 3.0 / np.sqrt(10000) * sigma.data[0]
    assert np.all(np.abs(resid) <= bound)


def test_decode_shapes_and_zero_weights(small_vae):
    Z = np.random.default_rng(3).normal(size=(4, 3))
    out = latentvae.decode(small_vae, Z)
    assert out.shape == (4, 6)
    small_vae.dec_w2.data[:] = 0.0
    small_vae.dec_b2.data[:] = 0.0
    assert np.all(latentvae.decode(small_vae, Z).data == 0.0)


def test_encode_rejects_bad_input(small_vae):
    with pytest.raises(ValueError):
        latentvae.encode(small_vae, np.array([[np.nan] * 6]), sample=False)
    with pytest.raises(nd.ShapeError):
        latentvae.encode(small_vae, np.ones((2, 5)), sample=False)
    with pytest.raises(nd.ShapeError):
        latentvae.decode(small_vae, np.ones((2, 7)))


def test_kl_standard_normal_cases():
    mu = nd.constant(np.zeros((3, 2)))
    sigma = nd.constant(np.ones((3, 2)))
    assert float(latentvae.kl_standard_normal(mu, sigma).data) == pytest.approx(0.0)
    mu = nd.constant(np.array([[1.0, 0.0]]))
    sigma = nd.constant(np.array([[1.0, 1.0]]))
    assert float(latentvae.kl_standard_normal(mu, sigma).data) == pytest.approx(0.5)


def test_perfect_reconstruction_zero_loss():
    vae = make_identity_vae(4)
    X = np.random.default_rng(5).normal(size=(8, 4))
    loss = latentvae.vae_loss(vae, X, lambda_kl=0.0, sample=False)
    assert float(loss.data) < 1e-25
    nd.reset_tape()


def test_loss_nonnegative_random_sweep():
    rng = np.random.default_rng(8)
    for _ in range(10):
        vae = latentvae.init_vae(5, 2, 8, rng)
        X = rng.normal(size=(6, 5))
        loss, recon, kl, _ = latentvae.elbo_terms(vae, X, lambda_kl=0.5, rng=rng)
        assert float(loss.data) >= 0.0
        assert float(kl.data) >= 0.0
        nd.reset_tape()


def test_vae_loss_gradients_match_finite_differences(small_vae):
    X = np.random.default_rng(9).normal(size=(4, 6))
    noise_rng = np.random.default_rng(11)
    noise = noise_rng.standard_normal(size=(4, 3))

    # fix the reparameterization draw so the loss is a deterministic function
    class FixedRng:
        def standard_normal(self, size):
            return noise

    loss = latentvae.vae_loss(small_vae, X, lambda_kl=0.1, rng=FixedRng())
    nd.backward(loss)
    for pname in ("enc_w1", "enc_w_mu", "enc_w_ls", "dec_w1", "dec_w2"):
        p = getattr(small_vae, pname)
        grad = p.grad.copy()
        base = p.data.copy()

        def f(v, p=p, base=base):
            p.data = v
            with nd.no_grad():
                out = float(latentvae.vae_loss(small_vae, X, 0.1, rng=FixedRng()).data)
            p.data = base
            return out

        coords = np.random.default_rng(12).choice(base.size, size=4, replace=False)
        fd = central_diff_grad(f, base, coords=coords)
        mask = ~np.isnan(fd)
        assert rel_err(grad[mask], fd[mask]) < 1e-4, pname


def test_training_improves_reconstruction_10x():
    rng = np.random.default_rng(13)
    centers = np.array([[2.0] * 5, [-2.0] * 5])
    X = centers[rng.integers(0, 2, size=200)] + 0.2 * rng.normal(size=(200, 5))
    vae = latentvae.init_vae(5, 2, 16, rng)
    params = vae.parameters()

    def recon_mse():
        with nd.no_grad():
            _, _, z = latentvae.encode(vae, X, sample=False)
            xhat = latentvae.decode(vae, z)
        return float(np.mean(np.sum((X - xhat.data) ** 2, axis=1)))

    before = recon_mse()
    state = nd.AdamState(params, lr=1e-2)
    for _ in range(400):
        loss = latentvae.vae_loss(vae, X, lambda_kl=1e-3, rng=rng)
        nd.backward(loss)
        nd.adam_step(params, state)
    after = recon_mse()
    assert after * 10 <= before


def test_no_grad_paths_match_tape_paths(small_vae):
    X = np.random.default_rng(14).normal(size=(5, 6))

    def run():
        enc = latentvae.encode(small_vae, X, rng=np.random.default_rng(15))
        return [t.data for t in enc] + [latentvae.decode(small_vae, enc[2].data).data]

    nd.reset_tape()
    taped = run()
    assert nd.active_tape().nodes
    nd.reset_tape()
    with nd.no_grad():
        inferred = run()
    assert not nd.active_tape().nodes
    for a, b in zip(taped, inferred):
        assert np.array_equal(a, b)
