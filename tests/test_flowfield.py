import numpy as np
import pytest

from snapflow import flowfield, ndtensor as nd
from snapflow.flowfield import TimeEmbedding, init_field, eval_field, integrate

from oracles import central_diff_grad, rel_err


@pytest.fixture
def emb():
    return TimeEmbedding(dim=16, t_min=0.0, t_max=7.0)


@pytest.fixture
def fwd(emb):
    f = init_field("forward", latent_dim=3, hidden=12, embedding=emb,
                   rng=np.random.default_rng(0))
    # randomize the output layers so the field is nontrivial
    rng = np.random.default_rng(1)
    f.w3.data[:] = 0.3 * rng.normal(size=f.w3.shape)
    f.w_skip.data[:] = 0.1 * rng.normal(size=f.w_skip.shape)
    return f


def test_embedding_at_tmin(emb):
    e = emb(0.0)
    assert e.shape == (16,)
    assert np.allclose(e[:8], 0.0)
    assert np.allclose(e[8:], 1.0)


def test_embedding_bounded(emb):
    for t in np.linspace(-3, 20, 50):
        assert np.all(np.abs(emb(t)) <= 1.0 + 1e-12)


def test_embedding_separates_training_times(emb):
    times = np.arange(8.0)
    E = emb(times)
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.max(np.abs(E[i] - E[j])) > 1e-6


def test_embedding_validation():
    with pytest.raises(ValueError):
        TimeEmbedding(dim=7)
    with pytest.raises(ValueError):
        TimeEmbedding(dim=8, t_min=1.0, t_max=1.0)


def test_field_zero_at_init(emb):
    f = init_field("forward", 3, 12, emb, np.random.default_rng(5))
    Z = np.random.default_rng(6).normal(size=(4, 3))
    with nd.no_grad():
        assert np.all(eval_field(f, 0.5, Z).data == 0.0)


def test_field_permutation_equivariance(fwd):
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(6, 3))
    perm = rng.permutation(6)
    with nd.no_grad():
        V = eval_field(fwd, 1.3, Z).data
        Vp = eval_field(fwd, 1.3, Z[perm]).data
    assert np.allclose(V[perm], Vp)


def test_field_no_grad_path_matches_tape_path(fwd):
    Z = np.random.default_rng(8).normal(size=(5, 3))
    times = np.linspace(0.0, 7.0, 5)
    nd.reset_tape()
    taped = [eval_field(fwd, 2.0, Z).data, eval_field(fwd, times, Z).data]
    assert nd.active_tape().nodes
    nd.reset_tape()
    with nd.no_grad():
        inferred = [eval_field(fwd, 2.0, Z).data, eval_field(fwd, times, Z).data]
    assert not nd.active_tape().nodes
    for a, b in zip(taped, inferred):
        assert np.array_equal(a, b)


def test_field_gradient_wrt_z(fwd):
    Z0 = np.random.default_rng(9).normal(size=(3, 3))
    Zt = nd.parameter(Z0)
    nd.backward(nd.tsum(nd.square(eval_field(fwd, 0.7, Zt))))

    def f(v):
        with nd.no_grad():
            return float(nd.tsum(nd.square(eval_field(fwd, 0.7, nd.constant(v)))).data)

    fd = central_diff_grad(f, Z0)
    assert rel_err(Zt.grad, fd) < 1e-4


def test_field_shape_check(fwd):
    with pytest.raises(nd.ShapeError):
        eval_field(fwd, 0.0, np.ones((2, 4)))


def test_integrate_zero_field():
    z0 = np.array([[1.0, -2.0]])
    roll = integrate(lambda t, z: np.zeros_like(z), z0, 0.0, [0.5, 1.0, 2.0])
    for s in roll.states:
        assert np.array_equal(s, z0)


def test_integrate_exponential_oracle():
    roll = integrate(lambda t, z: z, np.array([[1.0]]), 0.0, [1.0],
                     method="rk4", step=0.1)
    assert abs(roll.states[0][0, 0] - np.e) < 1e-5


def test_integrate_rotation_oracle():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    z0 = np.array([[1.0, 0.5]])
    roll = integrate(lambda t, z: z @ A.T, z0, 0.0, [np.pi], method="rk4", step=0.01)
    assert np.max(np.abs(roll.states[0] + z0)) < 1e-4


def test_rk4_order_four_convergence():
    # global error on v = z at t=1 shrinks ~16x when the step halves
    errs = []
    for h in (0.2, 0.1, 0.05):
        roll = integrate(lambda t, z: z, np.array([[1.0]]), 0.0, [1.0],
                         method="rk4", step=h)
        errs.append(abs(roll.states[0][0, 0] - np.e))
    for e_big, e_small in zip(errs, errs[1:]):
        assert 12.0 <= e_big / e_small <= 20.0


def test_euler_first_order():
    errs = []
    for h in (0.1, 0.05):
        roll = integrate(lambda t, z: z, np.array([[1.0]]), 0.0, [1.0],
                         method="euler", step=h)
        errs.append(abs(roll.states[0][0, 0] - np.e))
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_integrate_single_query_at_t0():
    z0 = np.array([[0.3, 0.4]])
    roll = integrate(lambda t, z: z * 100.0, z0, 2.0, [2.0])
    assert roll.states[0] is z0 or np.array_equal(roll.states[0], z0)


def test_forward_then_reverse_returns_to_start():
    A = np.array([[0.1, -0.8], [0.8, 0.1]])
    fwd_field = lambda t, z: z @ A.T
    bwd_field = lambda s, z: -(z @ A.T)   # negated drift, ascending pseudo-time
    z0 = np.random.default_rng(10).normal(size=(4, 2))
    z1 = integrate(fwd_field, z0, 0.0, [1.0], step=0.01).states[0]
    back = integrate(bwd_field, z1, 0.0, [1.0], step=0.01).states[0]
    assert np.max(np.abs(back - z0)) < 1e-6


def test_integrate_descending_times_callable():
    roll = integrate(lambda t, z: z, np.array([[np.e]]), 1.0, [0.0], step=0.05)
    assert abs(roll.states[0][0, 0] - 1.0) < 1e-5


def test_integrate_ordering_validation(fwd, emb):
    z0 = np.ones((1, 3))
    with pytest.raises(ValueError):
        integrate(lambda t, z: z, z0, 0.0, [1.0, 0.5, 2.0])
    with pytest.raises(ValueError):
        integrate(fwd, z0, 0.0, [-1.0])
    bwd = init_field("backward", 3, 8, emb, np.random.default_rng(11))
    with pytest.raises(ValueError):
        integrate(bwd, z0, 0.0, [1.0])
    roll = integrate(bwd, z0, 1.0, [0.5, 0.0])
    assert len(roll.states) == 2
    # the method is checked even when no step is taken
    with pytest.raises(ValueError):
        integrate(lambda t, z: z, z0, 0.0, [0.0], method="rk5")


def test_integrate_blowup_reports_time():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(flowfield.IntegrationError) as exc:
            integrate(lambda t, z: z * z * 1e4, np.array([[10.0]]), 0.0, [5.0], step=0.1)
    assert exc.value.time > 0.0


def block_rows(field):
    width = max(field.hidden, field.latent_dim + field.embedding.dim)
    return flowfield._INFER_BLOCK_BYTES // (8 * width)


def one_call(field):
    return lambda t, z: eval_field(field, t, z).data


def test_integrate_array_state_in_row_blocks(fwd, monkeypatch):
    rows = block_rows(fwd)
    z0 = np.random.default_rng(2).normal(size=(2 * rows + 7, fwd.latent_dim))
    with nd.no_grad():
        whole = integrate(one_call(fwd), z0, 0.0, [0.35, 1.0], step=0.1)
    sizes = []

    def counted(params, t, Z):
        sizes.append(len(Z))
        return eval_field(params, t, Z)
    monkeypatch.setattr(flowfield, "eval_field", counted)
    nd.reset_tape()
    blocked = integrate(fwd, z0, 0.0, [0.35, 1.0], step=0.1)
    assert len(nd.active_tape().nodes) == 0
    assert sizes[:3] == [rows, rows, 7]
    assert len(sizes) == 3 * 4 * 11  # 3 blocks x 4 stages x 11 steps
    for a, b in zip(blocked.states, whole.states):
        assert np.array_equal(a, b)


def test_blocked_blowup_in_last_block_reports_same_time(fwd):
    rows = block_rows(fwd)
    fwd.w_skip.data[:] = 100.0 * np.eye(fwd.latent_dim)
    z0 = np.random.default_rng(3).normal(size=(2 * rows + 7, fwd.latent_dim))
    z0[-5:] = 1e250
    times = []
    with np.errstate(over="ignore", invalid="ignore"):
        for field in (fwd, one_call(fwd)):
            with nd.no_grad(), pytest.raises(flowfield.IntegrationError) as exc:
                integrate(field, z0, 0.0, [5.0], step=0.1)
            times.append(exc.value.time)
    assert times[0] == times[1] > 0.0


def test_integrate_differentiable_rollout():
    # d/dz0 of z(T) under v = z is e^T
    z0 = nd.parameter(np.array([[1.0]]))
    roll = integrate(lambda t, z: z, z0, 0.0, [1.0], method="rk4", step=0.1)
    nd.backward(nd.tsum(roll.states[0]))
    assert abs(z0.grad[0, 0] - np.e) < 1e-4


def test_rollout_state_lookup():
    roll = integrate(lambda t, z: np.zeros_like(z), np.ones((1, 2)), 0.0, [0.0, 1.0])
    assert np.array_equal(roll.state_at(1.0), np.ones((1, 2)))
    with pytest.raises(KeyError):
        roll.state_at(0.37)
