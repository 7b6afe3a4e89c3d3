import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snapflow import otcore

from oracles import lp_transport, pairwise_sqdist_loop, sinkhorn_log_loop


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

def test_cost_euclidean_single_point():
    z = np.array([[1.0, 2.0]])
    C = otcore.cost_euclidean(z, z)
    assert C.tag == "euclidean"
    assert C.entries[0, 0] == pytest.approx(0.0)


def test_cost_euclidean_3_4_5():
    C = otcore.cost_euclidean(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert C.entries[0, 0] == pytest.approx(25.0)


def test_cost_euclidean_matches_loop_oracle():
    rng = np.random.default_rng(5)
    X, Y = rng.normal(size=(13, 6)), rng.normal(size=(9, 6))
    C = otcore.cost_euclidean(X, Y).entries
    assert np.all(C >= 0)
    assert np.max(np.abs(C - pairwise_sqdist_loop(X, Y))) < 1e-10


def test_cost_euclidean_dim_mismatch():
    with pytest.raises(otcore.CostError):
        otcore.cost_euclidean(np.ones((2, 3)), np.ones((2, 4)))


def test_euler_one_step_cases():
    Z = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert np.array_equal(otcore.euler_one_step(lambda t, z: np.zeros_like(z), 0.0, Z, 0.3), Z)
    shifted = otcore.euler_one_step(lambda t, z: np.tile([1.0, 0.0], (len(z), 1)), 0.0, Z, 0.5)
    assert np.allclose(shifted - Z, [[0.5, 0.0], [0.5, 0.0]])
    out = otcore.euler_one_step(lambda t, z: z, 0.0, np.array([[1.0]]), 0.1)
    assert out[0, 0] == pytest.approx(1.1)


def test_bidirectional_zero_fields_equals_euclidean():
    rng = np.random.default_rng(11)
    zero = lambda t, z: np.zeros_like(z)
    for _ in range(20):
        Za, Zb = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        Cb = otcore.cost_bidirectional(Za, Zb, zero, zero, 0.0, 1.0).entries
        Ce = otcore.cost_euclidean(Za, Zb).entries
        assert np.max(np.abs(Cb - Ce)) < 1e-12


def test_bidirectional_perfect_linear_flow_zero_diagonal():
    rng = np.random.default_rng(2)
    drift = np.array([1.5, -0.5, 0.25])
    Za = rng.normal(size=(6, 3))
    t_a, t_b = 1.0, 3.0
    Zb = Za + drift * (t_b - t_a)
    fwd = lambda t, z: np.tile(drift, (len(z), 1))
    bwd = lambda t, z: np.tile(drift, (len(z), 1))
    C = otcore.cost_bidirectional(Za, Zb, fwd, bwd, t_a, t_b).entries
    assert np.max(np.abs(np.diag(C))) < 1e-20


def test_bidirectional_nonnegative_and_time_order():
    rng = np.random.default_rng(3)
    f = lambda t, z: np.tanh(z)
    Za, Zb = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    C = otcore.cost_bidirectional(Za, Zb, f, f, 0.0, 0.5).entries
    assert np.all(C >= 0)
    with pytest.raises(otcore.CostError):
        otcore.cost_bidirectional(Za, Zb, f, f, 1.0, 1.0)


# ---------------------------------------------------------------------------
# sinkhorn
# ---------------------------------------------------------------------------

def test_sinkhorn_zero_cost_gives_uniform_plan():
    out = otcore.sinkhorn(np.zeros((2, 2)), epsilon=0.05)
    assert np.max(np.abs(out.plan - 0.25)) < 1e-9
    assert out.converged


def test_sinkhorn_small_epsilon_recovers_permutation():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = otcore.sinkhorn(C, epsilon=0.01, max_iters=2000, tol=1e-10)
    assert np.max(np.abs(out.plan - np.diag([0.5, 0.5]))) < 1e-3


def test_sinkhorn_cost_approaches_lp_as_epsilon_shrinks():
    rng = np.random.default_rng(17)
    C = rng.uniform(0.0, 1.0, size=(8, 8))
    a = np.full(8, 1 / 8)
    opt = lp_transport(C, a, a)
    gaps = []
    for eps in (0.1, 0.01, 0.001):
        out = otcore.sinkhorn(C, epsilon=eps, max_iters=200000, tol=1e-10)
        cost = otcore.transport_cost(out.plan, C)
        assert cost >= opt - 1e-8
        gaps.append(cost - opt)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_sinkhorn_rejects_bad_inputs():
    with pytest.raises(otcore.CostError):
        otcore.sinkhorn(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        otcore.sinkhorn(np.zeros((2, 2)), epsilon=0.0)
    with pytest.raises(ValueError):
        otcore.sinkhorn(np.zeros((2, 2)), row_marginal=np.array([0.9, 0.3]))


def test_sinkhorn_nonconvergence_flag():
    rng = np.random.default_rng(1)
    C = rng.uniform(size=(16, 16))
    out = otcore.sinkhorn(C, epsilon=1e-4, max_iters=3, tol=1e-12)
    assert not out.converged
    assert out.iterations == 3


def test_sinkhorn_unconverged_plan_is_rounded_onto_marginals():
    rng = np.random.default_rng(1)
    C = rng.uniform(size=(16, 16))
    out = otcore.sinkhorn(C, epsilon=1e-4, max_iters=3, tol=1e-12)
    assert np.max(np.abs(out.plan.sum(axis=1) - out.row_marginal)) < 1e-12
    assert np.max(np.abs(out.plan.sum(axis=0) - out.col_marginal)) < 1e-12
    assert (out.plan >= 0).all()
    assert not out.converged
    assert out.iterations == 3


def test_sinkhorn_matches_log_domain_loop_where_kernel_underflows():
    # row and column offsets up to 200 put whole rows of exp(-C/eps) below
    # the smallest double, so only a stabilized solver gets these plans
    eps, B = 0.05, 24
    a = np.full(B, 1.0 / B)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        C = (rng.uniform(0, 2, (B, B)) + rng.uniform(0, 150, (B, 1))
             + rng.uniform(0, 50, (1, B)))
        assert (np.exp(-C / eps).sum(axis=1) == 0).sum() >= B // 2
        ref, _, ref_ok = sinkhorn_log_loop(C, a, a, eps, 3000, 1e-10)
        out = otcore.sinkhorn(C, epsilon=eps, max_iters=3000, tol=1e-10)
        assert out.converged == ref_ok
        assert np.abs(out.plan - ref).sum() < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 64),
    m=st.integers(2, 64),
    seed=st.integers(0, 10_000),
    eps=st.floats(0.1, 1.0),
)
def test_sinkhorn_marginals_property(n, m, seed, eps):
    rng = np.random.default_rng(seed)
    C = rng.uniform(0, 3, size=(n, m))
    out = otcore.sinkhorn(C, epsilon=eps, max_iters=20000, tol=1e-7)
    assert np.max(np.abs(out.plan.sum(axis=1) - out.row_marginal)) < 1e-6
    assert np.max(np.abs(out.plan.sum(axis=0) - out.col_marginal)) < 1e-6
    assert np.all(out.plan >= 0)
    assert out.plan.sum() == pytest.approx(1.0, abs=1e-6)


def test_sinkhorn_cost_within_entropic_slack_of_lp():
    rng = np.random.default_rng(23)
    for _ in range(25):
        B = int(rng.integers(2, 9))
        C = rng.uniform(0, 1, size=(B, B))
        eps = float(rng.uniform(0.02, 0.2))
        u = np.full(B, 1.0 / B)
        out = otcore.sinkhorn(C, epsilon=eps, max_iters=50000, tol=1e-10)
        cost = otcore.transport_cost(out.plan, C)
        opt = lp_transport(C, u, u)
        assert cost <= opt + eps * np.log(B * B) + 1e-6
        assert cost >= opt - 1e-8


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------

def test_topk_full_k_reproduces_plan():
    rng = np.random.default_rng(4)
    out = otcore.sinkhorn(rng.uniform(size=(6, 6)), epsilon=0.2)
    top = otcore.topk_truncate(out, K=6)
    assert abs(top.mass - 1.0) < 1e-9
    rebuilt = np.zeros_like(out.plan)
    for i in range(6):
        rebuilt[i, top.indices[i]] = top.weights[i]
    assert np.array_equal(rebuilt, out.plan)


def test_topk_diagonal_plan_k1():
    plan = np.diag(np.full(5, 0.2))
    top = otcore.topk_truncate(plan, K=1)
    assert np.array_equal(top.indices.ravel(), np.arange(5))
    assert top.mass == pytest.approx(1.0)


def test_topk_keeps_largest_and_breaks_ties_low_index():
    plan = np.array([[0.5, 0.3, 0.2]]) / 1.0
    top = otcore.topk_truncate(plan, K=2)
    assert set(top.indices[0]) == {0, 1}
    tied = np.array([[0.25, 0.5, 0.25]])
    top2 = otcore.topk_truncate(tied, K=2)
    assert set(top2.indices[0]) == {0, 1}


def test_topk_mass_monotone_in_k():
    rng = np.random.default_rng(9)
    out = otcore.sinkhorn(rng.uniform(size=(12, 12)), epsilon=0.1)
    masses = [otcore.topk_truncate(out, K).mass for K in range(12, 0, -1)]
    assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))


def test_topk_k_out_of_range():
    with pytest.raises(ValueError):
        otcore.topk_truncate(np.full((3, 3), 1 / 9), K=0)
    with pytest.raises(ValueError):
        otcore.topk_truncate(np.full((3, 3), 1 / 9), K=4)


# ---------------------------------------------------------------------------
# evaluation distance
# ---------------------------------------------------------------------------

def test_ot_distance_identical_sets_zero():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 5))
    assert abs(otcore.ot_distance(X, X)) < 1e-6


def test_ot_distance_singletons():
    d = otcore.ot_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert d == pytest.approx(25.0, abs=0.05)


def test_ot_distance_shift_monotone():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(50, 2))
    Y = rng.normal(size=(50, 2))
    shifted = otcore.ot_distance(X, Y + np.array([1.0, 0.0]))
    near = otcore.ot_distance(X, Y)
    assert shifted > near


def test_ot_distance_symmetric_nonnegative():
    rng = np.random.default_rng(13)
    clouds = [(rng.normal(size=(20, 3)), rng.normal(size=(25, 3)) + 0.5)
              for _ in range(5)]
    # evaluation scale: 300 cells x 10 genes, spread about 0.1 around
    # gene means of order 1
    mu = 2.0 * rng.normal(size=10)
    clouds.append((mu + 0.07 * rng.normal(size=(300, 10)),
                   0.95 * mu + 0.15 * rng.normal(size=(300, 10))))
    for X, Y in clouds:
        d_xy = otcore.ot_distance(X, Y)
        d_yx = otcore.ot_distance(Y, X)
        assert d_xy >= 0
        assert d_xy == pytest.approx(d_yx, rel=1e-6, abs=1e-9)


def test_ot_distance_empty_errors():
    with pytest.raises(ValueError):
        otcore.ot_distance(np.zeros((0, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# differentiable transport cost
# ---------------------------------------------------------------------------

def test_transport_cost_sq_matches_plain_value():
    from snapflow import ndtensor as nd

    rng = np.random.default_rng(21)
    X = rng.normal(size=(6, 4))
    Y = rng.normal(size=(5, 4))
    plan = rng.uniform(size=(6, 5))
    plan /= plan.sum()
    direct = otcore.transport_cost(plan, otcore.pairwise_sqdist(X, Y))
    assert otcore.transport_cost_sq(plan, X, Y) == pytest.approx(direct)
    Yt = nd.parameter(Y)
    val = otcore.transport_cost_sq(plan, X, Yt)
    assert float(val.data) == pytest.approx(direct)
    nd.backward(val)
    # gradient w.r.t. y_j: sum_i P_ij * 2(y_j - x_i)
    expected = 2 * (plan.sum(axis=0)[:, None] * Y - plan.T @ X)
    assert np.max(np.abs(Yt.grad - expected)) < 1e-10


def test_transport_cost_sq_grad_both_sides():
    from snapflow import ndtensor as nd

    rng = np.random.default_rng(22)
    X = nd.parameter(rng.normal(size=(4, 3)))
    Y = nd.parameter(rng.normal(size=(4, 3)))
    plan = np.full((4, 4), 1 / 16)
    val = otcore.transport_cost_sq(plan, X, Y)
    nd.backward(val)
    gx = 2 * (plan.sum(axis=1)[:, None] * X.data - plan @ Y.data)
    gy = 2 * (plan.sum(axis=0)[:, None] * Y.data - plan.T @ X.data)
    assert np.max(np.abs(X.grad - gx)) < 1e-12
    assert np.max(np.abs(Y.grad - gy)) < 1e-12
