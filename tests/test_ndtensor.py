import zlib

import numpy as np
import pytest

from snapflow import ndtensor as nd

from oracles import central_diff_grad, rel_err


def test_matmul_ones():
    W = nd.constant(np.ones((2, 3)))
    x = nd.constant(np.ones((3, 1)))
    y = nd.matmul(W, x)
    assert y.shape == (2, 1)
    assert np.all(y.data == 3.0)


def test_matmul_shape_error_names_op():
    with pytest.raises(nd.ShapeError) as exc:
        nd.matmul(nd.constant(np.ones((2, 3))), nd.constant(np.ones((2, 3))))
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value)


def test_exp_zero_and_grad():
    x = nd.parameter(np.zeros(4))
    y = nd.exp(x)
    assert np.all(y.data == 1.0)
    nd.backward(nd.tsum(y))
    assert np.allclose(x.grad, 1.0)


def test_grad_sum_square():
    x = nd.parameter(np.array([1.0, 2.0, 3.0]))
    nd.backward(nd.tsum(nd.square(x)))
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    W0 = rng.normal(size=(4, 3))
    x = rng.normal(size=(3, 1))
    y = rng.normal(size=(4, 1))

    def loss_at(Wv):
        W = nd.constant(Wv)
        r = nd.sub(nd.matmul(W, nd.constant(x)), nd.constant(y))
        return float(nd.tmean(nd.square(r)).data)

    W = nd.parameter(W0)
    r = nd.sub(nd.matmul(W, nd.constant(x)), nd.constant(y))
    nd.backward(nd.tmean(nd.square(r)))
    fd = central_diff_grad(loss_at, W0, h=1e-5)
    assert rel_err(W.grad, fd) < 1e-4


def test_unused_parameter_gets_zero_grad():
    a = nd.parameter(np.ones(3))
    b = nd.parameter(np.ones(3))
    # b enters the forward pass but the loss only depends on a
    _ = nd.tsum(b)
    nd.backward(nd.tsum(nd.square(a)))
    assert np.all(b.grad == 0.0)


def test_backward_determinism():
    def run():
        rng = np.random.default_rng(123)
        W = nd.parameter(rng.normal(size=(5, 5)))
        x = nd.constant(rng.normal(size=(5, 2)))
        h = nd.tanh(nd.matmul(W, x))
        nd.backward(nd.tsum(nd.square(h)))
        return W.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_non_scalar_loss_rejected():
    x = nd.parameter(np.ones(3))
    y = nd.square(x)
    with pytest.raises(ValueError):
        nd.backward(y)
    nd.reset_tape()


def test_accumulation_is_additive():
    x = nd.parameter(np.array([2.0]))
    # x used twice: loss = x*x + 3x -> grad = 2x + 3 = 7
    loss = nd.tsum(nd.add(nd.mul(x, x), nd.scale(x, 3.0)))
    nd.backward(loss)
    assert np.allclose(x.grad, 7.0)


def test_ops_do_not_mutate_operands():
    vals = np.array([1.0, -2.0, 3.0])
    x = nd.parameter(vals.copy())
    # dense adds its bias in place to the matmul output: t is the bias there
    rows, eye = nd.constant(np.ones((2, 3))), nd.constant(np.eye(3))
    for fn in (nd.exp, nd.tanh, nd.square, lambda t: nd.leaky_relu(t, 0.01),
               lambda t: nd.clip(t, -1, 1), lambda t: nd.scale(t, 2.0),
               lambda t: nd.dense(rows, eye, t), lambda t: nd.dense(rows, eye, t, 0.01)):
        fn(x)
        assert np.array_equal(x.data, vals)
    nd.reset_tape()


@pytest.mark.parametrize("op,make_input", [
    ("exp", lambda rng: rng.normal(size=(3, 4))),
    ("log", lambda rng: rng.uniform(0.5, 3.0, size=(3, 4))),
    ("tanh", lambda rng: rng.normal(size=(3, 4))),
    ("leaky_relu", lambda rng: rng.normal(size=(3, 4)) + 0.05),
    ("square", lambda rng: rng.normal(size=(3, 4))),
    ("mean", lambda rng: rng.normal(size=(3, 4))),
    ("sum_axis1", lambda rng: rng.normal(size=(3, 4))),
    ("matmul", lambda rng: rng.normal(size=(3, 4))),
    ("mul", lambda rng: rng.normal(size=(3, 4))),
    ("add_bias", lambda rng: rng.normal(size=(3, 4))),
    ("concat", lambda rng: rng.normal(size=(3, 4))),
    ("rows", lambda rng: rng.normal(size=(6, 4))),
    ("clip", lambda rng: rng.normal(size=(3, 4)) * 2.0),
    ("dense_x", lambda rng: rng.normal(size=(3, 4))),
    ("dense_W", lambda rng: rng.normal(size=(4, 2))),
    ("dense_b", lambda rng: rng.normal(size=2)),
    ("dense_leaky_x", lambda rng: rng.normal(size=(3, 4))),
    ("dense_leaky_W", lambda rng: rng.normal(size=(4, 2))),
    ("dense_leaky_b", lambda rng: rng.normal(size=2)),
])
def test_per_op_finite_difference_sweep(op, make_input):
    # randomized gradient checks per op, several random points each
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    other = rng.normal(size=(4, 2))
    bias = rng.normal(size=4)
    idx = np.array([0, 2, 2, 5])

    def apply(x):
        t = nd.constant(x) if not isinstance(x, nd.Tensor) else x
        if op == "exp":
            return nd.exp(t)
        if op == "log":
            return nd.log(t)
        if op == "tanh":
            return nd.tanh(t)
        if op == "leaky_relu":
            return nd.leaky_relu(t)
        if op == "square":
            return nd.square(t)
        if op == "mean":
            return nd.tmean(t)
        if op == "sum_axis1":
            return nd.tsum(t, axis=1)
        if op == "matmul":
            return nd.matmul(t, nd.constant(other))
        if op == "mul":
            return nd.mul(t, nd.constant(np.linspace(0.5, 2.0, 12).reshape(3, 4)))
        if op == "add_bias":
            return nd.add(t, nd.constant(bias))
        if op == "concat":
            return nd.concat([t, nd.square(t)], axis=-1)
        if op == "rows":
            return nd.take_rows(t, idx)
        if op == "clip":
            return nd.clip(t, -1.0, 1.0)
        if op.startswith("dense"):
            # the swept tensor takes the role named by the suffix
            args = {"x": nd.constant(np.linspace(-1.0, 1.0, 12).reshape(3, 4)),
                    "W": nd.constant(other), "b": nd.constant(bias[:2])}
            args[op.rsplit("_", 1)[1]] = t
            leak = 0.01 if "leaky" in op else None
            return nd.dense(args["x"], args["W"], args["b"], leak)
        raise AssertionError(op)

    for _ in range(8):
        x0 = make_input(rng)
        p = nd.parameter(x0)
        nd.backward(nd.tsum(nd.square(apply(p))))

        def scalar(v):
            return float(nd.tsum(nd.square(apply(nd.constant(v)))).data)

        coords = rng.choice(x0.size, size=min(5, x0.size), replace=False)
        fd = central_diff_grad(scalar, x0, coords=coords)
        mask = ~np.isnan(fd)
        assert rel_err(p.grad[mask.reshape(x0.shape)], fd[mask]) < 1e-4


@pytest.mark.parametrize("leak", [None, 0.01])
def test_dense_is_bit_identical_to_three_op_layer(leak):
    rng = np.random.default_rng(11)
    x0, W0, b0 = rng.normal(size=(64, 20)), rng.normal(size=(20, 16)), rng.normal(size=16)
    R = nd.constant(rng.normal(size=(64, 16)))

    def run(layer):
        x, W, b = nd.parameter(x0), nd.parameter(W0), nd.parameter(b0)
        out = layer(x, W, b)
        nd.backward(nd.tsum(nd.mul(out, R)))
        return out.data, x.grad, W.grad, b.grad

    def composed(x, W, b):
        pre = nd.add(nd.matmul(x, W), b)
        return pre if leak is None else nd.leaky_relu(pre, leak)

    fused = run(lambda x, W, b: nd.dense(x, W, b, leak))
    for got, want in zip(fused, run(composed)):
        assert np.array_equal(got, want)


def test_dense_records_one_tape_node():
    x = nd.parameter(np.ones((2, 3)))
    y = nd.dense(x, nd.parameter(np.ones((3, 4))), nd.parameter(np.zeros(4)), 0.01)
    assert len(nd.active_tape().nodes) == 1
    assert y.node_id == 0
    nd.reset_tape()


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((2, 3), (4, 5), (5,)),     # x and W do not conform
    ((2, 3), (3, 5), (4,)),     # W and b do not conform
    ((2, 3), (3, 5), (1, 5)),   # b is not a vector
    ((3,), (3, 5), (5,)),       # x is not a batch
])
def test_dense_shape_error(x_shape, w_shape, b_shape):
    with pytest.raises(nd.ShapeError) as exc:
        nd.dense(np.ones(x_shape), np.ones(w_shape), np.ones(b_shape))
    assert "dense" in str(exc.value)


def test_leaky_slope_outside_unit_interval_rejected():
    # the mask-free max(x, alpha*x) is the leaky ReLU only for 0 <= alpha <= 1
    for alpha in (-0.1, 1.5):
        with pytest.raises(ValueError):
            nd.leaky_relu(np.ones(3), alpha)
        with pytest.raises(ValueError):
            nd.dense(np.ones((2, 3)), np.ones((3, 4)), np.zeros(4), alpha)


def test_adam_first_step_hand_checked():
    p = nd.parameter(np.array([1.0]))
    p.grad = np.array([1.0])
    state = nd.AdamState([p], lr=0.1)
    nd.adam_step([p], state)
    # bias-corrected first step moves by lr * g/(|g| + eps') ~ lr
    assert abs(p.data[0] - 0.9) < 1e-6
    assert p.grad is None
    assert state.step_count == 1


def test_adam_zero_grad_decays_moments():
    p = nd.parameter(np.array([1.0]))
    state = nd.AdamState([p], lr=0.1)
    p.grad = np.array([0.0])
    nd.adam_step([p], state)
    assert p.data[0] == 1.0
    assert np.all(state.m[0] == 0.0)


def test_adam_missing_grad_raises():
    p = nd.parameter(np.array([1.0]), name="w")
    state = nd.AdamState([p])
    with pytest.raises(nd.GradMissingError):
        nd.adam_step([p], state)


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=5)
    p = nd.parameter(np.zeros(5))
    state = nd.AdamState([p], lr=0.05)
    losses = []
    for _ in range(1000):
        diff = nd.sub(p, nd.constant(target))
        loss = nd.tsum(nd.square(diff))
        losses.append(float(loss.data))
        nd.backward(loss)
        nd.adam_step([p], state)
    # Adam hunts at per-step scale, so monotonicity is asserted on the
    # windowed trend, and only above the float64 noise floor
    win = np.array(losses).reshape(20, 50).mean(axis=1)
    above_floor = win > 1e-30
    for a, b in zip(win[1:], win[2:]):
        if b > 1e-30:
            assert b < a
    assert sum(above_floor) >= 5
    assert losses[-1] < 1e-12


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    params = {"vae.encoder.w1": rng.normal(size=(4, 7)), "field.forward.b": rng.normal(size=3)}
    path = tmp_path / "ckpt.json"
    nd.save_checkpoint(path, params, meta={"latent_dim": 3})
    loaded, meta = nd.load_checkpoint(path)
    assert meta["latent_dim"] == 3
    for k, v in params.items():
        assert np.array_equal(loaded[k], v)


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99, "params": {}}')
    with pytest.raises(ValueError):
        nd.load_checkpoint(path)


def test_no_grad_blocks_recording():
    p = nd.parameter(np.ones(3))
    with nd.no_grad():
        y = nd.square(p)
    assert not y.requires_grad
    assert y.node_id is None
