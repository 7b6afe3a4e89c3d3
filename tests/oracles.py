"""Independent reference computations used as test oracles.

Everything here is deliberately implemented without the package's own
machinery: finite differences instead of the tape, scipy's LP solver instead
of Sinkhorn, and plain double loops instead of vectorized kernels. The one
exception is the per-op rollout, which composes the tape's elementary ops
as the bit-for-bit reference of the fused field and step nodes.
"""

import math

import numpy as np
from scipy.optimize import linprog


def central_diff_grad(f, x, h=1e-5, coords=None):
    """Central finite-difference gradient of scalar f at flat array x.

    If ``coords`` is given, only those flat indices are probed (the rest of
    the returned array is nan).
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.full(x.size, np.nan)
    idx = range(x.size) if coords is None else coords
    flat = x.ravel()
    for i in idx:
        bump = np.zeros_like(flat)
        bump[i] = h
        g[i] = (f((flat + bump).reshape(x.shape)) - f((flat - bump).reshape(x.shape))) / (2 * h)
    return g.reshape(x.shape)


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


def lp_transport(cost, a, b):
    """Exact optimal transport cost by linear programming (HiGHS)."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    # rows: n row-sum constraints + m column-sum constraints
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, f"LP failed: {res.message}"
    return res.fun


def sinkhorn_log_loop(C, a, b, eps, max_iters, tol):
    """Plain log-domain Sinkhorn at a fixed eps from zero potentials.

    Columns, then rows, are updated by explicit log-sum-exp loops; the loop
    stops once every column sum of P_ij = exp((f_i + g_j - C_ij)/eps) is
    within tol of b. Returns (plan, iterations, converged).
    """
    C = np.asarray(C, dtype=np.float64)
    n, m = C.shape
    f = [0.0] * n
    g = [0.0] * m

    def logsumexp(vals):
        mx = max(vals)
        return mx + math.log(sum(math.exp(x - mx) for x in vals))

    for it in range(1, max_iters + 1):
        for j in range(m):
            g[j] = eps * (math.log(b[j]) - logsumexp([(f[i] - C[i, j]) / eps for i in range(n)]))
        for i in range(n):
            f[i] = eps * (math.log(a[i]) - logsumexp([(g[j] - C[i, j]) / eps for j in range(m)]))
        P = np.array([[math.exp((f[i] + g[j] - C[i, j]) / eps) for j in range(m)]
                      for i in range(n)])
        if max(abs(P[:, j].sum() - b[j]) for j in range(m)) < tol:
            return P, it, True
    return P, max_iters, False


def pairwise_sqdist_loop(X, Y):
    n, m = len(X), len(Y)
    D = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            d = X[i] - Y[j]
            D[i, j] = float(np.dot(d, d))
    return D


def avg_pairwise_l2_loop(X, Y):
    total = 0.0
    for i in range(len(X)):
        for j in range(len(Y)):
            total += float(np.sqrt(np.sum((X[i] - Y[j]) ** 2)))
    return total / (len(X) * len(Y))


def dip_statistic(x):
    """Dip-style bimodality statistic.

    Uniform distance from the empirical CDF to the best fit that is convex
    to the left of a mode and concave to the right, minimized over the mode
    position. Unimodal samples give small values; separated modes leave a
    shoulder that no split can flatten. Thresholds must be calibrated by
    Monte Carlo with this same function.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    if n < 4:
        return 0.0
    F = np.arange(1, n + 1) / n

    def max_gap_convex(lo, hi):
        # max(F - greatest convex minorant) on points lo..hi inclusive
        hull = [lo]
        gap = 0.0
        for i in range(lo + 1, hi + 1):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                cross = (x[b] - x[a]) * (F[i] - F[a]) - (F[b] - F[a]) * (x[i] - x[a])
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(i)
        # evaluate hull interpolant at every point
        for k in range(len(hull) - 1):
            a, b = hull[k], hull[k + 1]
            if x[b] == x[a]:
                continue
            seg = slice(a, b + 1)
            interp = F[a] + (F[b] - F[a]) * (x[seg] - x[a]) / (x[b] - x[a])
            gap = max(gap, float(np.max(F[seg] - interp)))
        return gap

    def max_gap_concave(lo, hi):
        hull = [lo]
        gap = 0.0
        for i in range(lo + 1, hi + 1):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                cross = (x[b] - x[a]) * (F[i] - F[a]) - (F[b] - F[a]) * (x[i] - x[a])
                if cross >= 0:
                    hull.pop()
                else:
                    break
            hull.append(i)
        for k in range(len(hull) - 1):
            a, b = hull[k], hull[k + 1]
            if x[b] == x[a]:
                continue
            seg = slice(a, b + 1)
            interp = F[a] + (F[b] - F[a]) * (x[seg] - x[a]) / (x[b] - x[a])
            gap = max(gap, float(np.max(interp - F[seg])))
        return gap

    # candidate modes on a decimated grid; exact enough for calibration use
    candidates = np.unique(np.linspace(0, n - 1, min(n, 60)).astype(int))
    best = np.inf
    for m in candidates:
        left = max_gap_convex(0, m) if m > 0 else 0.0
        right = max_gap_concave(m, n - 1) if m < n - 1 else 0.0
        best = min(best, max(left, right))
    return 0.5 * best


def dip_null_threshold(sample_fn, n, trials=199, quantile=0.99, seed=0):
    """Monte-Carlo dip threshold under the unimodal null given by sample_fn(rng, n)."""
    rng = np.random.default_rng(seed)
    dips = np.array([dip_statistic(sample_fn(rng, n)) for _ in range(trials)])
    return float(np.quantile(dips, quantile))


def per_op_field(field, t, Z):
    """A field evaluation as six tape nodes: concat, three dense layers, the
    skip matmul and an add."""
    from snapflow import ndtensor as nd
    from snapflow.latentvae import LEAK

    emb = field.embedding(t)
    if emb.ndim == 1:
        emb = np.tile(emb, (Z.shape[0], 1))
    x = nd.concat([Z, nd.constant(emb)], axis=-1)
    h = nd.dense(x, field.w1, field.b1, LEAK)
    h = nd.dense(h, field.w2, field.b2, LEAK)
    return nd.add(nd.dense(h, field.w3, field.b3), nd.matmul(Z, field.w_skip))


def per_op_rollout(field, z0, t0, query_times, method="rk4", step=0.1):
    """Differentiable Euler/RK4 rollout of the Tensor z0 from per-op field
    evaluations and nd.scale/nd.add stage arithmetic, recorded in the order
    that ``z + (k1 + 2.0*k2 + 2.0*k3 + k4) * (h/6)`` over Tensors would
    record it. Steps are clipped at query times as in ``integrate``.
    Returns the states at the query times.
    """
    from snapflow import ndtensor as nd

    def axpy(z, k, c):          # z + k*c
        return nd.add(z, nd.scale(k, c))

    z, t, states = z0, float(t0), []
    for t_q in query_times:
        remaining = t_q - t
        while abs(remaining) > 1e-12:
            h = np.sign(remaining) * min(step, abs(remaining))
            k1 = per_op_field(field, t, z)
            if method == "rk4":
                k2 = per_op_field(field, t + h / 2, axpy(z, k1, h / 2))
                k3 = per_op_field(field, t + h / 2, axpy(z, k2, h / 2))
                k4 = per_op_field(field, t + h, axpy(z, k3, h))
                ks = nd.add(nd.add(nd.add(k1, nd.scale(k2, 2.0)), nd.scale(k3, 2.0)), k4)
                z = axpy(z, ks, h / 6.0)
            else:
                z = axpy(z, k1, h)
            t += h
            remaining = t_q - t
        t = float(t_q)
        states.append(z)
    return states
