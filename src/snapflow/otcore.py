"""Entropic optimal transport: pairwise costs, Sinkhorn, Top-K truncation of
couplings, and a debiased Sinkhorn distance for evaluation.

Both solvers share one scaling-domain engine with absorption and one
epsilon-scaling schedule (Schmitzer 2019, arXiv:1610.06519): matrix-vector
iterations on a kernel that carries the dual potentials, which are
re-absorbed into it whenever the scalings grow. All solvers run on plain
numpy; couplings are treated as constants by the training losses, so
nothing here records onto the autodiff tape except ``transport_cost_sq``,
which propagates gradients through the cost entries of a fixed plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ndtensor as nd


class CostError(ValueError):
    pass


@dataclass
class CostMatrix:
    entries: np.ndarray
    tag: str = "euclidean"


@dataclass
class Coupling:
    """Nonnegative plan with prescribed marginals from a Sinkhorn solve.

    The plan is rounded onto its marginals after the solve (Altschuler, Weed
    & Rigollet 2017), so its row and column sums match them to rounding
    error; ``converged`` and ``iterations`` describe the iterate before
    rounding.
    """

    plan: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    epsilon: float
    converged: bool = True
    iterations: int = 0


@dataclass
class TopKCoupling:
    """Per-row truncation of a plan to its K heaviest entries.

    ``indices[i]`` holds the retained column indices of row i and
    ``weights[i]`` the corresponding plan entries; ``mass`` is their total.
    """

    indices: np.ndarray      # (B, K) int
    weights: np.ndarray      # (B, K)
    mass: float = field(default=0.0)
    k: int = 0


def pairwise_sqdist(X, Y):
    """Squared Euclidean distances between rows, computed by expansion."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(sq, 0.0)


def cost_euclidean(Za, Zb):
    """Geometric cost C_ij = ||z_i^a - z_j^b||^2 between two latent batches."""
    Za = np.asarray(Za, dtype=np.float64)
    Zb = np.asarray(Zb, dtype=np.float64)
    if Za.shape[1] != Zb.shape[1]:
        raise CostError(f"latent dims differ: {Za.shape[1]} vs {Zb.shape[1]}")
    return CostMatrix(pairwise_sqdist(Za, Zb), tag="euclidean")


def euler_one_step(field, t_from, Z, dt):
    """Single explicit Euler step Z + field(t_from, Z)*dt; dt may be negative."""
    Z = np.asarray(Z, dtype=np.float64)
    return Z + np.asarray(field(t_from, Z), dtype=np.float64) * dt


def cost_bidirectional(Za, Zb, forward_field, backward_field, t_a, t_b):
    """Fused cost mixing one-step forward and backward Euler predictions.

    C_ij = 0.5*||(z_i^a + v_f(t_a, z_i^a)*dt) - z_j^b||^2
         + 0.5*||z_i^a - (z_j^b + v_b(t_b, z_j^b)*(-dt))||^2,  dt = t_b - t_a.
    """
    if t_b <= t_a:
        raise CostError(f"need t_b > t_a, got t_a={t_a}, t_b={t_b}")
    Za = np.asarray(Za, dtype=np.float64)
    Zb = np.asarray(Zb, dtype=np.float64)
    if Za.shape[1] != Zb.shape[1]:
        raise CostError(f"latent dims differ: {Za.shape[1]} vs {Zb.shape[1]}")
    dt = t_b - t_a
    pred_b = euler_one_step(forward_field, t_a, Za, dt)
    pred_a = euler_one_step(backward_field, t_b, Zb, -dt)
    entries = 0.5 * pairwise_sqdist(pred_b, Zb) + 0.5 * pairwise_sqdist(Za, pred_a)
    return CostMatrix(entries, tag="bidirectional-fused")


# ---------------------------------------------------------------------------
# Sinkhorn
# ---------------------------------------------------------------------------

_TAU = 1e3  # scalings leaving [1/_TAU, _TAU] are absorbed into the potentials
_STAGE_ITERS = 5  # iterations at each annealing stage before the target epsilon


def _epsilon_schedule(d_max, eps_target):
    """Geometric annealing, by a factor 1/4 per stage, from the cost's own
    scale down to the target (Schmitzer 2019)."""
    eps_list = []
    eps = max(d_max, eps_target)
    while eps > eps_target * 1.0000001:
        eps_list.append(eps)
        eps *= 0.25
    eps_list.append(eps_target)
    return eps_list


class _ScaledKernel:
    """One entropic problem in scaling form (Schmitzer 2019, arXiv:1610.06519).

    The kernel K_ij = exp((f_i + g_j - C_ij)/eps) absorbs the potentials f, g;
    the scalings u, v act on top of it, so the current potentials are
    f + eps*log(u) and g + eps*log(v). Keeping u and v within [1/_TAU, _TAU]
    by absorbing them keeps K representable where exp(-C/eps) underflows.
    u and v are views of one buffer ``uv``, updated in place, so the escape
    test is one max and one min over it.
    """

    def __init__(self, C):
        n, m = C.shape
        self.C = C
        self.f = np.zeros(n)
        self.g = np.zeros(m)
        self.uv = np.ones(n + m)
        self.u = self.uv[:n]
        self.v = self.uv[n:]
        self.K = np.empty_like(C)
        self.eps = None

    def rebuild(self, eps):
        """Fold the scalings into the potentials and rebuild K, in place, at eps."""
        if self.eps is not None:
            self.f += self.eps * np.log(self.u)
            self.g += self.eps * np.log(self.v)
        self.uv[:] = 1.0
        self.eps = eps
        np.add.outer(self.f, self.g, out=self.K)
        self.K -= self.C
        self.K *= 1.0 / eps
        np.exp(self.K, out=self.K)

    def escaped(self):
        return self.uv.max() > _TAU or self.uv.min() < 1.0 / _TAU

    def potentials(self):
        return (self.f + self.eps * np.log(self.u),
                self.g + self.eps * np.log(self.v))

    def plan(self):
        """diag(u) K diag(v), written over K."""
        self.K *= self.u[:, None]
        self.K *= self.v
        return self.K


def _sinkhorn_scaled(C, a, b, eps, max_iters, tol):
    """Annealed alternating Sinkhorn: 5 iterations at each stage of the
    epsilon schedule, then up to ``max_iters`` at ``eps``.

    Columns are scaled first and rows last, so rows are exact at exit. The
    column violation |v*(K^T u) - b| is checked every final-stage iteration;
    K^T u is also the next column update's denominator. Annealing only
    improves the starting potentials; the fixed point and the stopping rule
    are those of plain Sinkhorn at ``eps``.
    """
    pr = _ScaledKernel(C)
    schedule = _epsilon_schedule(float(C.max()), eps)
    for stage, e in enumerate(schedule):
        final = stage == len(schedule) - 1
        pr.rebuild(e)
        Ktu = pr.K.T @ pr.u
        it = 0
        while it < (max_iters if final else _STAGE_ITERS):
            it += 1
            np.divide(b, Ktu, out=pr.v)
            np.divide(a, pr.K @ pr.v, out=pr.u)
            Ktu = pr.K.T @ pr.u
            if final and np.abs(pr.v * Ktu - b).max() < tol:
                return pr.plan(), it, True
            if pr.escaped():
                pr.rebuild(e)
                Ktu = pr.K.T @ pr.u
    return pr.plan(), it, False


_ROUND_BLOCK = 4096  # entries per rank-one block, keeping temporaries small


def _round_to_marginals(P, a, b):
    """Round a plan in place onto U(a, b) (Altschuler, Weed & Rigollet 2017,
    arXiv:1705.09634, Alg. 2).

    Rows, then columns, are scaled down to at most their marginal; the mass
    still missing is restored by the nonnegative rank-one term
    err_a err_b^T / ||err_a||_1. The result is nonnegative with exact
    marginals, and its L1 distance to P is at most twice P's marginal
    violation. A row or column summing to zero is not scaled; the rank-one
    term fills it.
    """
    tiny = np.finfo(np.float64).tiny
    P *= np.minimum(a / np.maximum(P.sum(axis=1), tiny), 1.0)[:, None]
    P *= np.minimum(b / np.maximum(P.sum(axis=0), tiny), 1.0)
    # clamp the last-ulp overshoots of the scaling so the update stays >= 0
    err_a = np.maximum(a - P.sum(axis=1), 0.0)
    err_b = np.maximum(b - P.sum(axis=0), 0.0)
    mass = err_a.sum()
    if mass > 0.0:
        err_b /= mass
        rows = max(1, _ROUND_BLOCK // P.shape[1])
        for s in range(0, P.shape[0], rows):
            P[s:s + rows] += np.outer(err_a[s:s + rows], err_b)
    return P


def sinkhorn(C, row_marginal=None, col_marginal=None, epsilon=0.05,
             max_iters=500, tol=1e-6):
    """Entropic OT plan between discrete measures with the given marginals.

    Solves min <P, C> + eps * sum P(log P - 1) over couplings of the
    marginals, by scaling-domain Sinkhorn with absorption and epsilon-scaling
    (Schmitzer 2019). The last
    iterate is then rounded onto the marginals (Altschuler, Weed & Rigollet
    2017, Alg. 2), so the returned plan has them even when the solver
    stopped early; its cost moves by at most 2 max|C| times the violation.
    Returns a Coupling whose ``converged`` (False when max_iters was hit
    first) and ``iterations`` describe the iterate before rounding.
    """
    C = C.entries if isinstance(C, CostMatrix) else np.asarray(C, dtype=np.float64)
    if not np.isfinite(C).all():
        raise CostError("cost matrix contains non-finite entries")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n, m = C.shape
    a = np.full(n, 1.0 / n) if row_marginal is None else np.asarray(row_marginal, dtype=np.float64)
    b = np.full(m, 1.0 / m) if col_marginal is None else np.asarray(col_marginal, dtype=np.float64)
    for name, v in (("row", a), ("col", b)):
        if (v < 0).any() or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} marginal is not a probability vector")
    P, it, ok = _sinkhorn_scaled(C, a, b, epsilon, max_iters, tol)
    return Coupling(plan=_round_to_marginals(P, a, b), row_marginal=a,
                    col_marginal=b, epsilon=epsilon, converged=ok, iterations=it)


def transport_cost(plan, C):
    """<P, C> for a fixed plan (plain value, no gradients)."""
    C = C.entries if isinstance(C, CostMatrix) else C
    return float((plan * C).sum())


def topk_truncate(pi, K):
    """Keep the K largest plan entries per row (ties: lower column index wins)."""
    plan = pi.plan if isinstance(pi, Coupling) else np.asarray(pi, dtype=np.float64)
    B, M = plan.shape
    if not 1 <= K <= M:
        raise ValueError(f"K must be in [1, {M}], got {K}")
    # stable argsort on the negated row keeps lower indices first among ties
    order = np.argsort(-plan, axis=1, kind="stable")[:, :K]
    idx = np.sort(order, axis=1)
    w = np.take_along_axis(plan, idx, axis=1)
    return TopKCoupling(indices=idx, weights=w, mass=float(w.sum()), k=K)


# ---------------------------------------------------------------------------
# Evaluation distance
# ---------------------------------------------------------------------------

def _divergence_potentials(X, Y, eps_target):
    """Annealed averaged-Jacobi Sinkhorn for the pair and both self problems,
    in the weighted convention P_ij = a_i b_j exp((f_i + g_j - C_ij)/eps):
    5 iterations at each stage of the epsilon schedule, then up to 300 at
    ``eps_target``, stopping once the potentials move by less than 1e-7.

    In scaling form the averaged potential update f <- (f + softmin(g))/2
    reads u <- sqrt(u / K(b*v)), and likewise for v and for the self
    problems, whose two scalings stay equal. Updating both sides from
    the previous iterate makes the result exactly symmetric under swapping X
    and Y, which the alternating solver is not at loose convergence. Returns
    the pair problem, the potentials of the self problems and the weights.
    """
    n, m = len(X), len(Y)
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    pair = _ScaledKernel(pairwise_sqdist(X, Y))
    self_x = _ScaledKernel(pairwise_sqdist(X, X))
    self_y = _ScaledKernel(pairwise_sqdist(Y, Y))
    problems = (pair, self_x, self_y)
    d_max = max(float(pr.C.max()) for pr in problems)
    schedule = _epsilon_schedule(d_max, eps_target)
    for idx, eps in enumerate(schedule):
        final = idx == len(schedule) - 1
        for pr in problems:
            pr.rebuild(eps)
        for _ in range(300 if final else _STAGE_ITERS):
            ru = pair.u / (pair.K @ (b * pair.v))
            rv = pair.v / (pair.K.T @ (a * pair.u))
            np.sqrt(ru, out=pair.u)
            np.sqrt(rv, out=pair.v)
            for pr, w in ((self_x, a), (self_y, b)):
                np.sqrt(pr.u / (pr.K @ (w * pr.u)), out=pr.u)
                pr.v[:] = pr.u
            for pr in problems:
                if pr.escaped():
                    pr.rebuild(eps)
            # the potentials moved by eps*log(sqrt(r))
            drift = 0.5 * eps * max(np.abs(np.log(ru)).max(), np.abs(np.log(rv)).max())
            if final and drift < 1e-7:
                break
    return pair, self_x.potentials()[0], self_y.potentials()[0], a, b


def ot_distance(X, Y, blur=0.05):
    """Debiased Sinkhorn divergence between point clouds with squared-Euclidean
    ground cost (Feydy et al. 2019, arXiv:1810.08278).

    epsilon = blur**2, reached by geometric epsilon-annealing from the cost's
    max scale. The value is computed from the dual potentials of the pair
    problem minus the symmetric self problems; it vanishes for identical
    clouds and is symmetric and nonnegative.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.size == 0 or Y.size == 0:
        raise ValueError("ot_distance requires nonempty point sets")
    if X.shape[1] != Y.shape[1]:
        raise CostError(f"feature dims differ: {X.shape[1]} vs {Y.shape[1]}")
    pair, p, q, a, b = _divergence_potentials(X, Y, blur * blur)
    f, g = pair.potentials()
    value = float((f - p) @ a + (g - q) @ b)
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# Differentiable transport cost for the global losses
# ---------------------------------------------------------------------------

def transport_cost_sq(plan, X, Y):
    """<P, D> with D_ij = ||x_i - y_j||^2, differentiable through X and/or Y.

    The plan is a fixed numpy array (stop-gradient on the coupling); either
    side may be an nd.Tensor, in which case a scalar tensor is returned.

    Expands the quadratic so only O(B*G) tensor ops are recorded:
    <P,D> = sum_i r_i||x_i||^2 + sum_j c_j||y_j||^2 - 2 sum(X * (P @ Y)).
    """
    plan = np.asarray(plan, dtype=np.float64)
    r = plan.sum(axis=1)
    c = plan.sum(axis=0)
    x_t = isinstance(X, nd.Tensor)
    y_t = isinstance(Y, nd.Tensor)
    if not x_t and not y_t:
        return transport_cost(plan, pairwise_sqdist(X, Y))

    def row_sq_weighted(T, w):
        return nd.tsum(nd.mul(nd.tsum(nd.square(T), axis=1), nd.constant(w)))

    Xt = X if x_t else nd.constant(np.asarray(X, dtype=np.float64))
    Yt = Y if y_t else nd.constant(np.asarray(Y, dtype=np.float64))
    term_x = row_sq_weighted(Xt, r)
    term_y = row_sq_weighted(Yt, c)
    if x_t:
        cross = nd.tsum(nd.mul(Xt, nd.matmul(nd.constant(plan), Yt)))
    else:
        cross = nd.tsum(nd.mul(Yt, nd.matmul(nd.constant(plan.T), Xt)))
    return nd.add(nd.add(term_x, term_y), nd.scale(cross, -2.0))
