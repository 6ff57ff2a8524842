"""Least-squares substrate: closed-form linear fits, a damped
Gauss-Newton solver and the one covariance rule.

All model-specific fitters in the toolkit sit on these entry points.
Each fitter that calls the solver (the notch refinement, the power-sweep
fit and the area fit) states its residual, bounds and normal equations
(J^T J and J^T r of its exact Jacobian J) in its own units;
FitProblem.scale names the unit of each parameter, and the settings
below hold in those units. A fitter with a dense Jacobian hands it over
through from_jacobian; the notch refinement forms its 3x3 system
without one. The solver returns the minimum and why it stopped, with a
per-run trace of accepted residual norms, and no covariance: each
fitter applies `covariance`, the one rule for the covariance and for
when a variance is undetermined (infinite), to a factor of its normal
matrix at its fitted params, and linear_wls refuses a design by the
same rank rule. The solver's one stop rule is stated in nonlinear_ls;
the constants below are its settings. No fitter calls numeric_jacobian:
it is the reference that exact Jacobians are tested against.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ModelEvaluationError, RankDeficiencyError

# Damping is applied Marquardt-style, scaled by the diagonal of the
# normal matrix, which keeps steps invariant under positive rescaling
# of individual parameters.
DAMPING_INIT = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 3.0
DAMPING_MAX = 1e15
STEP_RTOL = 1e-10
RESIDUAL_RTOL = 1e-12
MAX_ITERATIONS = 200
# Damping inflated by rejections shrinks steps by itself, so there a step
# counts as negligible only below STEP_FLOOR, the arithmetic floor that
# exact-Jacobian steps reach at the minimum, and it takes STALL_STEPS
# negligible steps in a row to end a run.
STALL_STEPS = 3
STEP_FLOOR = 1e-13
JACOBIAN_STEP_REL = 1e-6
# The rank rule (covariance). On the wide-range census (tests/census.py,
# seeds 5-8) every converged notch fit's scaled factor has a condition
# under 1.4e5; the nearest draws to 1 / RANK_RTOL lie at 5.7e6 and 3.0e7.
RANK_RTOL = 7.5e-8


@dataclass
class FitProblem:
    """A residual function plus everything needed to minimize it.

    residual maps a parameter vector to a residual vector (data minus
    model or any stacking thereof; a weighted fit scales its own rows).
    normal_equations maps (params, residual at params) to the normal
    equations (J^T J, J^T r) of the exact (n, p) derivative J of the
    residual: a (p, p) and a (p,) array. from_jacobian builds it from a
    dense Jacobian.
    bounds are (lo, hi) pairs per parameter, np.inf allowed; steps are
    projected back into the box, and lo == hi pins a parameter. scale is
    the unit of each parameter, a scalar or one positive value per
    parameter, for quantities far from 1 such as a capacitance in farads:
    the solver works on params / scale, so its step tests are measured
    in that unit. Everything else, the returned params included, is in
    the caller's units.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    initial_params: np.ndarray
    bounds: Sequence[tuple[float, float]]
    normal_equations: Callable[[np.ndarray, np.ndarray],
                               tuple[np.ndarray, np.ndarray]]
    scale: np.ndarray | float = 1.0


@dataclass
class FitResult:
    """The minimum a least-squares run reached and why it stopped.

    residual_norm is the 2-norm of the residual at params; status and
    converged are as nonlinear_ls states them, and residual_trace holds
    the norm at the start and after each accepted step. No covariance:
    the caller applies `covariance` to a factor of its normal matrix.
    """

    params: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    status: str = "converged"
    residual_trace: tuple[float, ...] = field(default_factory=tuple)


def numeric_jacobian(model, params, scale=1.0) -> np.ndarray:
    """Central-difference Jacobian of model at params.

    Per-parameter step is scale * max(|p|, 1) * 1e-6; scale may be a
    scalar or a per-parameter array.
    """
    p = np.asarray(params, dtype=float)
    steps = np.broadcast_to(np.asarray(scale, dtype=float), p.shape) \
        * np.maximum(np.abs(p), 1.0) * JACOBIAN_STEP_REL
    cols = []
    for j, h in enumerate(steps):
        pp = p.copy()
        pm = p.copy()
        pp[j] += h
        pm[j] -= h
        fp = np.asarray(model(pp), dtype=float)
        fm = np.asarray(model(pm), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise ModelEvaluationError(
                f"model returned non-finite values near parameter {j}")
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def linear_wls(design, y) -> FitResult:
    """Linear least squares in closed form, on the (n, p) design matrix,
    solved from the SVD of the rank rule (covariance). A design with an
    undetermined direction, fewer points than parameters among them,
    raises RankDeficiencyError. It returns no covariance.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(design, dtype=float)
    norms, u, s, vt, determined = _scaled_svd(X)
    if not determined.all():
        raise RankDeficiencyError("design matrix is rank deficient")
    # One step of iterative refinement (Bjorck, Numerical Methods for
    # Least Squares Problems, 1996, sec. 2.9) takes back the first
    # solve's rounding: two points fit their line exactly.
    pinv = (vt.T / s) @ u.T / norms[:, None]
    beta = pinv @ y
    beta += pinv @ (y - X @ beta)
    resid = y - X @ beta
    norm = math.sqrt(resid @ resid)
    return FitResult(params=beta, residual_norm=norm, iterations=0,
                     converged=True, status="closed_form",
                     residual_trace=(norm,))


def from_jacobian(jacobian):
    """FitProblem.normal_equations of a dense Jacobian, params -> (n, p)
    J: (J^T J, J^T r) at (params, residual r)."""
    def normal_equations(params, residual):
        J = jacobian(params)
        return J.T @ J, J.T @ residual
    return normal_equations


def covariance(factor, rows, residual_norm=None, free=None) -> np.ndarray:
    """Parameter covariance of a least-squares solution with `rows`
    residuals, read from a factor F of its normal matrix (F^T F = J^T J:
    the Jacobian or a smaller factor), not from J^T J, whose condition
    is the square of F's.

    The one rank rule: in the SVD of F with unit-norm columns, a
    direction whose singular value is at most RANK_RTOL times the
    largest is undetermined (a zero column gives one), and a parameter
    with a component over RANK_RTOL along it gets an infinite variance
    and zeros in the rest of its row and column. With residual_norm
    (unweighted residuals) the covariance is scaled by the reduced
    chi-square, and without a degree of freedom every free parameter
    reads infinite. A parameter that free (default: all) leaves out was
    never fitted: zero row and column, the others conditional on it.
    """
    if free is not None and not free.all():
        cov = np.zeros((free.size, free.size))
        cov[np.ix_(free, free)] = covariance(factor[:, free], rows,
                                             residual_norm)
        return cov
    size = factor.shape[1]
    dof = rows - size
    if residual_norm is not None and dof <= 0:
        return np.diag(np.full(size, math.inf))
    norms, _, s, vt, determined = _scaled_svd(factor)
    kept = vt[determined] / (s[determined, None] * norms)
    cov = kept.T @ kept
    if residual_norm is not None:
        cov *= residual_norm ** 2 / dof
    if not determined.all():
        undetermined = (np.abs(vt[~determined]) > RANK_RTOL).any(axis=0)
        cov[undetermined] = cov[:, undetermined] = 0.0
        cov[undetermined, undetermined] = math.inf
    return cov


def _scaled_svd(factor):
    """Column norms (1 for a zero column), thin SVD u, s, vt of factor
    over them, and which directions (rows of vt) the rank rule keeps.
    Zero rows pad a wide factor: F^T F is unchanged, and vt is square."""
    rows, size = factor.shape
    if rows < size:
        factor = np.vstack([factor, np.zeros((size - rows, size))])
    norms = np.sqrt((factor * factor).sum(axis=0))
    norms[norms == 0.0] = 1.0
    u, s, vt = np.linalg.svd(factor / norms, full_matrices=False)
    return norms, u, s, vt, s > RANK_RTOL * s[0]


def nonlinear_ls(problem: FitProblem) -> FitResult:
    """Damped Gauss-Newton descent on a FitProblem.

    The run iterates on x = params / problem.scale: the start point and
    the bounds are divided by the unit once, the residual and the normal
    equations are called at x * scale, and the unit enters only the
    p-sized gradient and normal matrix, so every test below reads x. No
    array of the residual's length is touched but the residual. Accepted
    steps never increase the residual norm. A run converges by Moré's
    two tests (LNM 630, 1978): (a) at relaxed damping (lam <=
    DAMPING_INIT) the damped step predicts a decrease of at most
    RESIDUAL_RTOL * |r|^2, status "stationary_point" at iteration 0 and
    "converged" after; (b) negligible accepted steps, which lower the
    residual norm by less than RESIDUAL_RTOL relative or move no x by
    more than STEP_RTOL (STEP_FLOOR at inflated damping) times
    max(|x|, 1): one at relaxed damping, or STALL_STEPS in a row, ends
    the run as "converged". It fails with "damping_overflow" when
    damping passes DAMPING_MAX before a step is accepted, or
    "max_iterations". The normal equations, problem.normal_equations,
    are taken once at the start of each iteration, at the accepted point
    and its residual, and never after the last one; a non-finite entry
    raises ModelEvaluationError. A pinned parameter (lo == hi) keeps its
    row and column, and the clip to the bounds undoes its share of each
    step. params are returned in the caller's units, with no covariance.
    """
    # A pinned power sweep runs 200 iterations on 4 parameters, where a
    # numpy wrapper costs more than its arithmetic. So this function
    # calls methods and ufuncs instead: a.all() for np.all, a.diagonal()
    # for np.diag, minimum(maximum()) for np.clip and sqrt(r @ r) for the
    # 2-norm, each with the same bits as the wrapper. It writes each
    # damping level into a view of the damped diagonal, and it forms the
    # relative step only when the residual test leaves the stop open.
    p0 = np.asarray(problem.initial_params, dtype=float)
    unit = np.empty_like(p0)
    unit[...] = problem.scale
    if not ((unit > 0) & np.isfinite(unit)).all():
        raise DomainError("parameter scale must be positive and finite")
    lo = np.array([b[0] for b in problem.bounds], dtype=float) / unit
    hi = np.array([b[1] for b in problem.bounds], dtype=float) / unit
    x = np.minimum(np.maximum(p0 / unit, lo), hi)
    outer = unit[:, None] * unit
    neg_unit = -unit

    def eval_resid(q):
        r = np.asarray(problem.residual(q * unit), dtype=float)
        if not np.isfinite(r).all():
            raise ModelEvaluationError("model returned non-finite residuals")
        return r

    # The normal equations in the caller's params.
    def eval_normal(q, r):
        normal, gradient = problem.normal_equations(q * unit, r)
        if not (np.isfinite(normal).all() and np.isfinite(gradient).all()):
            raise ModelEvaluationError(
                "normal equations returned non-finite values")
        return normal, gradient

    r = eval_resid(x)
    norm = math.sqrt(r @ r)
    trace = [norm]
    lam = DAMPING_INIT
    iterations = 0
    negligible = 0
    status = "max_iterations"

    while iterations < MAX_ITERATIONS:
        normal, gradient = eval_normal(x, r)
        # The negative gradient in x: the right-hand side of each solve.
        descent = gradient * neg_unit
        normal = normal * outer
        normal_diag = diag = normal.diagonal()
        # Flat directions (zero diagonal) have zero gradient; give them
        # a positive damping entry only so the solve stays nonsingular.
        flat = diag <= 0.0
        if flat.any():
            diag = diag.copy()
            diag[flat] = max(float(diag.max(initial=0.0)), 1.0)
        damped = normal.copy()
        # A writable view: each damping level is written into damped.
        damped_diag = damped.reshape(-1)[::x.size + 1]

        accepted = False
        while lam <= DAMPING_MAX:
            np.add(normal_diag, lam * diag, out=damped_diag)
            try:
                step = np.linalg.solve(damped, descent)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(damped, descent, rcond=None)[0]
            # Even a model-perfect step would not reduce the cost
            # measurably: the current point is the minimum to within
            # arithmetic noise (a zero gradient included). Only
            # meaningful while damping is relaxed; inflated lambda
            # shrinks the prediction by itself.
            relaxed = lam <= DAMPING_INIT
            if relaxed and float(descent @ step) \
                    <= RESIDUAL_RTOL * norm * norm:
                break
            x_trial = np.minimum(np.maximum(x + step, lo), hi)
            moved = x_trial - x
            try:
                r_trial = eval_resid(x_trial)
            except ModelEvaluationError:
                lam *= DAMPING_UP
                continue
            norm_trial = math.sqrt(r_trial @ r_trial)
            if norm_trial <= norm:
                accepted = True
                break
            lam *= DAMPING_UP
        if lam > DAMPING_MAX:
            status = "damping_overflow"
            break
        if not accepted:
            status = "converged" if iterations > 0 else "stationary_point"
            break

        lam = max(lam / DAMPING_DOWN, 1e-300)
        res_rel = (norm - norm_trial) / max(norm, 1e-300)
        small = res_rel < RESIDUAL_RTOL
        if not small:
            # Relative step per parameter: a global vector norm would let
            # the largest-magnitude parameter mask motion in the others.
            # Parameters hovering at zero are referenced to their unit.
            # Inflated damping shrinks steps on its own: see STALL_STEPS.
            scale_ref = np.maximum(np.maximum(np.abs(x), np.abs(x_trial)),
                                   1.0)
            step_rel = float((np.abs(moved) / scale_ref).max())
            small = step_rel <= (STEP_RTOL if relaxed else STEP_FLOOR)
        x, r, norm = x_trial, r_trial, norm_trial
        trace.append(norm)
        iterations += 1
        negligible = negligible + 1 if small else 0
        if negligible >= (1 if relaxed else STALL_STEPS):
            status = "converged"
            break

    return FitResult(params=x * unit, residual_norm=norm,
                     iterations=iterations, status=status,
                     converged=status in ("converged", "stationary_point"),
                     residual_trace=tuple(trace))
