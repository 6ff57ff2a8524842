"""Least-squares substrate: weighted linear fits and a damped
Gauss-Newton solver.

All model-specific fitters in the toolkit sit on these three entry
points. The solver differentiates the residual by central differences
unless the problem supplies an exact Jacobian, as the notch refinement
and the phase-winding fit do; a run that stops at the point it last
differentiated reuses that Jacobian for the covariance. It keeps a
per-run trace of accepted residual norms so callers can assert monotone
descent.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ModelEvaluationError, RankDeficiencyError

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
# Accepted steps in a row with relative residual decrease below
# residual_rtol that end a run as converged, whatever the damping.
STALL_STEPS = 3
# Relative parameter motion below which an accepted step is arithmetic
# noise. An exact Jacobian lets the solver keep accepting such steps at
# the minimum, where the residual norm no longer changes reliably;
# STALL_STEPS of them in a row end a run as converged, at any damping.
STEP_FLOOR = 1e-13
JACOBIAN_STEP_REL = 1e-6


@dataclass(frozen=True)
class Tolerances:
    """Frozen numeric knobs of the nonlinear solver."""

    step_rtol: float = STEP_RTOL
    residual_rtol: float = RESIDUAL_RTOL
    max_iterations: int = MAX_ITERATIONS
    damping_init: float = DAMPING_INIT
    damping_up: float = DAMPING_UP
    damping_down: float = DAMPING_DOWN


@dataclass
class FitProblem:
    """A residual function plus everything needed to minimize it.

    residual maps a parameter vector to a residual vector (data minus
    model or any stacking thereof). weights, when given, are 1/sigma^2
    per residual entry. bounds are (lo, hi) pairs per parameter, np.inf
    allowed; steps are projected back into the box. step_scale rescales
    the numeric-Jacobian step per parameter for quantities whose natural
    magnitude is far from 1 (for example delays in seconds). jacobian,
    when given, maps a parameter vector to the exact (n, p) derivative of
    the unweighted residual and replaces the numeric Jacobian.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    initial_params: np.ndarray
    bounds: Sequence[tuple[float, float]] | None = None
    weights: np.ndarray | None = None
    step_scale: np.ndarray | float = 1.0
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class FitResult:
    """Solution of a least-squares problem.

    covariance follows the sigma convention of the input: with explicit
    weights (1/sigma^2) it is (J^T W J)^-1; unweighted it is scaled by
    the reduced chi-square so standard errors stay meaningful.
    """

    params: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    status: str = "converged"
    residual_trace: tuple[float, ...] = field(default_factory=tuple)

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


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


def linear_wls(design, y, sigma=None) -> FitResult:
    """Weighted linear least squares in closed form.

    design is the (n, p) design matrix, one column per parameter. sigma,
    when given, are per-point standard deviations; the covariance is
    then (X^T W X)^-1 with W = diag(1/sigma^2).
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(design, dtype=float)
    n, p = X.shape
    if n < p:
        raise RankDeficiencyError(f"{n} points cannot determine {p} parameters")
    if sigma is None:
        sw = np.ones(n)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise ValueError("sigmas must be positive")
        sw = 1.0 / sigma
    Xw = X * sw[:, None]
    yw = y * sw
    sv = np.linalg.svd(Xw, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-12:
        raise RankDeficiencyError("design matrix is rank deficient")
    normal = Xw.T @ Xw
    beta = np.linalg.solve(normal, Xw.T @ yw)
    cov = np.linalg.inv(normal)
    resid = yw - Xw @ beta
    norm = float(np.linalg.norm(resid))
    return FitResult(params=beta, covariance=cov, residual_norm=norm,
                     iterations=0, converged=True, status="closed_form",
                     residual_trace=(norm,))


def _project(p, bounds):
    if bounds is None:
        return p
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    return np.clip(p, lo, hi)


def nonlinear_ls(problem: FitProblem, tol: Tolerances = Tolerances()) -> FitResult:
    """Damped Gauss-Newton descent on a FitProblem.

    Accepted steps never increase the residual norm. Terminates on
    relative step < step_rtol or relative residual change <
    residual_rtol while damping is relaxed; on STALL_STEPS accepted
    steps in a row, at any damping, each with relative residual change
    < residual_rtol; on STALL_STEPS accepted steps in a row, at any
    damping, each moving no parameter by more than STEP_FLOOR relative;
    on a stationary gradient; or at the iteration cap (converged=False).
    The Jacobian is problem.jacobian when set, scaled like the residual
    by sqrt(weights), and numeric_jacobian otherwise.
    """
    p = np.asarray(problem.initial_params, dtype=float).copy()
    p = _project(p, problem.bounds)
    if problem.weights is None:
        sw = None
    else:
        w = np.asarray(problem.weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        sw = np.sqrt(w)

    def eval_resid(q):
        r = np.asarray(problem.residual(q), dtype=float)
        if not np.all(np.isfinite(r)):
            raise ModelEvaluationError("model returned non-finite residuals")
        return r if sw is None else r * sw

    if problem.jacobian is None:
        def eval_jac(q):
            return numeric_jacobian(eval_resid, q, problem.step_scale)
    else:
        def eval_jac(q):
            jac = np.asarray(problem.jacobian(q), dtype=float)
            if not np.all(np.isfinite(jac)):
                raise ModelEvaluationError("jacobian returned non-finite values")
            return jac if sw is None else jac * sw[:, None]

    r = eval_resid(p)
    norm = float(np.linalg.norm(r))
    trace = [norm]
    lam = tol.damping_init
    iterations = 0
    stalled = 0
    floored = 0
    converged = False
    status = "max_iterations"
    J = None

    while iterations < tol.max_iterations:
        J = eval_jac(p)
        g = J.T @ r
        if float(np.max(np.abs(g), initial=0.0)) < 1e-300:
            converged = True
            status = "stationary_point"
            break
        normal = J.T @ J
        diag = np.diag(normal).copy()
        # Flat directions (zero diagonal) have zero gradient; give them
        # a positive damping entry only so the solve stays nonsingular.
        flat = diag <= 0.0
        if np.any(flat):
            diag[flat] = max(float(diag.max(initial=0.0)), 1.0)

        accepted = False
        at_optimum = False
        best_ratio = math.inf
        while lam <= DAMPING_MAX:
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(normal + lam * np.diag(diag), -g,
                                       rcond=None)[0]
            # Even a model-perfect step would not reduce the cost
            # measurably: the current point is the minimum to within
            # arithmetic noise. Only meaningful while damping is
            # relaxed; inflated lambda shrinks the prediction by itself.
            predicted = float(-g @ step)
            if lam <= tol.damping_init \
                    and predicted <= tol.residual_rtol * norm * norm:
                at_optimum = True
                break
            p_trial = _project(p + step, problem.bounds)
            moved = p_trial - p
            try:
                r_trial = eval_resid(p_trial)
            except ModelEvaluationError:
                lam *= tol.damping_up
                continue
            norm_trial = float(np.linalg.norm(r_trial))
            if norm_trial <= norm:
                accepted = True
                break
            best_ratio = min(best_ratio, norm_trial / max(norm, 1e-300))
            lam *= tol.damping_up
        if at_optimum or (not accepted and best_ratio <= 1.0 + 1e-10):
            # No descent found, but the nearest trials tie the current
            # residual to arithmetic precision: already at the minimum.
            converged = True
            status = "converged" if iterations > 0 else "stationary_point"
            break
        if not accepted:
            converged = False
            status = "damping_overflow"
            break

        lam_used = lam
        lam = max(lam / tol.damping_down, 1e-300)
        # Relative step per parameter: a global vector norm would let
        # the largest-magnitude parameter mask motion in the others.
        # Parameters hovering at zero are referenced to their typical
        # scale (the Jacobian step_scale) instead.
        typical = np.broadcast_to(np.asarray(problem.step_scale, dtype=float),
                                  p.shape)
        scale_ref = np.maximum(np.maximum(np.abs(p), np.abs(p_trial)),
                               np.maximum(typical, 1e-300))
        step_rel = float(np.max(np.abs(moved) / scale_ref))
        res_rel = (norm - norm_trial) / max(norm, 1e-300)
        p, r, norm = p_trial, r_trial, norm_trial
        J = None
        trace.append(norm)
        iterations += 1
        # Small steps only signal arrival when damping is relaxed; an
        # inflated lambda after rejections shrinks steps on its own.
        if lam_used <= tol.damping_init and \
                (step_rel < tol.step_rtol or res_rel < tol.residual_rtol):
            converged = True
            status = "stationary_point" if iterations == 1 and res_rel <= 0.0 \
                else "converged"
            break
        # Damping inflated by rejections can keep accepting steps that no
        # longer lower the residual; a run of them means the minimum.
        stalled = stalled + 1 if res_rel < tol.residual_rtol else 0
        # Steps at the arithmetic floor can still tick the residual down
        # by rounding noise, so they are counted apart from the above.
        floored = floored + 1 if step_rel <= STEP_FLOOR else 0
        if stalled >= STALL_STEPS or floored >= STALL_STEPS:
            converged = True
            status = "converged"
            break

    # A stop at the point the loop last differentiated reuses its Jacobian.
    if J is None:
        J = eval_jac(p)
    normal = J.T @ J
    n_pts, n_par = J.shape
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(normal)
    if sw is None:
        dof = n_pts - n_par
        cov = cov * (norm ** 2 / dof if dof > 0 else 0.0)
    return FitResult(params=p, covariance=cov, residual_norm=norm,
                     iterations=iterations, converged=converged, status=status,
                     residual_trace=tuple(trace))
