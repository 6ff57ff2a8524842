"""Hand-derived analytic gradients used as independent oracles.

Each function was worked out on paper from the closed-form models and
is kept free of any code path it checks: they hold the library's
central differences and its exact Jacobians to a symbolic reference.
The delay search's references (phase_system_every_rank and
delay_every_rank) check one rule, which delays the rank test reaches:
they take the library's own systems and solution formulas, so that they
can match it to the bit, and test the rank of every delay.
"""

import math

import numpy as np

from resokit import extraction as ex

TWO_PI = 2.0 * np.pi


def notch_s21_gradient(f, p):
    """Jacobian of the stacked [Re, Im] notch residual w.r.t.
    (f_r, q_l, q_e, phi, gain, alpha, tau).

    With E = a e^(i alpha) e^(-2 pi i f tau), D = 1 + 2 i q_l x,
    x = f/f_r - 1:
        dS/da     = S / a
        dS/dalpha = i S
        dS/dtau   = -2 pi i f S
        dS/dphi   = -i (q_l/q_e) e^(i phi) E / D
        dS/dq_e   =    (q_l/q_e^2) e^(i phi) E / D
        dS/dq_l   =   -e^(i phi) E / (q_e D^2)
        dS/df_r   = -2 i q_l^2 e^(i phi) f E / (q_e D^2 f_r^2)
    """
    f_r, q_l, q_e, phi, gain, alpha, tau = p
    f = np.asarray(f, dtype=float)
    x = f / f_r - 1.0
    d = 1.0 + 2j * q_l * x
    env = gain * np.exp(1j * (alpha - TWO_PI * f * tau))
    eiphi = np.exp(1j * phi)
    s = env * (1.0 - (q_l / q_e) * eiphi / d)

    cols = [
        -2j * q_l ** 2 * eiphi * f * env / (q_e * d ** 2 * f_r ** 2),
        -eiphi * env / (q_e * d ** 2),
        (q_l / q_e ** 2) * eiphi * env / d,
        -1j * (q_l / q_e) * eiphi * env / d,
        s / gain,
        1j * s,
        -TWO_PI * 1j * f * s,
    ]
    jac = np.column_stack(cols)
    return np.vstack([jac.real, jac.imag])


def notch_s21_gradient_band_centred(f, p, f_mid):
    """notch_s21_gradient with the environment phase referenced to f_mid.

    With alpha = alpha_c + 2 pi f_mid tau, the delay column at fixed
    alpha_c is dS/dtau + 2 pi f_mid dS/dalpha = 2 pi i (f_mid - f) S;
    the other six columns are unchanged.
    """
    jac = notch_s21_gradient(f, p)
    jac[:, 6] += TWO_PI * f_mid * jac[:, 5]
    return jac


def phase_system_fit(f, s):
    """fit_phase's least-squares problem by lstsq on the (N, 4) design:
    the columns (x, 1, s, s x^2) against s x, x = (f - f_mid) / span
    with f_mid the middle sample. Returns (residual |s x - A c|^2, pole
    (Hz), leftover delay (s)), the pole and delay by the textbook root
    gamma = (1 - sqrt(1 - 4 b' c')) / (2 b' c') of b' c' gamma^2 -
    gamma + 1 = 0."""
    f_mid, span = f[f.size // 2], f[-1] - f[0]
    x = (f - f_mid) / span
    design = np.column_stack([x, np.ones_like(x), s, s * x * x])
    coef = np.linalg.lstsq(design, s * x, rcond=None)[0]
    resid = s * x - design @ coef
    c1, b1 = coef[2], coef[3]
    gamma = (1.0 - np.sqrt(1.0 - 4.0 * b1 * c1)) / (2.0 * b1 * c1)
    return (float(np.vdot(resid, resid).real), f_mid + span * c1 * gamma,
            (1j * b1 * gamma).real / (TWO_PI * span))


def phase_system_every_rank(f, z, taus):
    """extraction._phase_system with the rank of every delay's system
    tested: a system that is not finite, or whose scaled normal matrix
    has its smallest eigenvalue at most 1e-12, reads residual inf and
    pole and leftover NaN; the others are solved together."""
    scaled, unit, rhs, total = ex._phase_normals(f, z, taus)
    solved = np.isfinite(scaled).all(axis=(1, 2))
    solved[solved] = np.linalg.eigvalsh(scaled[solved])[:, 0] > 1e-12
    scaled, rhs = scaled[solved], rhs[solved]
    sol = unit * np.linalg.solve(scaled, (unit * rhs)[..., None])[..., 0]
    out = ex._phase_solution(sol, rhs, total, f[f.size // 2], f[-1] - f[0])
    filled = []
    for values, fill in zip(out, (math.inf, complex(math.nan), math.nan)):
        full = np.full(taus.size, fill, dtype=values.dtype)
        full[solved] = values
        filled.append(full)
    return tuple(filled)


def delay_every_rank(trace):
    """extraction.estimate_delay with every grid delay rank-tested by
    phase_system_every_rank: the centre estimate when the centre's system
    is singular, else the grid delay of least residual plus its
    leftover."""
    f, z = trace.freqs_hz, trace.s21
    if f.size > ex.DELAY_POINTS:
        keep = np.round(np.linspace(0, f.size - 1, ex.DELAY_POINTS))
        keep = keep.astype(np.intp)
        f, z = f[keep], z[keep]
    parts = z.view(float)
    z = np.ldexp(parts, -math.frexp(max(parts.max(), -parts.min()))[1])
    z = z.view(complex)
    tau0 = -float(np.angle(z[1:] * z[:-1].conj()).sum()) \
        / (TWO_PI * (f[-1] - f[0]))
    window = 2.0 / (f[-1] - f[0])
    taus = np.linspace(tau0 - window, tau0 + window, ex.DELAY_GRID_POINTS)
    residual, _, leftover = phase_system_every_rank(f, z, taus)
    if not residual[taus.size // 2] < math.inf:
        return tau0
    best = int(np.argmin(residual))
    return float(taus[best] + leftover[best])


def freq_vs_area_gradient(areas, inductance, cap_per_area, cap_to_ground):
    """Gradient of f = 1/(2 pi sqrt(L (C_g + c S))) w.r.t. (c, C_g):
    df/dc = -f S / (2 (C_g + c S)), df/dC_g = -f / (2 (C_g + c S))."""
    areas = np.asarray(areas, dtype=float)
    c_tot = cap_to_ground + cap_per_area * areas
    f = 1.0 / (TWO_PI * np.sqrt(inductance * c_tot))
    return np.column_stack([-f * areas / (2.0 * c_tot), -f / (2.0 * c_tot)])


def freq_vs_area_darea(area, inductance, cap_per_area, cap_to_ground):
    """df/dS = -f c / (2 (C_g + c S)) at one design point."""
    c_tot = cap_to_ground + cap_per_area * area
    f = 1.0 / (TWO_PI * np.sqrt(inductance * c_tot))
    return -f * cap_per_area / (2.0 * c_tot)


def tls_gradient(n, thermal, tls0, n_c, beta, other):
    """Gradient of tan d(n) = tls0 th (1 + n/n_c)^-beta + other w.r.t.
    (tls0, n_c, beta, other):
        d/dtls0  = th u^-beta
        d/dn_c   = tls0 th beta n / (n_c^2 u^(beta+1))
        d/dbeta  = -tls0 th ln(u) u^-beta
        d/dother = 1
    with u = 1 + n/n_c."""
    n = np.asarray(n, dtype=float)
    u = 1.0 + n / n_c
    return np.column_stack([
        thermal * u ** -beta,
        tls0 * thermal * beta * n / (n_c ** 2 * u ** (beta + 1.0)),
        -tls0 * thermal * np.log(u) * u ** -beta,
        np.ones_like(n),
    ])


def debye_gradient(omega, eps_static, eps_inf, relax_time):
    """Gradient of eps(w) = eps_inf + (eps_s - eps_inf)/(1 + w^2 t^2)
    w.r.t. (eps_s, eps_inf, t):
        d/deps_s   = 1/(1 + w^2 t^2)
        d/deps_inf = 1 - 1/(1 + w^2 t^2)
        d/dt       = -(eps_s - eps_inf) 2 w^2 t / (1 + w^2 t^2)^2."""
    omega = np.asarray(omega, dtype=float)
    den = 1.0 + omega ** 2 * relax_time ** 2
    return np.column_stack([
        1.0 / den,
        1.0 - 1.0 / den,
        -(eps_static - eps_inf) * 2.0 * omega ** 2 * relax_time / den ** 2,
    ])


def taubin_circle_svd(z):
    """Taubin circle (center, radius) from the smallest right singular
    vector of the N x 3 matrix of centred moments (zn, x, y)."""
    z = np.asarray(z, dtype=complex)
    x0, y0 = z.real.mean(), z.imag.mean()
    x, y = z.real - x0, z.imag - y0
    sq = x * x + y * y
    spread = np.sqrt(sq.mean())
    zn = (sq - sq.mean()) / (2.0 * spread)
    a = np.linalg.svd(np.column_stack([zn, x, y]))[2][-1]
    a0 = a[0] / (2.0 * spread)
    a3 = -sq.mean() * a0
    center = complex(-a[1] / (2.0 * a0) + x0, -a[2] / (2.0 * a0) + y0)
    radius = np.sqrt(a[1] ** 2 + a[2] ** 2 - 4.0 * a0 * a3) / (2.0 * abs(a0))
    return center, radius
