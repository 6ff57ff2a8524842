"""Hand-derived analytic gradients used as independent oracles.

Each function was worked out on paper from the closed-form models and
is kept free of any code path it checks: the library differentiates
numerically, these differentiate symbolically.
"""

import numpy as np

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


def unwrap_from_mid(theta):
    """Phase unwrapped outward from the trace midpoint by np.unwrap, run
    once on the upper half and once, reversed, on the lower half."""
    mid = theta.size // 2
    out = np.empty_like(theta)
    out[mid:] = np.unwrap(theta[mid:])
    out[:mid + 1] = np.unwrap(theta[:mid + 1][::-1])[::-1]
    return out


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
