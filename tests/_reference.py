"""High-precision (50-digit) oracles used where float64 cannot resolve the
quantity under test (deep small-maturity asymptotics) and as an independent
re-derivation of the closed forms.

Every function here is a separate transcription from the production code and
is anchored to it by exact-agreement tests at moderate maturities.
"""

import mpmath as mp

mp.mp.dps = 50


def _c(x):
    # exact binary-to-mp conversion so the oracle sees the same numbers; a
    # complex maturity (a Cauchy contour in tau) stays complex
    return mp.mpc(x) if isinstance(x, (complex, mp.mpc)) else mp.mpf(x)


def mp_b(beta, tau):
    beta, tau = _c(beta), _c(tau)
    if beta == 0:
        return tau
    return mp.expm1(beta * tau) / beta


def mp_q(p, r):
    a, b, s, g = _c(p.alpha), _c(p.beta), _c(p.sigma), _c(p.gamma)
    r = _c(r)
    if g == 0:
        return mp.mpf(0)
    return g * (2 * g - 1) * s**2 * r ** (2 * (2 * g - 1)) + 2 * g * r ** (2 * g - 1) * (a + b * r)


def mp_cw(p, tau, r):
    a, b, s, g = _c(p.alpha), _c(p.beta), _c(p.sigma), _c(p.gamma)
    tau, r = _c(tau), _c(r)
    # the beta-singular brackets cancel through ~|log10(beta^2)| digits, so
    # evaluate small-beta cases with enough headroom; beta = 0 itself is
    # replaced by a value whose residual effect is below even 130 digits
    if b == 0:
        b = mp.mpf("1e-30")
    dps = 130 if abs(b * tau) < mp.mpf("1e-3") else mp.mp.dps
    with mp.workdps(dps):
        B = mp_b(b, tau)
        q = mp_q(p, r)
        t3 = (r ** (2 * g) + q * tau) * (s**2 / (4 * b)) * (B**2 + (2 / b) * (tau - B))
        t4 = -q * (s**2 / (8 * b**2)) * (
            B**2 * (2 * b * tau - 1) - 2 * B * (2 * tau - 3 / b) + 2 * tau**2 - 6 * tau / b
        )
        out = -r * B + (a / b) * (tau - B) + t3 + t4
    return out


def mp_cir(p, tau, r):
    a, b, s = _c(p.alpha), _c(p.beta), _c(p.sigma)
    tau, r = _c(tau), _c(r)
    th = mp.sqrt(b**2 + 2 * s**2)
    em = mp.expm1(th * tau)
    D = (th - b) * em + 2 * th
    A = (2 * a / s**2) * (mp.log(2 * th) + (th - b) * tau / 2 - mp.log(D))
    return A - r * 2 * em / D


def mp_k4(p, r):
    a, b, s, g = _c(p.alpha), _c(p.beta), _c(p.sigma), _c(p.gamma)
    r = _c(r)
    return (mp.mpf(1) / 24) * g * r ** (2 * (g - 2)) * s**2 * (
        2 * a**2 * (-1 + 2 * g) * r**2
        + 4 * b**2 * g * r**4
        - 8 * r ** (3 + 2 * g) * s**2
        + 2 * b * (1 - 5 * g + 6 * g**2) * r ** (2 * (1 + g)) * s**2
        + s**4 * r ** (4 * g) * (-3 + 16 * g - 28 * g**2 + 16 * g**3)
        + 2 * a * r * (b * (-1 + 4 * g) * r**2 + (2 - 7 * g + 6 * g**2) * r ** (2 * g) * s**2)
    )


def mp_k5(p, r):
    a, b, s, g = _c(p.alpha), _c(p.beta), _c(p.sigma), _c(p.gamma)
    r = _c(r)
    return (g * s**2 / 120) * r ** (2 * (-2 + g)) * (
        6 * a**2 * b * (-1 + 2 * g) * r**2
        + 12 * b**3 * g * r**4
        - 10 * (1 - 2 * g) ** 2 * r ** (1 + 4 * g) * s**4
        + 6 * b**2 * s**2 * (1 - 5 * g + 6 * g**2) * r ** (2 * (1 + g))
        + b * r ** (2 * g) * s**2
        * (-10 * (5 + 2 * g) * r**3 + 3 * (1 - 2 * g) ** 2 * (-3 + 4 * g) * r ** (2 * g) * s**2)
        + 2 * a * r * (
            3 * b**2 * (-1 + 4 * g) * r**2
            + 3 * b * (2 - 7 * g + 6 * g**2) * r ** (2 * g) * s**2
            - 5 * (-1 + 2 * g) * r ** (1 + 2 * g) * s**2
        )
    )


def mp_c5(p, r):
    a, b, s, g = _c(p.alpha), _c(p.beta), _c(p.sigma), _c(p.gamma)
    r = _c(r)
    return -(mp.mpf(1) / 120) * g * r ** (2 * (g - 2)) * s**2 * (
        2 * a**2 * (-1 + 2 * g) * r**2
        + 4 * b**2 * g * r**4
        - 8 * r ** (3 + 2 * g) * s**2
        + 2 * b * (1 - 5 * g + 6 * g**2) * r ** (2 * (1 + g)) * s**2
        + s**4 * r ** (4 * g) * (2 * g - 1) ** 2 * (4 * g - 3)
        + 2 * a * r * (b * (-1 + 4 * g) * r**2 + (2 * g - 1) * (3 * g - 2) * r ** (2 * g) * s**2)
    )


def mp_c6(p, r):
    a, b, s, g = _c(p.alpha), _c(p.beta), _c(p.sigma), _c(p.gamma)
    r = _c(r)
    d1 = mp.diff(lambda x: mp_c5(p, x), r)
    d2 = mp.diff(lambda x: mp_c5(p, x), r, 2)
    return (mp.mpf(1) / 6) * (mp.mpf(1) / 2 * s**2 * r ** (2 * g) * d2 + (a + b * r) * d1 - mp_k5(p, r))


def mp_improved(p, tau, r):
    tau = _c(tau)
    return mp_cw(p, tau, r) - mp_c5(p, r) * tau**5 - mp_c6(p, r) * tau**6


def mp_log_pde_residual(f, p, tau, r):
    """-f_tau + (1/2) s^2 r^{2g} [f_r^2 + f_rr] + (a + b r) f_r - r."""
    a, b, s, g = _c(p.alpha), _c(p.beta), _c(p.sigma), _c(p.gamma)
    tau, r = _c(tau), _c(r)
    f_tau = mp.diff(lambda t: f(p, t, r), tau)
    f_r = mp.diff(lambda x: f(p, tau, x), r)
    f_rr = mp.diff(lambda x: f(p, tau, x), r, 2)
    return -f_tau + mp.mpf(1) / 2 * s**2 * r ** (2 * g) * (f_r**2 + f_rr) + (a + b * r) * f_r - r
