"""High-precision oracles for the test suite (mpmath).

Slow, and carried far below double precision, so a double-precision result
can be judged against them at its own rounding level.  Nothing here calls
the package.
"""

import itertools

import mpmath as mp

_DPS = 40
_TERM_TOL = mp.mpf("1e-35")


def theta_mp(t, B, a, b, specs):
    """theta[a,b](t; B) and its directional derivatives by a lattice sum in
    ``_DPS``-digit arithmetic.

    The sum runs over the integer points n shell by shell (shell r holds
    max |n_i| = r) and stops after the first shell past the Gaussian's
    centre whose largest term, derivative factors included, is below
    ``_TERM_TOL`` times the largest term so far.  ``specs`` holds
    derivative specs as in ``specfun.riemann_theta_bundle`` (tuples of
    direction vectors).  Returns, per spec, the value as a Python complex
    and the sum of the term magnitudes (the scale of its rounding).
    """
    with mp.workdps(_DPS):
        g = len(t)
        t = [mp.mpc(complex(x)) for x in t]
        B = [[mp.mpc(complex(B[i][j])) for j in range(g)] for i in range(g)]
        a = [mp.mpf(float(x)) for x in a]
        b = [mp.mpf(float(x)) for x in b]
        # each spec as indices into its distinct directions
        units = []
        for u in (tuple(complex(x) for x in u) for spec in specs for u in spec):
            if u not in units:
                units.append(u)
        specs = [[units.index(tuple(complex(x) for x in u)) for u in spec]
                 for spec in specs]
        units = [[mp.mpc(x) for x in u] for u in units]
        # the Gaussian's centre in n: -Y^{-1} Im t, in sup norm
        Y = mp.matrix([[B[i][j].imag for j in range(g)] for i in range(g)])
        centre = mp.lu_solve(Y, mp.matrix([x.imag for x in t]))
        past = int(mp.ceil(max(abs(c) for c in centre))) + 1
        vals = [mp.mpc(0)] * len(specs)
        mags = [mp.mpf(0)] * len(specs)
        top = mp.mpf(0)
        r = 0
        while True:
            shell_top = mp.mpf(0)
            for n in itertools.product(range(-r, r + 1), repeat=g):
                if max(abs(k) for k in n) != r:
                    continue
                q = [n[i] + a[i] for i in range(g)]
                quad = mp.fsum(q[i] * B[i][j] * q[j]
                               for i in range(g) for j in range(g))
                lin = mp.fsum(q[i] * (t[i] + b[i]) for i in range(g))
                term = mp.exp(1j * mp.pi * quad + 2j * mp.pi * lin)
                factors = [2j * mp.pi * mp.fsum(q[i] * u[i] for i in range(g))
                           for u in units]
                for k, spec in enumerate(specs):
                    x = term
                    for i in spec:
                        x *= factors[i]
                    vals[k] += x
                    mags[k] += abs(x)
                    shell_top = max(shell_top, abs(x))
            top = max(top, shell_top)
            if r >= past and shell_top < _TERM_TOL * top:
                break
            r += 1
        return [complex(v) for v in vals], [float(m) for m in mags]


# ---------------------------------------------------------------------------
# model-cone mode sum
# ---------------------------------------------------------------------------

_CONE_DPS = 30


def _on_imag_axis(lam):
    return abs(lam.real) < 1e-14 * abs(lam)


def cone_eps_mp(k, R, lam, n_modes):
    """eps_n = -log P_n for n = 1..n_modes, with P = 2 nu I_nu(y) K_nu(y),
    y = t R, on the imaginary axis lambda = i t and
    P = pi nu J_nu(x) (J_nu(x) + i Y_nu(x)) / (-i), x = lambda R, off it,
    nu = n / (k R) the double the package forms.  ``_CONE_DPS`` digits;
    mpmath's Y_n at integer n and small real x needs 20 more.  Returns
    Python complex values."""
    lam = complex(lam)
    axis = _on_imag_axis(lam)
    out = []
    for n in range(1, n_modes + 1):
        nu_d = n / (k * R)
        dps = _CONE_DPS + (20 if not axis and nu_d == int(nu_d) else 0)
        with mp.workdps(dps):
            nu = mp.mpf(nu_d)
            if axis:
                y = mp.mpf(lam.imag * R)
                P = 2 * nu * mp.besseli(nu, y) * mp.besselk(nu, y)
            else:
                x = mp.mpc(lam * R)
                J = mp.besselj(nu, x)
                P = mp.pi * nu * J * (J + 1j * mp.bessely(nu, x)) / (-1j)
            out.append(complex(-mp.log(P)))
    return out


def cone_log_det_mp(k, R, lam, eps, orders=16):
    """log det N(lambda) = log mu_0 + log(pi k R^2) + 2 sum_{n>=1} eps_n
    from the values ``eps`` of modes 1..M (``cone_eps_mp``) and, past M,
    the asymptotic series of -log S_nu(s) in u = 1/nu^2,
    S_nu(s) = sum_k C(2k, k) (s u / 4)^k / prod_{j<=k} (1 - j^2 u),
    s = (lambda R)^2, summed over n > M through mpmath's Hurwitz zeta to
    u^orders.  The x^{2 nu} parts it leaves out are below 1e-40 once
    nu_{M+1} >= 20 and |lambda R| <= 0.15."""
    lam = complex(lam)
    M = len(eps)
    with mp.workdps(_CONE_DPS):
        if _on_imag_axis(lam):
            y = mp.mpf(lam.imag * R)
            s = -y * y
            mu0 = 1 / (R * mp.besseli(0, y) * mp.besselk(0, y))
        else:
            x = mp.mpc(lam * R)
            s = x * x
            J = mp.besselj(0, x)
            mu0 = -2j / (mp.pi * R * J * (J + 1j * mp.bessely(0, x)))
        # S as a power series in u, coefficients exact in s
        S = [mp.mpf(0)] * (orders + 1)
        g = [mp.mpf(1)] + [mp.mpf(0)] * orders
        c = mp.mpf(1)
        for kk in range(orders + 1):
            if kk:
                g = [mp.mpf(0)] + g[:-1]
                for q in range(1, orders + 1):
                    g[q] += kk * kk * g[q - 1]
                c *= s * (2 * kk - 1) / (2 * kk)
            for q in range(orders + 1):
                S[q] += c * g[q]
        L = [mp.mpf(0)] * (orders + 1)
        for q in range(1, orders + 1):
            L[q] = S[q] - mp.fsum(i * L[i] * S[q - i] for i in range(1, q)) / q
        kR = mp.mpf(k) * mp.mpf(R)
        tail = -mp.fsum(L[q] * kR ** (2 * q) * mp.zeta(2 * q, M + 1)
                        for q in range(1, orders + 1))
        total = mp.log(mu0) + mp.log(mp.pi * k * mp.mpf(R) ** 2) \
            + 2 * (mp.fsum(mp.mpc(e) for e in eps) + tail)
        return complex(total)
