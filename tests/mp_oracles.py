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
