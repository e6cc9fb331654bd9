"""The one periodic trapezoid rule with a node-doubling certificate."""

import numpy as np


def trapezoid_doubling(fun, nodes=32, max_doublings=5, target=1e-10):
    """Trapezoid rule (2 pi / N) sum_k f(theta_k), theta_k = 2 pi k / N, for a
    2 pi-periodic integrand, with node doubling.

    ``fun`` maps an array of angles to integrand values, one row per angle
    (scalars or g-vectors).  The 2N rule's even nodes are the N rule's nodes
    (bit-identical), so each doubling evaluates ``fun`` only at the N new odd
    nodes.  Doubling stops once the relative change between consecutive rules
    (the certificate) is below ``target``, else after ``max_doublings`` (with
    ``target=None`` always after ``max_doublings``).  The certificate uses the
    builtin ``abs``, which rounds scalars as the circle callers always have.
    Returns (value, node count, certificate)."""
    N = nodes
    vals = np.asarray(fun(np.arange(N) * 2 * np.pi / N), dtype=complex)
    prev = np.mean(vals, axis=0) * 2 * np.pi
    for _ in range(max_doublings):
        N *= 2
        odd = np.asarray(fun((np.arange(N) * 2 * np.pi / N)[1::2]),
                         dtype=complex)
        vals = np.stack([vals, odd], axis=1).reshape((N,) + vals.shape[1:])
        cur = np.mean(vals, axis=0) * 2 * np.pi
        cert = float(np.max(abs(cur - prev)) / max(np.max(abs(cur)), 1e-300))
        prev = cur
        if target is not None and cert < target:
            break
    return cur, N, cert
