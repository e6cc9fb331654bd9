"""Per-node references for the chart layer of ``HyperellipticCurve``: for the
batched chart rows of ``_chart_rows``, one scalar chart path per node, in
scalar arithmetic (Python complex products, a (g,) v_poly row per node),
with v read from the root that the path tracks to the node; for the (z, y)
of ``_chart_points``, sqrt_h tracked along each node's ray from the branch
point.  A plain module, shared by the unit and property tests."""

import numpy as np

from hurwitztau.curves import _tracked_sqrt


def chart_rows_per_node(cur, m, xs):
    """(abel, v) rows, each of shape (len(xs), g), at the chart values xs
    near branch point m, computed node by node."""
    bd = cur.branch_data(m)
    zm, others = cur.e[m], np.delete(cur.e, m)
    xg, wg = np.polynomial.legendre.leggauss(24)
    chain_s = np.concatenate(([0.0], (xg + 1) / 2, [1.0]))

    def h(x):
        return np.prod((zm + x ** 2)[..., None] - others, axis=-1)

    abel, v = [], []
    for x in map(complex, xs):
        # chart path 0 -> x on one panel of 24 Gauss-Legendre nodes
        chain = x * chain_s
        root = _tracked_sqrt(h(chain), seed=bd.sqrt_h)
        vals = 2.0 * cur.v_poly(zm + chain[1:-1] ** 2) / root[1:-1, None]
        vec = np.einsum("sk,skg,s->g", wg[None], vals[None], [x]) / 2
        abel.append(bd.abel + vec)
        # v = 2 v_poly(z) / sqrt_h at the path's end, z = e_m + x^2
        v.append(2.0 * cur.v_poly(zm + x ** 2) / root[-1])
    return np.array(abel), np.array(v)


def chart_points_tracked(cur, m, xs, steps=24):
    """(z, y) at the chart values xs near branch point m: y = x sqrt_h(z), with
    sqrt_h tracked from its value at e_m along ``steps`` evenly spaced z on
    each node's ray."""
    zm, others = cur.e[m], np.delete(cur.e, m)
    z = zm + xs * xs
    chain = zm + np.linspace(0.0, 1.0, steps) * (z - zm)[:, None]
    root = _tracked_sqrt(np.prod(chain[..., None] - others, axis=-1),
                         seed=cur.branch_data(m).sqrt_h)
    return z, xs * root[:, -1]
