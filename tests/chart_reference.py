"""Per-node reference for the batched chart-node data of
``HyperellipticCurve.chart_nodes``: one scalar chart path and one scalar
tracking chain per node, in scalar arithmetic (Python complex products, a
(g,) v_poly row per node).  A plain module, shared by the unit and property
tests."""

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
        # chart point: sqrt_h tracked along 24 evenly spaced z from e_m
        z = zm + x ** 2
        chain_z = zm + np.linspace(0.0, 1.0, 24) * (z - zm)
        sq = _tracked_sqrt(np.prod(chain_z[:, None] - others, axis=1),
                           seed=bd.sqrt_h)
        y = x * complex(sq[-1])
        v.append(cur.v_poly(z) / y * (2.0 * x))
    return np.array(abel), np.array(v)
