"""Seeded input generator for the benchmark workloads.

Generation rule (fixed before any measurement; ``baseline.json`` records it):

* One NumPy ``default_rng([seed, workload code])`` stream per workload.
  Inputs are drawn from it in order and every input consumes a fixed
  sequence of draws, so input ``i`` depends only on the seed and ``i``, not
  on how many inputs a run ends up using.
* Curves are jittered copies of ``fixtures/curve_genus1.json`` and
  ``fixtures/curve_genus2.json``: every branch point moves by
  ``JITTER_REL`` times its nearest-neighbour distance times a standard
  complex normal.
* ``identity_sweep``: the genus-2 geometry; branch indices come in blocks of
  five, each block a seeded permutation of ``IDENTITY_INDICES`` (0..5
  without 3, see below).
* ``moduli_sweep``: a genus-1 then a genus-2 copy, each with a uniform
  seeded branch index.
* Cones come in blocks of 32, in seeded order: every k in 1..4 with R
  log-uniform in each of the eight equal log-scale bins of the band
  ``R_BAND[k]`` (see below).  ``cone_spectra`` adds a spectral parameter
  magnitude t = 10^-u, u uniform in [1, 4].
* ``cli_cold``: the commands of ``CLI_COMMANDS`` in that order, cycling;
  each command gets the next seeded input of its own kind.

No timed op may fail, so the inputs leave out the two defects known at the
commit that added the benchmark.  ``probe_inputs`` gives fixed, seed-free
inputs on which the worker measures both defects after every run:

* the genus-2 clue check at branch index 3 lies at about 0.1x-1.5x its
  tolerance on jittered copies of the fixture: ``CLUE_PROBE_CURVES``
  copies, the first the fixture itself;
* ``spectral_shift_asymptotic`` misses its leading coefficient 1 +- 0.1
  outside a narrow band of R for each k (``R_BAND`` keeps the ratio to the
  tolerance below 0.5): ``SHIFT_PROBE`` cones, every k in 1..4 at eight
  log-spaced R in [0.5, 2].
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("cli_cold", "identity_sweep", "moduli_sweep", "cone_spectra")
JITTER_REL = 0.05
R_BINS = 8
IDENTITY_INDICES = (0, 1, 2, 4, 5)
R_BAND = {1: (1.12, 1.47), 2: (0.92, 1.06), 3: (0.75, 0.83), 4: (0.63, 0.69)}
CLUE_DEFECT_INDEX = 3
CLUE_PROBE_CURVES = 2
SHIFT_PROBE = tuple((k, float(R)) for k in range(1, 5)
                    for R in np.geomspace(0.5, 2.0, R_BINS))

CLI_COMMANDS = (
    ("cover", "validate"),
    ("tau", "poly"),
    ("tau", "rational3"),
    ("tau", "genus1"),
    ("tau", "genus2"),
    ("cone", "det-n0"),
    ("cone", "dtn"),
    ("cone", "mu0-fit"),
    ("cone", "shift-fit"),
)


def _load_points(fixtures, name):
    with open(os.path.join(fixtures, name)) as fh:
        data = json.load(fh)
    pts = np.array([complex(*p) for p in data["branch_points"]])
    return pts, data


def _cnormal(rng, size=None):
    return (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.sqrt(2.0)


def jitter(points, rng):
    """Jittered copy of a branch-point set (see the module docstring)."""
    d = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(d, np.inf)
    return points + JITTER_REL * d.min(axis=1) * _cnormal(rng, len(points))


def _pairs(z):
    return [[float(c.real), float(c.imag)] for c in np.atleast_1d(z)]


def _cone_block(rng):
    """32 cones: every k in 1..4 with R log-uniform in each eighth of
    ``R_BAND[k]`` on a log scale, in seeded order (stratified, so that every
    block has the same mix)."""
    cells = [(k, b) for k in range(1, 5) for b in range(R_BINS)]
    order = rng.permutation(len(cells))
    u = rng.uniform(size=len(cells))
    out = []
    for j, i in enumerate(order):
        k, b = cells[i]
        lo, hi = R_BAND[k]
        out.append({"k": k, "R": float(lo * (hi / lo) ** ((b + u[j]) / R_BINS))})
    return out


def _cover(rng):
    """Transitive cover with monodromy product equal to the identity.

    sigma_1 is an n-cycle (transitivity); the last finite monodromy closes
    the product sigma_inf sigma_1 ... sigma_M = id.  The genus follows from
    Riemann-Hurwitz and is recorded for the gate.
    """
    n = int(rng.integers(2, 6))
    n_finite = int(rng.integers(2, 6))
    perms = [rng.permutation(n)]                      # sigma_infinity
    cyc = rng.permutation(n)
    ncycle = np.empty(n, dtype=int)
    ncycle[cyc] = np.roll(cyc, -1)
    perms.append(ncycle)
    for _ in range(n_finite - 2):
        perms.append(rng.permutation(n))
    prod = np.arange(n)
    for p in perms:                                   # rightmost acts first
        prod = prod[p]
    perms.append(np.argsort(prod))
    values = rng.uniform(-3.0, 3.0, size=n_finite) \
        + 1j * rng.uniform(-3.0, 3.0, size=n_finite)

    def cycles(p):
        seen, out = set(), []
        for s in range(n):
            if s in seen or p[s] == s:
                continue
            c, x = [], s
            while x not in seen:
                seen.add(x)
                c.append(int(x) + 1)
                x = p[x]
            out.append(c)
        return out

    def n_cycles(p):
        return n - sum(len(c) - 1 for c in cycles(p))

    chi = sum(n - n_cycles(p) for p in perms[1:]) - n - n_cycles(perms[0])
    return {
        "data": {
            "degree": n,
            "sigma_infinity": cycles(perms[0]),
            "branches": [{"value": [float(w.real), float(w.imag)],
                          "sigma": cycles(p)}
                         for w, p in zip(values, perms[1:])],
            "base_point": [9.0, 0.0],
        },
        "expect": {"genus": chi // 2 + 1},
    }


class InputStream:
    """Deterministic, prefix-stable input sequence of one workload."""

    def __init__(self, workload, seed, fixtures):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
        self.g1, _ = _load_points(fixtures, "curve_genus1.json")
        self.g2, fix2 = _load_points(fixtures, "curve_genus2.json")
        self.zeta = fix2.get("zeta", [0.9, 1.7])
        self.count = 0
        self._block = []
        self._cones = []

    def __iter__(self):
        return self

    def __next__(self):
        item = getattr(self, "_next_" + self.workload)()
        item["index"] = self.count
        self.count += 1
        return item

    def take(self, n):
        return [next(self) for _ in range(n)]

    def _cone(self):
        if not self._cones:
            self._cones = _cone_block(self.rng)
        return self._cones.pop()

    def _curve(self, base, n_index):
        pts = jitter(base, self.rng)
        return {"branch_points": _pairs(pts),
                "branch_index": int(self.rng.integers(n_index))}

    def _next_identity_sweep(self):
        if not self._block:
            self._block = [int(m) for m in self.rng.permutation(IDENTITY_INDICES)]
        pts = jitter(self.g2, self.rng)
        return {"branch_points": _pairs(pts), "branch_index": self._block.pop(),
                "zeta": self.zeta}

    def _next_moduli_sweep(self):
        c1 = self._curve(self.g1, len(self.g1))
        c2 = self._curve(self.g2, len(self.g2))
        c2["zeta"] = self.zeta
        return {"curves": [c1, c2]}

    def _next_cone_spectra(self):
        cone = self._cone()
        cone["t"] = float(10.0 ** -self.rng.uniform(1.0, 4.0))
        return cone

    def _next_cli_cold(self):
        group, name = CLI_COMMANDS[self.count % len(CLI_COMMANDS)]
        item = {"command": [group, name]}
        if group == "cone":
            item.update(self._cone())
        elif name == "validate":
            item.update(_cover(self.rng))
        elif name == "poly":
            deg = int(self.rng.integers(3, 6))
            coeffs = np.append(_cnormal(self.rng, deg), 1.0)
            item["data"] = {"coefficients": _pairs(coeffs)}
        elif name == "rational3":
            abc = 1.0 + 2.0 * self.rng.uniform(size=3) \
                * np.exp(2j * np.pi * self.rng.uniform(size=3))
            item["data"] = dict(zip("abc", _pairs(abc)))
        else:
            base = self.g1 if name == "genus1" else self.g2
            item["data"] = {"branch_points": _pairs(jitter(base, self.rng))}
        return item


def probe_inputs(fixtures):
    """Fixed inputs that measure the known defects (see the module
    docstring): {"clue": curves at branch index 3, "shift": cones}."""
    g2, _ = _load_points(fixtures, "curve_genus2.json")
    rng = np.random.default_rng([0, len(WORKLOADS)])
    curves = [g2] + [jitter(g2, rng) for _ in range(CLUE_PROBE_CURVES - 1)]
    return {"clue": [{"branch_points": _pairs(c), "branch_index": CLUE_DEFECT_INDEX}
                     for c in curves],
            "shift": [{"k": k, "R": R} for k, R in SHIFT_PROBE]}


def write_inputs(path, items):
    """Record the generated inputs (one JSON document) for inspection."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(items, fh, indent=1)
