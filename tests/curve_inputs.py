"""Curve inputs shared by the test modules: the JSON fixtures and random
admissible branch configurations.  A plain module, not ``conftest``, so
that test modules can import it by a name no other test directory uses."""

import json
import os

import numpy as np


def load_fixture(name):
    """The JSON input ``fixtures/<name>.json``."""
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        name + ".json")
    with open(path) as fh:
        return json.load(fh)


def random_branch_points(rng, count, spread=2.0, min_gap=0.35, imag=0.25):
    """Random admissible branch configuration: sorted by real part with a
    moderate imaginary spread, so the consecutive-pair homology marking is
    symplectic and the pair contours are well separated."""
    while True:
        pts = rng.uniform(-spread, spread, count) \
            + 1j * rng.uniform(-imag, imag, count)
        pts = pts[np.argsort(pts.real)]
        gaps = np.abs(np.subtract.outer(pts, pts))
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() > min_gap and np.min(np.diff(pts.real)) > 0.3:
            return pts
