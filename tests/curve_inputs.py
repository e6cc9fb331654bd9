"""Curve inputs shared by the test modules: the JSON fixtures and random
admissible branch configurations.  A plain module, not ``conftest``, so
that test modules can import it by a name no other test directory uses."""

import json
import os

import numpy as np
from hypothesis import strategies as st


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


@st.composite
def admissible_branch_points(draw, g):
    """2g + 2 branch points with increasing real parts 0.35-1.5 apart and
    imaginary parts in [-0.25, 0.25]: no branch point comes near the segment
    of another pair, and the consecutive-pair marking is symplectic."""
    n = 2 * g + 2
    gaps = draw(st.lists(st.floats(0.35, 1.5), min_size=n - 1, max_size=n - 1))
    imag = draw(st.lists(st.floats(-0.25, 0.25), min_size=n, max_size=n))
    re = np.concatenate(([0.0], np.cumsum(gaps)))
    return (re - re.mean()) + 1j * np.array(imag)
