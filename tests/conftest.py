import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def genus1_curve():
    from hurwitztau import HyperellipticCurve

    return HyperellipticCurve([-1.9, -0.85, 0.6 + 0.25j, 1.7])


@pytest.fixture(scope="session")
def genus2_curve():
    from hurwitztau import HyperellipticCurve

    return HyperellipticCurve([-2.1, -1.0, -0.2 + 0.3j, 0.7, 1.5 + 0.1j, 2.4])


def load_fixture(name):
    """The JSON input ``fixtures/<name>.json``."""
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        name + ".json")
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def fixture_genus2():
    """(input data, curve) of ``fixtures/curve_genus2.json``."""
    from hurwitztau import HyperellipticCurve

    data = load_fixture("curve_genus2")
    return data, HyperellipticCurve([complex(*p) for p in data["branch_points"]])


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
