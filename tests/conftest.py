import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from curve_inputs import load_fixture  # noqa: E402


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


@pytest.fixture(scope="session")
def fixture_genus2():
    """(input data, curve) of ``fixtures/curve_genus2.json``."""
    from hurwitztau import HyperellipticCurve

    data = load_fixture("curve_genus2")
    return data, HyperellipticCurve([complex(*p) for p in data["branch_points"]])
