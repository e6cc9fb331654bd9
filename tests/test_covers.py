import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hurwitztau import covers
from hurwitztau.covers import CoverSpec, Permutation
from hurwitztau.errors import (
    DuplicateCriticalValue,
    NonTransitive,
    ProductNotIdentity,
)
from oracles import cover_to_json


def perm(cycles, n):
    return Permutation.from_cycles(cycles, n)


def test_single_transposition_rejected():
    # one finite transposition with trivial monodromy at infinity cannot
    # close up: a second branch point is required (transposition parity)
    spec = CoverSpec(2, Permutation.identity(2), (perm([[1, 2]], 2),), (0.0,),
                     base_point=5.0)
    with pytest.raises(ProductNotIdentity):
        covers.validate_cover(spec)


def test_degree2_one_finite_branch_with_branched_infinity():
    # sigma_0 = (12) plus one finite (12): the square map, a valid cover
    spec = CoverSpec(2, perm([[1, 2]], 2), (perm([[1, 2]], 2),), (0.0,),
                     base_point=5.0)
    rep = covers.validate_cover(spec)
    assert rep.genus == 0
    assert rep.ends.multiplicities == (2,)
    assert len(rep.conical_points) == 1
    assert rep.conical_points[0].cone_angle_over_2pi == 2


def test_degree2_torus_cover():
    sig = perm([[1, 2]], 2)
    spec = CoverSpec(2, Permutation.identity(2), (sig,) * 4,
                     (0.0, 1.0, 2.0, 1j), base_point=5.0)
    rep = covers.validate_cover(spec)
    assert rep.genus == 1
    assert rep.ends.multiplicities == (1, 1)   # two Euclidean ends
    assert len(rep.conical_points) == 4


def test_degree3_product_identity_by_composition():
    sig0 = perm([[1, 2, 3]], 3)
    fin = [perm([[1, 2]], 3), perm([[2, 3]], 3), perm([[1, 2]], 3),
           perm([[2, 3]], 3)]
    spec = CoverSpec(3, sig0, tuple(fin), (0.0, 1.0, 2.0, 3.0), base_point=9.0)
    rep = covers.validate_cover(spec)
    assert rep.transitive and rep.product_identity


def test_nontransitive_rejected():
    sig = perm([[1, 2]], 4)
    spec = CoverSpec(4, Permutation.identity(4), (sig, sig), (0.0, 1.0),
                     base_point=9.0)
    with pytest.raises(NonTransitive):
        covers.validate_cover(spec)


def test_duplicate_critical_value_rejected():
    sig = perm([[1, 2]], 2)
    spec = CoverSpec(2, Permutation.identity(2), (sig, sig), (1.0, 1.0),
                     base_point=9.0)
    with pytest.raises(DuplicateCriticalValue):
        covers.validate_cover(spec)


def test_riemann_hurwitz_values():
    # four simple branch points over two Euclidean ends: genus 1
    sig = perm([[1, 2]], 2)
    torus = CoverSpec(2, Permutation.identity(2), (sig,) * 4,
                      (0.0, 1.0, 2.0, 3.0), base_point=9.0)
    assert covers.genus_from_riemann_hurwitz(torus) == 1

    # monic polynomial of degree N: N-1 simple critical points, one end of
    # order N: genus 0 (sigma_0 inverts the finite product)
    N = 5
    sigN = perm([[1, 5, 4, 3, 2]], N)
    fins = tuple(perm([[i + 1, i + 2]], N) for i in range(N - 1))
    poly = CoverSpec(N, sigN, fins, tuple(map(complex, range(N - 1))),
                     base_point=99.0)
    assert covers.genus_from_riemann_hurwitz(poly) == 0
    assert covers.validate_cover(poly).ends.multiplicities == (N,)

    # three-simple-pole family: degree 3, four simple branch points
    ex2 = CoverSpec(
        3, Permutation.identity(3),
        (perm([[1, 2]], 3), perm([[1, 2]], 3), perm([[2, 3]], 3),
         perm([[2, 3]], 3)),
        (0.0, 1.0, 2.0, 3.0), base_point=9.0)
    assert covers.genus_from_riemann_hurwitz(ex2) == 0
    rep = covers.validate_cover(ex2)
    assert rep.ends.multiplicities == (1, 1, 1)


def test_json_round_trip():
    spec = CoverSpec(3, perm([[1, 2, 3]], 3),
                     (perm([[1, 2]], 3), perm([[1, 3]], 3)),
                     (0.0, 1.0 + 2.0j), base_point=9.0)
    d = cover_to_json(spec)
    spec2 = covers.cover_from_json(d)
    assert spec2.degree == spec.degree
    assert spec2.sigma_infinity == spec.sigma_infinity
    assert spec2.finite_monodromies == spec.finite_monodromies
    assert spec2.critical_values == spec.critical_values


def _random_identity_product_tuple(rng, n, count):
    """Random transitive permutations whose composed product is trivial."""
    while True:
        perms = []
        for _ in range(count - 1):
            images = rng.permutation(n)
            perms.append(Permutation(tuple(int(x) for x in images)))
        total = Permutation.identity(n)
        for p in perms:
            total = total * p
        # choose the closing permutation so the product is the identity:
        # sigma_0 o p_1 o ... o p_k = id  with sigma_0 applied last
        inv = [0] * n
        for i in range(n):
            inv[total(i)] = i
        sigma0 = Permutation(tuple(inv))
        all_perms = [sigma0] + perms
        spec = CoverSpec(n, sigma0, tuple(perms),
                         tuple(complex(j) for j in range(count - 1)),
                         base_point=99.0)
        try:
            return spec
        except Exception:
            continue


def test_genus_integer_nonnegative_property(rng):
    # random transitive tuples with identity product yield integer genus >= 0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(2, 5))
        spec = _random_identity_product_tuple(rng, n, count)
        try:
            rep = covers.validate_cover(spec)
        except NonTransitive:
            continue
        assert rep.genus >= 0
        # conical point count matches nontrivial cycles, each angle > 2 pi
        n_cycles = sum(
            len(p.cycles(include_fixed=False)) for p in spec.finite_monodromies
        )
        assert len(rep.conical_points) == n_cycles
        assert all(cp.cone_angle_over_2pi >= 2 for cp in rep.conical_points)
        # the end profile covers every sheet
        assert rep.ends.degree == n
        checked += 1
    assert checked > 50


@st.composite
def transitive_covers(draw):
    """A degree-n cover with 2..5 finite critical values: sigma_1 an n-cycle
    (so the group is transitive), the other finite monodromies random, and
    sigma_infinity the inverse of their product, so that sigma_inf o
    sigma_1 o ... o sigma_M = id."""
    n = draw(st.integers(2, 6))
    count = draw(st.integers(2, 5))
    order = draw(st.permutations(range(n)))
    cycle = [0] * n
    for i, x in enumerate(order):
        cycle[x] = order[(i + 1) % n]
    finite = [Permutation(cycle)] + [
        Permutation(draw(st.permutations(range(n)))) for _ in range(count - 1)]
    total = Permutation.identity(n)
    for p in finite:
        total = total * p
    inverse = [0] * n
    for i in range(n):
        inverse[total(i)] = i
    values = tuple(complex(j, draw(st.floats(-3.0, 3.0))) for j in range(count))
    return CoverSpec(n, Permutation(inverse), tuple(finite), values,
                     base_point=99.0 + 0.5j)


def _cycle_count(images):
    """Number of cycles (fixed points included) of the image list."""
    seen, count = set(), 0
    for start in range(len(images)):
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = images[x]
    return count


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(spec=transitive_covers())
def test_random_transitive_cover_genus_and_json_round_trip(spec):
    # Riemann-Hurwitz counted here from the cycles of every monodromy,
    # sigma_infinity included: 2g - 2 = -2N + sum (N - #cycles)
    n = spec.degree
    perms = [spec.sigma_infinity, *spec.finite_monodromies]
    chi = -2 * n + sum(n - _cycle_count(p.images) for p in perms)
    assert chi % 2 == 0
    assert covers.validate_cover(spec).genus == chi // 2 + 1
    # through the JSON schema, as text, and back: equal permutations
    back = covers.cover_from_json(json.dumps(cover_to_json(spec)))
    assert back.degree == n
    assert back.sigma_infinity == spec.sigma_infinity
    assert back.finite_monodromies == spec.finite_monodromies
    assert back.critical_values == spec.critical_values
    assert back.base_point == spec.base_point


def test_degree_cap_is_checked_before_any_permutation(monkeypatch):
    def built(*args):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(Permutation, "__init__", built)
    monkeypatch.setattr(Permutation, "from_cycles", built)
    for degree in (covers.MAX_DEGREE + 1, 10 ** 18):
        with pytest.raises(ValueError, match="integer degree in 1..10000"):
            covers.cover_from_json({"degree": degree, "sigma_infinity": [],
                                    "branches": []})
