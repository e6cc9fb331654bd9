"""Hurwitz cover combinatorics.

Branched covers of the sphere presented by permutation monodromies: one
permutation sigma_0 for the loop around infinity and one permutation per
distinct finite critical value.  Validation, Riemann-Hurwitz genus, cone
angles and end profiles.

Conventions
-----------
* Permutations act on {1..N}; JSON serialization uses 1-indexed disjoint
  cycle lists, identity written as [].
* The product-identity check composes sigma_0 o sigma_1 o ... o sigma_M'
  with the rightmost factor acting first; the listed order of the finite
  monodromies is part of the input contract (it encodes the cut system).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import (
    CoverDataError,
    DuplicateCriticalValue,
    NegativeGenus,
    NonIntegerGenus,
    NonTransitive,
    ProductNotIdentity,
)

__all__ = [
    "Permutation",
    "CoverSpec",
    "ConicalPoint",
    "EndProfile",
    "CoverReport",
    "validate_cover",
    "genus_from_riemann_hurwitz",
    "cover_from_json",
]


class Permutation:
    """Permutation of {1..N} stored as a 0-indexed image tuple."""

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise CoverDataError(f"not a permutation of 0..{len(images)-1}: {images}")
        self.images = images
        self.n = len(images)

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, cycles, n):
        """Build from 1-indexed disjoint cycles, e.g. [[1,2],[3,4,5]]."""
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            cyc = [int(c) for c in cyc]
            for c in cyc:
                if not 1 <= c <= n:
                    raise CoverDataError(f"cycle entry {c} outside 1..{n}")
                if c in seen:
                    raise CoverDataError(f"symbol {c} repeated across cycles")
                seen.add(c)
            for i, c in enumerate(cyc):
                images[c - 1] = cyc[(i + 1) % len(cyc)] - 1
        return cls(tuple(images))

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        """self o other: other acts first."""
        if self.n != other.n:
            raise CoverDataError("degree mismatch in permutation product")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    @property
    def is_identity(self):
        return self.images == tuple(range(self.n))

    def cycles(self, include_fixed=True):
        """Disjoint cycles as 1-indexed tuples, longest first."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if include_fixed or len(cyc) > 1:
                out.append(tuple(c + 1 for c in cyc))
        out.sort(key=len, reverse=True)
        return out

    def cycle_type(self):
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __repr__(self):
        cyc = self.cycles(include_fixed=False)
        return "Perm(id)" if not cyc else "Perm(" + "".join(str(list(c)) for c in cyc) + ")"


@dataclass(frozen=True)
class ConicalPoint:
    """Conical singularity over a finite critical value."""

    critical_value: complex
    multiplicity: int          # zero order of df; cone angle is 2 pi (mult + 1)
    cycle: tuple

    def __post_init__(self):
        if self.multiplicity < 1:
            raise CoverDataError("conical point needs multiplicity >= 1")

    @property
    def cone_angle_over_2pi(self):
        return self.multiplicity + 1


@dataclass(frozen=True)
class EndProfile:
    """Pole multiplicities k_j (cycle lengths of sigma_0); end angle 2 pi k_j."""

    multiplicities: tuple

    def __post_init__(self):
        if any(k < 1 for k in self.multiplicities):
            raise CoverDataError("end multiplicities must be positive")

    @property
    def degree(self):
        return sum(self.multiplicities)


@dataclass(frozen=True)
class CoverSpec:
    """Degree-N cover of the sphere given by permutation monodromies.

    finite_monodromies[i] is the permutation around critical_values[i]; the
    listed order fixes the cut scheme used by the product-identity check.
    """

    degree: int
    sigma_infinity: Permutation
    finite_monodromies: tuple
    critical_values: tuple
    base_point: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "finite_monodromies", tuple(self.finite_monodromies))
        object.__setattr__(self, "critical_values",
                           tuple(complex(w) for w in self.critical_values))
        if len(self.finite_monodromies) != len(self.critical_values):
            raise CoverDataError("one permutation per finite critical value required")


@dataclass
class CoverReport:
    """Validation summary for a cover spec."""

    transitive: bool
    product_identity: bool
    genus: int
    conical_points: list
    ends: EndProfile
    cycle_structures: list = field(default_factory=list)


def _check_transitive(perms, n):
    if n == 1:
        return True
    adj = [set() for _ in range(n)]
    for p in perms:
        for i in range(n):
            adj[i].add(p(i))
            adj[p(i)].add(i)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def validate_cover(spec: CoverSpec) -> CoverReport:
    """Validate cover data and derive its combinatorial geometry.

    Raises NonTransitive, ProductNotIdentity or DuplicateCriticalValue on
    inconsistent data; otherwise returns the full report.
    """
    n = spec.degree
    perms = [spec.sigma_infinity, *spec.finite_monodromies]
    for p in perms:
        if p.n != n:
            raise CoverDataError(f"permutation degree {p.n} != cover degree {n}")

    vals = spec.critical_values
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] == vals[j]:
                raise DuplicateCriticalValue(f"critical value {vals[i]} repeated")
    if any(complex(spec.base_point) == w for w in vals):
        raise CoverDataError("base point must differ from all critical values")

    if not _check_transitive(perms, n):
        raise NonTransitive("monodromy group is not transitive: cover disconnected")

    prod = Permutation.identity(n)
    for p in perms:
        prod = prod * p   # rightmost acts first: sigma_0 o sigma_1 o ... o sigma_M'
    if not prod.is_identity:
        raise ProductNotIdentity(
            f"monodromy product is {prod!r}, not the identity; "
            "the declared cut order is inconsistent"
        )

    conical = []
    for p, w in zip(spec.finite_monodromies, spec.critical_values):
        for cyc in p.cycles(include_fixed=False):
            conical.append(ConicalPoint(w, len(cyc) - 1, cyc))
    ends = EndProfile(tuple(len(c) for c in spec.sigma_infinity.cycles()))
    g = genus_from_riemann_hurwitz(spec)
    return CoverReport(
        transitive=True,
        product_identity=True,
        genus=g,
        conical_points=conical,
        ends=ends,
        cycle_structures=[p.cycle_type() for p in perms],
    )


def genus_from_riemann_hurwitz(spec: CoverSpec) -> int:
    """Genus from sum(l_m) - sum(k_j + 1) = 2g - 2.

    l_m are the finite-cycle lengths minus one, k_j the sigma_0 cycle lengths.
    """
    ell_sum = 0
    for p in spec.finite_monodromies:
        for cyc in p.cycles(include_fixed=False):
            ell_sum += len(cyc) - 1
    k = [len(c) for c in spec.sigma_infinity.cycles()]
    chi = ell_sum - sum(kk + 1 for kk in k)
    if chi % 2 != 0:
        raise NonIntegerGenus(f"2g-2 = {chi} is odd")
    g = chi // 2 + 1
    if g < 0:
        raise NegativeGenus(f"genus {g} < 0")
    return g


# ---------------------------------------------------------------------------
# JSON schema:
# {degree, sigma_infinity, branches: [{value: [re, im], sigma}], base_point}
# with permutations as 1-indexed disjoint-cycle lists (identity = []).
# ---------------------------------------------------------------------------

MAX_DEGREE = 10_000     # the largest degree cover_from_json accepts


def cover_from_json(text_or_dict) -> CoverSpec:
    """CoverSpec of the schema above.  Malformed data raises ValueError:
    not an object with an integer degree in 1..MAX_DEGREE (checked before
    any permutation is built), branches that are not objects, a point that
    is not [re, im] of finite numbers, or cycles that are not integer lists."""
    d = json.loads(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
    n = d.get("degree") if isinstance(d, dict) else None
    if type(n) is not int or not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"a cover needs an integer degree in 1..{MAX_DEGREE}, "
                         f"got {n!r}")

    def point(v):
        if not (isinstance(v, list) and len(v) == 2 and all(
                type(x) in (int, float) and math.isfinite(x) for x in v)):
            raise ValueError(f"malformed point: {v!r}")
        return complex(*v)

    def perm(v):
        if not (isinstance(v, list) and all(
                isinstance(c, list) and all(type(x) is int for x in c)
                for c in v)):
            raise ValueError(f"malformed cycles: {v!r}")
        return Permutation.from_cycles(v, n)

    branches = d.get("branches", [])
    if not (isinstance(branches, list)
            and all(isinstance(br, dict) for br in branches)):
        raise ValueError(f"malformed branches: {branches!r}")
    return CoverSpec(n, perm(d.get("sigma_infinity", [])),
                     tuple(perm(br["sigma"]) for br in branches),
                     tuple(point(br["value"]) for br in branches),
                     point(d.get("base_point", [0.0, 0.0])))
