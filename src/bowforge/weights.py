"""Exact weights of affine type A.

A weight is stored as gl(n)-style data: an integer profile [mu_1, ..., mu_n],
the level (pairing with the central element c) and an exact rational delta
coefficient (pairing with the degree element d).  The fundamental weight L_i
has profile 1^i 0^(n-i), level 1 and delta 0; the simple root alpha_i for
i != 0 is e_i - e_{i+1} with delta 0, alpha_0 is e_n - e_1 with delta 1, and
the imaginary root delta = alpha_0 + ... + alpha_{n-1} has zero profile and
delta coefficient 1.

Coroot pairings read off directly from the profile:

    <mu, h_i> = mu_i - mu_{i+1}          (1 <= i <= n-1)
    <mu, h_0> = level + mu_n - mu_1

A weight of positive level is dominant iff its profile is weakly decreasing
with mu_n >= mu_1 - level (the fundamental alcove); each affine Weyl orbit of
positive level meets the alcove exactly once.  Simple reflections act by
s_i(mu) = mu - <mu, h_i> alpha_i, so s_0 also moves the delta coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not an exact rational: {x!r}")


def exact_ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple, or ValueError naming `what` if any entry is not an int.

    Floats, bools and Fractions are refused rather than truncated, so no
    inexact input ever enters the exact data.
    """
    try:
        out = tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a sequence of integers, got {values!r}") from None
    for x in out:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers, got {x!r}")
    return out


@dataclass(frozen=True)
class AffineWeight:
    """Level-l weight of gl(n)_aff: integer profile, level, delta coefficient."""

    n: int
    level: int
    profile: tuple[int, ...]
    delta: Fraction = Fraction(0)

    def __post_init__(self):
        exact_ints((self.n, self.level), "rank and level")
        if self.n < 1:
            raise ValueError("rank must be >= 1")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        prof = exact_ints(self.profile, "profile entries")
        if len(prof) != self.n:
            raise ValueError(f"profile length {len(prof)} != rank {self.n}")
        object.__setattr__(self, "profile", prof)
        object.__setattr__(self, "delta", _as_fraction(self.delta))

    # -- basic queries -------------------------------------------------

    @property
    def charge(self) -> int:
        return sum(self.profile)

    def is_dominant(self) -> bool:
        prof = self.profile
        if any(prof[i] < prof[i + 1] for i in range(self.n - 1)):
            return False
        return self.level + prof[-1] - prof[0] >= 0

    # -- arithmetic ----------------------------------------------------

    def _check_rank(self, other: "AffineWeight"):
        if self.n != other.n:
            raise ValueError("rank mismatch")

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        self._check_rank(other)
        return AffineWeight(
            self.n,
            self.level + other.level,
            tuple(a + b for a, b in zip(self.profile, other.profile)),
            self.delta + other.delta,
        )

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        self._check_rank(other)
        lvl = self.level - other.level
        if lvl < 0:
            raise ValueError("subtraction would produce negative level")
        return AffineWeight(
            self.n,
            lvl,
            tuple(a - b for a, b in zip(self.profile, other.profile)),
            self.delta - other.delta,
        )

    def scale(self, k: int) -> "AffineWeight":
        if k < 0 and self.level > 0:
            raise ValueError("negative multiple of a positive-level weight")
        return AffineWeight(self.n, k * self.level, tuple(k * a for a in self.profile), k * self.delta)

    def __repr__(self):
        d = "" if self.delta == 0 else f", delta={self.delta}"
        return f"AffineWeight(n={self.n}, level={self.level}, profile={list(self.profile)}{d})"


@dataclass(frozen=True)
class RootVector:
    """Coefficients c_0..c_{n-1} of a root-lattice element sum c_i alpha_i."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", exact_ints(self.coeffs, "root coefficients"))

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)


# -- constructors ------------------------------------------------------


def fundamental_weight(n: int, i: int) -> AffineWeight:
    """L_i: profile 1^i 0^(n-i), level 1, delta 0."""
    exact_ints((i,), "fundamental weight index")
    if not 0 <= i < n:
        raise ValueError("fundamental weight index out of range")
    return AffineWeight(n, 1, tuple(1 if k < i else 0 for k in range(n)))


def simple_root(n: int, i: int) -> AffineWeight:
    """alpha_i as a level-0 weight; alpha_0 carries delta coefficient 1."""
    if n < 2:
        raise ValueError("simple roots need rank >= 2")
    exact_ints((i,), "root index")
    if not 0 <= i < n:
        raise ValueError("root index out of range")
    prof = [0] * n
    if i == 0:
        prof[0], prof[-1] = -1, 1
        return AffineWeight(n, 0, tuple(prof), Fraction(1))
    prof[i - 1], prof[i] = 1, -1
    return AffineWeight(n, 0, tuple(prof))


def delta_weight(n: int) -> AffineWeight:
    """The primitive imaginary root: zero profile, level 0, delta 1."""
    return AffineWeight(n, 0, (0,) * n, Fraction(1))


def weight_from_marks(n: int, marks: Sequence[int]) -> AffineWeight:
    """sum_i marks[i] * L_i."""
    marks = exact_ints(marks, "marks")
    if len(marks) != n:
        raise ValueError("marks length must equal rank")
    if any(m < 0 for m in marks):
        raise ValueError("marks must be nonnegative")
    prof = tuple(sum(marks[j] for j in range(i + 1, n)) for i in range(n))
    return AffineWeight(n, sum(marks), prof)


def weight_pair_from_dims(
    n: int, level: int, w: Sequence[int], v: Sequence[int]
) -> tuple[AffineWeight, AffineWeight]:
    """(lam, mu) named by dimension data: lam = sum w_i L_i, mu = lam - sum v_i alpha_i.

    Requires length-n nonnegative data with level = sum(w); the two profiles
    always carry the same charge and mu's delta coefficient is -v[0].
    """
    if len(w) != n or len(v) != n:
        raise ValueError("dimension data must have length n")
    if any(x < 0 for x in w) or any(x < 0 for x in v):
        raise ValueError("dimension data must be nonnegative")
    if sum(w) != level:
        raise ValueError("level must equal the sum of the marks")
    lam = weight_from_marks(n, w)
    return lam, lower_weight(lam, v)


def lower_weight(lam: AffineWeight, coeffs: Sequence[int]) -> AffineWeight:
    """lam - sum_a coeffs[a] alpha_a, as one profile update.

    alpha_a = e_a - e_{a+1} for a >= 1; alpha_0 = e_n - e_1 also carries one
    unit of delta.  Coefficients may have any sign.
    """
    c = exact_ints(coeffs, "root coefficients")
    n = lam.n
    if len(c) != n:
        raise ValueError(f"{len(c)} root coefficients for rank {n}")
    if n < 2 and any(c):
        raise ValueError("simple roots need rank >= 2")
    prof = list(lam.profile)
    for a in range(1, n):
        prof[a - 1] -= c[a]
        prof[a] += c[a]
    prof[-1] -= c[0]
    prof[0] += c[0]
    return AffineWeight(n, lam.level, tuple(prof), lam.delta - c[0])


# -- operations --------------------------------------------------------


def coroot_pairing(mu: AffineWeight, i: int) -> int:
    exact_ints((i,), "coroot index")
    if not 0 <= i < mu.n:
        raise ValueError(f"coroot index {i} out of range for rank {mu.n}")
    if i == 0:
        return mu.level + mu.profile[-1] - mu.profile[0]
    return mu.profile[i - 1] - mu.profile[i]


def to_dominant(mu: AffineWeight) -> AffineWeight:
    """The unique alcove representative of the affine Weyl orbit of mu.

    At level l > 0 the orbit of a profile is every reordering of it moved by
    steps l(e_i - e_j), so it keeps the multiset of residues mod l and the
    sum.  With sum(p_i // l) = q*n + e, the alcove member gives every residue
    quotient q, and the e smallest residues one more l, sorted decreasing
    (spread at most l).  Each s_0 changes sum(profile^2) by 2*l*<mu,h_0> and
    delta by -<mu,h_0>, so delta - sum(profile^2)/(2l) is invariant.
    """
    if mu.level == 0:
        if len(set(mu.profile)) <= 1:
            return mu
        raise ValueError("level-0 weight with nonconstant profile has no alcove representative")
    n, lvl = mu.n, mu.level
    q, e = divmod(sum(a // lvl for a in mu.profile), n)
    residues = sorted(a % lvl for a in mu.profile)
    prof = sorted((r + lvl * (q + (j < e)) for j, r in enumerate(residues)), reverse=True)
    norm_gain = sum(a * a for a in prof) - sum(a * a for a in mu.profile)
    return AffineWeight(n, lvl, tuple(prof), mu.delta - Fraction(norm_gain, 2 * lvl))


def root_difference(lam: AffineWeight, mu: AffineWeight) -> RootVector:
    """Coefficients of lam - mu = sum c_i alpha_i; exact, any sign.

    Raises when the difference is not in the affine root lattice: level or
    charge mismatch, or a non-integral delta gap.
    """
    if lam.n != mu.n:
        raise ValueError("rank mismatch")
    if lam.level != mu.level:
        raise ValueError("level mismatch")
    if lam.charge != mu.charge:
        raise ValueError("difference is not in the root lattice (charge mismatch)")
    dd = lam.delta - mu.delta
    if dd.denominator != 1:
        raise ValueError("non-integral delta gap: incompatible delta coefficients")
    c = [int(dd)]
    for j in range(1, lam.n):
        c.append(c[-1] + lam.profile[j - 1] - mu.profile[j - 1])
    # closure around the cycle is automatic once charges agree
    assert c[0] - c[-1] == lam.profile[-1] - mu.profile[-1]
    return RootVector(tuple(c))


def dominance_leq(mu: AffineWeight, lam: AffineWeight) -> tuple[bool, Optional[RootVector]]:
    """mu <= lam in dominance order, with the witness coefficients on success."""
    rv = root_difference(lam, mu)
    if rv.is_nonnegative():
        return True, rv
    return False, None


def generic_cocharacter(m: Sequence) -> bool:
    """No root of the affine algebra pairs to zero with the profile cocharacter m.

    The pairing with the imaginary root is sum(m); a real root pairs to
    m_j - m_i + k*sum(m), so genericity is: sum(m) != 0 and no difference
    m_j - m_i (j < i) is an integer multiple of sum(m).
    """
    fr = [_as_fraction(x) for x in m]
    s = sum(fr)
    if s == 0:
        return False
    for j in range(len(fr)):
        for i in range(j + 1, len(fr)):
            if ((fr[j] - fr[i]) / s).denominator == 1:
                return False
    return True
