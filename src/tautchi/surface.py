"""Exact arithmetic on the truncated cohomology ring of a polarized surface.

A surface is modelled by its Picard lattice (an integer Gram matrix on a
chosen divisor basis), its canonical class in that basis, and its topological
Euler number.  Sheaves and complexes of sheaves enter only through their
truncated Chern characters (ch0, ch1, ch2); every Euler characteristic in the
package is ultimately a Riemann-Roch evaluation of such a character.  All
arithmetic is exact; there is no floating point anywhere.

There are two forms of the ring.  The `ChernCharacter` functions
(`ch_tensor`, `ch_tensor_all`, `hrr_chi`, `SurfaceModel.pair`) take and
return `fractions.Fraction` values; they are the public reference.  The
integer kernel holds a class as integer numerators over one denominator
(`class_coords`): `ClassMultiplier` multiplies by a fixed class and
`chi_functional` is the Riemann-Roch form chi(. y), both accepting a class in
either form.  The formulas in `euler` use only the integer kernel and form
one `Fraction` per evaluated value.

The module also provides the Euler characteristic of graded symmetric powers
(`sym_pow_chi`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]
# A class of A = Q + Pic_Q + Q as integer numerators (ch0, ch1_1, ..., ch1_p,
# ch2) over a positive integer denominator.
ClassCoords = tuple[tuple[int, ...], int]


def as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def gen_binomial(x: Rat, m: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-m+1)/m! for integer m >= 0.

    With x = p/q the numerator is the integer product of the p - i*q, so one
    Fraction is formed at the end instead of one per factor."""
    if m < 0:
        raise ValueError("lower index must be nonnegative")
    xf = as_fraction(x)
    p, q = xf.numerator, xf.denominator
    num = 1
    for i in range(m):
        num *= p - i * q
    return Fraction(num, q ** m * factorial(m))


def sym_pow_chi(m: int, chi: Rat) -> Fraction:
    """Euler characteristic of the m-th graded symmetric power of a space with
    Euler characteristic chi, i.e. binom(chi + m - 1, m).

    Valid for negative chi as well: the falling-factorial binomial gives the
    signed exterior-power count (-1)^m * binom(-chi, m)."""
    if m < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    return gen_binomial(as_fraction(chi) + m - 1, m)


@dataclass(frozen=True)
class SurfaceModel:
    """A smooth projective surface given by exact intersection data.

    gram is the intersection pairing on a chosen basis of (a sublattice of)
    the Picard group, canonical the canonical class in that basis, and c2 the
    topological Euler number.  The constructor rejects data that fail
    Noether's 12 | (K.K + c2) or Wu's x.x = x.K (mod 2), which is checked on
    the basis since x.x - x.K is additive mod 2.

    The invariants that every Riemann-Roch evaluation needs (the nonzero
    Gram entries of each row, G.K, K.K, chi(O) and the canonical class) are
    computed once per surface and cached; they take no part in comparison.
    """

    name: str
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    c2: int

    def __post_init__(self):
        p = len(self.gram)
        if p == 0:
            raise ValueError("picard rank must be positive")
        for row in self.gram:
            if len(row) != p:
                raise ValueError("gram matrix must be square")
        for i in range(p):
            for j in range(p):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        if len(self.canonical) != p:
            raise ValueError("canonical class length must equal picard rank")
        if (self.k_squared + self.c2) % 12 != 0:
            raise ValueError(
                f"invalid surface {self.name!r}: K.K + c2 = "
                f"{self.k_squared + self.c2} is not divisible by 12")
        for i, (row, gk) in enumerate(zip(self.gram, self.gram_canonical)):
            if (row[i] - gk) % 2:
                raise ValueError(
                    f"invalid surface {self.name!r}: K is not characteristic, "
                    f"x.x = {row[i]} and x.K = {gk} differ mod 2 for basis "
                    f"divisor {i + 1} (Wu's formula)")

    @property
    def picard_rank(self) -> int:
        return len(self.gram)

    @cached_property
    def gram_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero entries (j, g_ij) of each row i of the Gram matrix."""
        return tuple(tuple((j, g) for j, g in enumerate(row) if g)
                     for row in self.gram)

    def pair(self, u: Sequence[Rat], v: Sequence[Rat]) -> Fraction:
        """Intersection pairing of two divisor coordinate vectors, over the
        nonzero Gram entries only."""
        if len(u) != self.picard_rank or len(v) != self.picard_rank:
            raise ValueError("divisor class length does not match picard rank")
        total = Fraction(0)
        for ui, row in zip(u, self.gram_rows):
            if ui:
                total += ui * sum(g * v[j] for j, g in row)
        return total

    @cached_property
    def gram_canonical(self) -> tuple[int, ...]:
        """G.K: the pairing of each basis divisor with the canonical class."""
        return tuple(sum(g * self.canonical[j] for j, g in row)
                     for row in self.gram_rows)

    @cached_property
    def k_squared(self) -> int:
        return sum(k * gk for k, gk in zip(self.canonical, self.gram_canonical))

    @cached_property
    def chi_structure_sheaf(self) -> int:
        """chi(O) = (K.K + c2)/12, an integer by Noether's formula."""
        return (self.k_squared + self.c2) // 12

    @cached_property
    def _canonical_class(self) -> "DivisorClass":
        return DivisorClass.of(self.canonical)

    def canonical_divisor(self) -> "DivisorClass":
        return self._canonical_class


@dataclass(frozen=True)
class DivisorClass:
    """Rational divisor class in the chosen Picard basis."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(values: Sequence[Rat]) -> "DivisorClass":
        return DivisorClass(tuple(as_fraction(v) for v in values))

    @staticmethod
    def zero(picard_rank: int) -> "DivisorClass":
        return DivisorClass((Fraction(0),) * picard_rank)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("divisor classes live in different lattices")
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def scale(self, t: Rat) -> "DivisorClass":
        tf = as_fraction(t)
        return DivisorClass(tuple(tf * a for a in self.coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class ChernCharacter:
    """Truncated Chern character (rank, degree-2 part, integrated degree-4 part).

    ch2 is stored as a scalar: the degree-4 cohomology of a surface is one
    dimensional, so only the integral against the fundamental class matters.
    Virtual classes (negative or fractional rank) are allowed; this is what
    makes inputs from the derived category legitimate.
    """

    ch0: Fraction
    ch1: DivisorClass
    ch2: Fraction

    @staticmethod
    def make(ch0: Rat, ch1: DivisorClass | Sequence[Rat], ch2: Rat) -> "ChernCharacter":
        if not isinstance(ch1, DivisorClass):
            ch1 = DivisorClass.of(ch1)
        return ChernCharacter(as_fraction(ch0), ch1, as_fraction(ch2))

    @staticmethod
    def unit(surface: SurfaceModel) -> "ChernCharacter":
        return ChernCharacter(Fraction(1), DivisorClass.zero(surface.picard_rank), Fraction(0))

    @staticmethod
    def line_bundle(c1: DivisorClass | Sequence[Rat], surface: SurfaceModel) -> "ChernCharacter":
        """Chern character (1, c1, c1.c1/2) of a line bundle."""
        if not isinstance(c1, DivisorClass):
            c1 = DivisorClass.of(c1)
        return ChernCharacter(Fraction(1), c1, surface.pair(c1.coeffs, c1.coeffs) / 2)

    def is_line_bundle_class(self, surface: SurfaceModel) -> bool:
        """Rank 1, integral c1 and ch2 = c1.c1/2: the character of a line
        bundle whose first Chern class lies in the chosen lattice.  The
        last test is 2 ch2 = c.Gc on the integral c."""
        if self.ch0 != 1 or any(x.denominator != 1 for x in self.ch1.coeffs):
            return False
        if len(self.ch1) != surface.picard_rank:
            raise ValueError("divisor class length does not match picard rank")
        c = tuple(x.numerator for x in self.ch1.coeffs)
        return 2 * self.ch2 == sum(map(operator.mul, c, _gram_times(surface, c)))


@dataclass(frozen=True)
class BundleSpec:
    """Input form of a locally free sheaf: rank, first Chern class, and the
    integrated second Chern class."""

    name: str
    rank: int
    c1: DivisorClass
    c2num: Fraction

    def chern(self, surface: SurfaceModel) -> ChernCharacter:
        c1sq = surface.pair(self.c1.coeffs, self.c1.coeffs)
        return ChernCharacter(Fraction(self.rank), self.c1, (c1sq - 2 * self.c2num) / 2)


def ch_add(a: ChernCharacter, b: ChernCharacter) -> ChernCharacter:
    return ChernCharacter(a.ch0 + b.ch0, a.ch1 + b.ch1, a.ch2 + b.ch2)


def ch_sub(a: ChernCharacter, b: ChernCharacter) -> ChernCharacter:
    return ChernCharacter(a.ch0 - b.ch0, a.ch1 - b.ch1, a.ch2 - b.ch2)


def ch_tensor(a: ChernCharacter, b: ChernCharacter, surface: SurfaceModel) -> ChernCharacter:
    """Product of truncated Chern characters (multiplicativity of ch)."""
    if len(a.ch1) != surface.picard_rank or len(b.ch1) != surface.picard_rank:
        raise ValueError("divisor class length does not match picard rank")
    return ChernCharacter(
        a.ch0 * b.ch0,
        b.ch1.scale(a.ch0) + a.ch1.scale(b.ch0),
        a.ch0 * b.ch2 + b.ch0 * a.ch2 + surface.pair(a.ch1.coeffs, b.ch1.coeffs),
    )


def ch_tensor_all(chars: Iterable[ChernCharacter], surface: SurfaceModel) -> ChernCharacter:
    """Product of several characters; the empty product is the unit."""
    out = ChernCharacter.unit(surface)
    for c in chars:
        out = ch_tensor(out, c, surface)
    return out


def ch_dual(a: ChernCharacter) -> ChernCharacter:
    return ChernCharacter(a.ch0, -a.ch1, a.ch2)


def ch_hom(a: ChernCharacter, b: ChernCharacter, surface: SurfaceModel) -> ChernCharacter:
    """Character of the sheaf Hom: dual of the source times the target."""
    return ch_tensor(ch_dual(a), b, surface)


def ch_tangent(surface: SurfaceModel) -> ChernCharacter:
    k = surface.canonical_divisor()
    ksq = Fraction(surface.k_squared)
    return ChernCharacter(Fraction(2), -k, (ksq - 2 * surface.c2) / 2)


def ch_anticanonical(surface: SurfaceModel) -> ChernCharacter:
    return ChernCharacter.line_bundle(-surface.canonical_divisor(), surface)


def ch_sym_cotangent(m: int, surface: SurfaceModel) -> ChernCharacter:
    """Character of the m-th symmetric power of the cotangent bundle.

    Computed from the Chern roots a, b of the cotangent bundle,
    a + b = K and ab = c2, truncated in degree 2:

      ch0 = m + 1
      ch1 = m(m+1)/2 * K
      ch2 = [ m(m+1)(2m+1)/6 * (K.K - 2 c2) + m(m+1)(m-1)/3 * c2 ] / 2
    """
    if m < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    k = surface.canonical_divisor()
    ksq = Fraction(surface.k_squared)
    c2 = Fraction(surface.c2)
    sq_sum = Fraction(m * (m + 1) * (2 * m + 1), 6)          # sum of i^2, i <= m
    cross = Fraction(m * (m + 1) * (m - 1), 6)               # sum of i(m-i)
    ch2 = (sq_sum * (ksq - 2 * c2) + 2 * cross * c2) / 2
    return ChernCharacter(Fraction(m + 1), k.scale(Fraction(m * (m + 1), 2)), ch2)


def hrr_chi(a: ChernCharacter, surface: SurfaceModel) -> Fraction:
    """Riemann-Roch on a surface: chi = ch2 - ch1.K/2 + ch0 * chi(O), a
    linear form in (ch0, ch1, ch2) read off the cached G.K and chi(O)."""
    if len(a.ch1) != surface.picard_rank:
        raise ValueError("divisor class length does not match picard rank")
    ch1_k = sum((c * gk for c, gk in zip(a.ch1.coeffs, surface.gram_canonical) if gk),
                Fraction(0))
    return a.ch2 - ch1_k / 2 + a.ch0 * surface.chi_structure_sheaf


# The integer kernel: a class of A = Q + Pic_Q + Q as integer coordinates
# over one tracked common denominator (`ClassCoords`).  Products and
# Riemann-Roch forms run on the integers; a `Fraction` is formed once per
# evaluated value.

def ch_coords(a: ChernCharacter) -> tuple[Fraction, ...]:
    return (a.ch0, *a.ch1.coeffs, a.ch2)


def scaled_coords(a: ChernCharacter) -> tuple[tuple[int, ...], int]:
    """Integer coordinates N of a class and the least common denominator d
    of its coordinates, so that ch_coords(a) = N / d."""
    coords = ch_coords(a)
    d = lcm(*(x.denominator for x in coords))
    return tuple(x.numerator * (d // x.denominator) for x in coords), d


def class_coords(y: ChernCharacter | ClassCoords, surface: SurfaceModel
                 ) -> ClassCoords:
    """A class as integer coordinates over a denominator, checked against
    the Picard rank: a `ChernCharacter` is scaled by `scaled_coords`, a pair
    (numerators, denominator) is taken as it is."""
    if isinstance(y, ChernCharacter):
        if len(y.ch1) != surface.picard_rank:
            raise ValueError("divisor class length does not match picard rank")
        return scaled_coords(y)
    if len(y[0]) != surface.picard_rank + 2:
        raise ValueError("divisor class length does not match picard rank")
    return y


def unit_coords(surface: SurfaceModel) -> ClassCoords:
    return (1, *(0,) * (surface.picard_rank + 1)), 1


def dual_coords(y: ClassCoords) -> ClassCoords:
    """The dual class: the sign of c1 flips."""
    v, d = y
    return (v[0], *(-x for x in v[1:-1]), v[-1]), d


def _gram_times(surface: SurfaceModel, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(g * v[j] for j, g in row) for row in surface.gram_rows)


class ClassMultiplier:
    """Multiplication by a fixed class y on integer coordinate vectors.

    y is held as integers (r, c, s) over its denominator den, with the Gram
    image Gc computed once.  For a vector v = V/e with integer V,
    y.v = (r V0, r V_c + V0 c, r V2 + V0 s + (Gc).V_c) / (den e): the call
    returns the integer numerator, and the caller multiplies its running
    denominator by den (`times` does both).  One product costs O(p) integer
    operations for Picard rank p.  y is a `ChernCharacter` or integer
    coordinates (`class_coords`).
    """

    __slots__ = ("r", "c", "s", "gc", "den")

    def __init__(self, y: ChernCharacter | ClassCoords, surface: SurfaceModel):
        coords, self.den = class_coords(y, surface)
        self.r, self.c, self.s = coords[0], coords[1:-1], coords[-1]
        self.gc = _gram_times(surface, self.c)

    def __call__(self, v: Sequence[int]) -> tuple[int, ...]:
        r, v0, mid = self.r, v[0], v[1:-1]
        return (r * v0,
                *(r * x + v0 * c for x, c in zip(mid, self.c)),
                r * v[-1] + v0 * self.s + sum(map(operator.mul, self.gc, mid)))

    def times(self, x: ClassCoords) -> ClassCoords:
        """y.x for a class x in integer coordinates over its denominator."""
        return self(x[0]), self.den * x[1]


def chi_functional(y: ChernCharacter | ClassCoords, surface: SurfaceModel
                   ) -> tuple[tuple[int, ...], int]:
    """The linear form v -> chi(v.y) for any class y = (r, c, s), given as a
    `ChernCharacter` or as integer coordinates (`class_coords`), as integer
    coordinates over one denominator in lowest terms.

    The product is v.y = (r v0, r v_c + v0 c, r v2 + v0 s + v_c.Gc), and
    Riemann-Roch is chi(x) = x2 - x_c.GK/2 + x0 chi(O), so
    chi(v.y) = v0 chi(y) + v_c.(Gc - r GK/2) + r v2.  With y = (R, C, S)/d
    the form times 2d is (2S - C.GK + 2R chi(O), 2GC - R GK, 2R).
    """
    coords, d = class_coords(y, surface)
    r, c, s = coords[0], coords[1:-1], coords[-1]
    gk = surface.gram_canonical
    c_gk = sum(map(operator.mul, c, gk))
    form = (2 * s - c_gk + 2 * r * surface.chi_structure_sheaf,
            *(2 * x - r * k for x, k in zip(_gram_times(surface, c), gk)), 2 * r)
    g = gcd(*form, 2 * d)
    return tuple(x // g for x in form), 2 * d // g


# Bundled test surfaces with classically known invariants.

def p2() -> SurfaceModel:
    """The projective plane: Pic = Z.H, H.H = 1, K = -3H, c2 = 3."""
    return SurfaceModel("P2", ((1,),), (-3,), 3)


def p1xp1() -> SurfaceModel:
    """A smooth quadric: Pic = Z^2 with the hyperbolic pairing, K = (-2,-2)."""
    return SurfaceModel("P1xP1", ((0, 1), (1, 0)), (-2, -2), 4)


def k3(h_square: int = 2) -> SurfaceModel:
    """A K3 surface with a rank-one polarization of the given self-intersection."""
    if h_square <= 0 or h_square % 2 != 0:
        raise ValueError("polarization self-intersection must be a positive even integer")
    return SurfaceModel("K3", ((h_square,),), (0,), 24)


PRESETS = {"P2": p2, "P1xP1": p1xp1, "K3": k3}
