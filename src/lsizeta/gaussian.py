"""Exact arithmetic in the Gaussian rationals Q(i).

Rational scalars are ``fractions.Fraction`` (arbitrary precision, always in
lowest terms with positive denominator); a Gaussian rational is a pair of
them.  Multiplication special-cases purely real and purely imaginary factors,
which is the common case throughout the expression algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    re: Fraction = _ZERO
    im: Fraction = _ZERO

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(_as_fraction(re), _as_fraction(im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    @property
    def is_imag(self) -> bool:
        return not self.re

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        return GaussianRational(self.re + _as_fraction(other), self.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        return self + (-other if isinstance(other, GaussianRational)
                       else GaussianRational(-_as_fraction(other)))

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return GaussianRational(a * c, a * d)
        if not d:
            return GaussianRational(a * c, b * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * other.conjugate() / n

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            raise ValueError("negative powers not supported")
        out = GaussianRational(_ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, r: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * r, self.im * r)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(_ONE)
GR_I = GaussianRational(_ZERO, _ONE)

# i^r for r mod 4
I_POWERS = (GR_ONE, GR_I, GaussianRational(-_ONE), GaussianRational(_ZERO, -_ONE))


def i_power(r: int) -> GaussianRational:
    """The unit i**r."""
    return I_POWERS[r % 4]
