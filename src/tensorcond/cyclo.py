"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) modulo the
N-th cyclotomic polynomial.  Each coefficient is a plain `int` when it is
integral and a `Fraction` only when it is not, so character values, which
lie in Z[zeta_N], never touch `Fraction` arithmetic.  No floating point
anywhere; equality is coefficient-wise after promotion to a common
conductor.

`chars` holds class values as terms c * zeta_n^k in Z[x]/(x^n - 1), which
x -> zeta_n maps onto Z[zeta_n] as Phi_n divides x^n - 1; an average sums
them into one integer list, reduced mod Phi_n (`reduce_mod_phi`) only when
a non-constant coefficient is left.  `CycloNum` serves the edges: the
human `table` text, and `ClassFunction.values` for equality and the test
oracles, which hold its Galois action, negation and rational readings
themselves (`tests/oracles.py`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence, Union

Rational = Union[int, Fraction]

_INT_ONLY = {int}


def _coefficient(c) -> Rational:
    """The canonical form of one coefficient: an int when integral, else a
    Fraction.  Floats and other non-rationals are refused."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"cyclotomic coefficient must be int or Fraction, "
                    f"not {type(c).__name__}")


def _coefficients(cs: Sequence) -> Sequence[Rational]:
    """Canonical coefficients; an all-int sequence is returned as it is."""
    if set(map(type, cs)) <= _INT_ONLY:
        return cs
    return [c if type(c) is int else _coefficient(c) for c in cs]


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by the product of Phi_d over proper divisors d
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, cyclotomic_coeffs(d))
    return tuple(poly)


def _poly_divexact(num: Sequence[int], den: Sequence[int]) -> list:
    """Exact division of integer polynomials (den monic), ascending coeffs."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    assert all(c == 0 for c in num[:dd]), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_coeffs(n)) - 1


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple:
    """x^k mod Phi_n for k = 0 ... 2n, as sparse rows of (index, integer
    coefficient) pairs."""
    phi = euler_phi(n)
    mod = cyclotomic_coeffs(n)
    rows = []
    for k in range(2 * n + 1):
        if k < phi:
            row = [0] * phi
            row[k] = 1
        else:
            # multiply previous row by x, reduce the overflow coefficient
            top = row[phi - 1]
            row = [0] + row[:-1]
            if top:
                for j in range(phi):
                    row[j] -= top * mod[j]
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
    return tuple(rows)


def reduce_mod_phi(n: int, coeffs: Sequence[Rational]) -> list:
    """Reduce an arbitrary-degree coefficient list mod Phi_n to the basis."""
    phi = euler_phi(n)
    rows = _reduction_rows(n)
    out = list(coeffs[:phi])
    out += [0] * (phi - len(out))
    for k in range(phi, len(coeffs)):
        c = coeffs[k]
        if c:
            for j, r in rows[k]:
                out[j] += c * r
    return out


class CycloNum:
    """An exact element of Q(zeta_N) in the reduced power basis."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: Sequence[Rational]):
        # phi(N) coefficients are the reduced form; any other number is reduced
        self.N = N
        cs = _coefficients(coeffs)
        if len(cs) != euler_phi(N):
            cs = _coefficients(reduce_mod_phi(N, cs))
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(q: Rational, N: int = 1) -> "CycloNum":
        return CycloNum(N, [q] + [0] * (euler_phi(N) - 1))

    # -- structure -----------------------------------------------------------

    def promote(self, M: int) -> "CycloNum":
        """Rewrite in Q(zeta_M) for N | M."""
        if M == self.N:
            return self
        if M % self.N:
            raise ValueError(f"{M} is not a multiple of conductor {self.N}")
        step = M // self.N
        cs = [0] * (euler_phi(self.N) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                cs[i * step] = c
        return CycloNum(M, cs)

    def _pair(self, other: "CycloNum"):
        if self.N == other.N:
            return self, other
        M = lcm(self.N, other.N)
        return self.promote(M), other.promote(M)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        elif not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        return CycloNum(a.N, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        if a.is_rational():
            return b.scale(a.coeffs[0])
        if b.is_rational():
            return a.scale(b.coeffs[0])
        phi = len(a.coeffs)
        prod = [0] * (2 * phi - 1)
        b_terms = [(j, y) for j, y in enumerate(b.coeffs) if y]
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in b_terms:
                    prod[i + j] += x * y
        return CycloNum(a.N, prod)

    __rmul__ = __mul__

    def scale(self, q: Rational) -> "CycloNum":
        return CycloNum(self.N, [c * q for c in self.coeffs])

    # -- comparison / io -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # promote-aware equality; do not use as dict key

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = f"z{self.N}" if i == 1 else f"z{self.N}^{i}"
                sign = "-" if c < 0 else ("+" if terms else "")
                terms.append(f"{sign}{mag}{var}" if terms or c < 0 else f"{mag}{var}")
        return "".join(terms) if len(terms) > 1 else terms[0]

    def __repr__(self):
        return f"CycloNum({self})"

