"""Global conductor bookkeeping over abstract primes.

Global fields are abstracted to a finite set of primes carrying local data,
either full inertia-model pairs or published summary exponents.  Conductors
are factored integers (prime -> exponent maps), so divisibility statements
are exact exponent comparisons; there is no number-field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from .errors import (InconsistentInputError, InputError, NegativeExponentError,
                     int_field)
from .groups import is_prime
from .weildeligne import AbVarDatum, LocalPair


class FactoredInteger:
    """A positive integer held as its prime factorisation."""

    __slots__ = ("factors",)

    def __init__(self, factors: Optional[Dict[int, int]] = None):
        clean = {}
        for p, e in (factors or {}).items():
            if e < 0:
                raise NegativeExponentError(f"negative exponent {e} at prime {p}")
            if e:
                clean[int(p)] = int(e)
        self.factors = clean

    @staticmethod
    def one() -> "FactoredInteger":
        return FactoredInteger()

    @staticmethod
    def from_int(n: int) -> "FactoredInteger":
        if n < 1:
            raise ValueError("only positive integers factor")
        out = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return FactoredInteger(out)

    def value(self) -> int:
        n = 1
        for p, e in self.factors.items():
            n *= p ** e
        return n

    def exponent(self, p: int) -> int:
        return self.factors.get(p, 0)

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        out = dict(self.factors)
        for p, e in other.factors.items():
            out[p] = out.get(p, 0) + e
        return FactoredInteger(out)

    def __pow__(self, k: int) -> "FactoredInteger":
        if k < 0:
            raise ValueError("negative powers are not integers")
        return FactoredInteger({p: e * k for p, e in self.factors.items()})

    def gcd(self, other: "FactoredInteger") -> "FactoredInteger":
        return FactoredInteger({p: min(e, other.exponent(p))
                                for p, e in self.factors.items()})

    def divides(self, other: "FactoredInteger") -> bool:
        return all(e <= other.exponent(p) for p, e in self.factors.items())

    def divide_exact(self, other: "FactoredInteger") -> "FactoredInteger":
        if not other.divides(self):
            raise NegativeExponentError(f"{other} does not divide {self}")
        return FactoredInteger({p: self.exponent(p) - other.exponent(p)
                                for p in set(self.factors) | set(other.factors)})

    def __eq__(self, other):
        return isinstance(other, FactoredInteger) and self.factors == other.factors

    def __hash__(self):
        return hash(tuple(sorted(self.factors.items())))

    def to_json(self) -> dict:
        return {str(p): e for p, e in sorted(self.factors.items())}

    def __repr__(self):
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p)
                          for p, e in sorted(self.factors.items()))


@dataclass(frozen=True)
class PrimeSummary:
    """Published local exponents and degrees at one prime."""

    p: int
    v_a: int
    v_b: int
    deg_a: int
    deg_b: int
    deg_ab: int


@dataclass(frozen=True)
class PrimeLocalPair:
    """Full local data at one prime: two inertia-model data sharing a model."""

    p: int
    A: AbVarDatum
    B: AbVarDatum

    @cached_property
    def pair(self) -> LocalPair:
        return LocalPair(self.A, self.B)

    def summary(self) -> PrimeSummary:
        aA, aB = self.A.artin_conductor(), self.B.artin_conductor()
        if aA.denominator != 1 or aB.denominator != 1:
            raise InconsistentInputError(
                "local conductor exponents must be integers for global data")
        return PrimeSummary(self.p, int(aA), int(aB), self.A.degree(), self.B.degree(),
                            self.pair.product.degree())

    def tensor_exponent(self) -> Fraction:
        return self.pair.product.artin_conductor()


PrimeRecord = Union[PrimeSummary, PrimeLocalPair]


def record_prime(rec, where: str) -> int:
    """The prime of one document record, the field '{where}p'."""
    p = int_field(rec, "p", where)
    if not is_prime(p):
        raise InputError(f"'{where}p' must be a prime, not {p}")
    return p


@dataclass(frozen=True)
class GlobalDatum:
    """Two global objects seen through their local data at finitely many primes."""

    dim_a: int
    dim_b: int
    primes: Tuple[PrimeRecord, ...]
    _summaries: Tuple[PrimeSummary, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for rec in self.primes:
            if rec.p in seen:
                raise InconsistentInputError(f"duplicate prime {rec.p}")
            seen.add(rec.p)
        summaries = tuple(rec if isinstance(rec, PrimeSummary) else rec.summary()
                          for rec in self.primes)
        for s in summaries:
            if not (0 <= s.deg_a <= 2 * self.dim_a and 0 <= s.deg_b <= 2 * self.dim_b):
                raise InconsistentInputError(f"degree at prime {s.p} out of range")
            if s.v_a < 0 or s.v_b < 0 or s.deg_ab < 0:
                raise InconsistentInputError(f"negative datum at prime {s.p}")
        # the dataclass is frozen, hence object.__setattr__
        object.__setattr__(self, "_summaries", summaries)

    def summaries(self) -> Tuple[PrimeSummary, ...]:
        """Each record's summary, taken once at construction."""
        return self._summaries

    def conductor_a(self) -> FactoredInteger:
        return FactoredInteger({s.p: s.v_a for s in self.summaries()})

    def conductor_b(self) -> FactoredInteger:
        return FactoredInteger({s.p: s.v_b for s in self.summaries()})


def d_term(datum: GlobalDatum) -> FactoredInteger:
    """Product over primes with v(A) v(B) > 1 of p^(deg correction)."""
    out = {}
    for s in datum.summaries():
        if s.v_a * s.v_b > 1:
            e = s.deg_ab - s.deg_a * s.deg_b
            if e < 0:
                raise NegativeExponentError(
                    f"degree correction {e} < 0 at prime {s.p}: inconsistent input")
            out[s.p] = e
    return FactoredInteger(out)


@dataclass(frozen=True)
class GlobalBoundReport:
    bound: FactoredInteger
    d: FactoredInteger
    per_prime: Tuple[dict, ...]

    def all_checks_pass(self) -> bool:
        return all(rec.get("ok", True) for rec in self.per_prime)

    def to_json(self) -> dict:
        return {"bound": self.bound.to_json(), "d_term": self.d.to_json(),
                "per_prime": list(self.per_prime)}


def rankin_selberg_bound(datum: GlobalDatum) -> GlobalBoundReport:
    """The factored divisibility bound N_A^{2 dim B} N_B^{2 dim A} /
    (d-term * gcd(N_A, N_B)^2).

    With full local pairs the tensor conductor exponent is recomputed at
    each prime and checked against the bound exponent.
    """
    d = d_term(datum)
    nA, nB = datum.conductor_a(), datum.conductor_b()
    num = (nA ** (2 * datum.dim_b)) * (nB ** (2 * datum.dim_a))
    den = d * (nA.gcd(nB) ** 2)
    if not den.divides(num):
        raise InconsistentInputError("denominator exponents exceed the numerator")
    bound = num.divide_exact(den)
    return GlobalBoundReport(bound, d, _per_prime_checks(datum, bound))


def _per_prime_checks(datum: GlobalDatum, bound: FactoredInteger) -> Tuple[dict, ...]:
    """The bound exponent at each prime; at full-mode primes also the
    recomputed tensor exponent and whether it stays within the bound."""
    per_prime = []
    for rec in datum.primes:
        entry = {"p": rec.p, "bound_exp": bound.exponent(rec.p)}
        if isinstance(rec, PrimeLocalPair):
            a_tensor = rec.tensor_exponent()
            entry["a_tensor"] = str(a_tensor)
            entry["ok"] = a_tensor <= bound.exponent(rec.p)
        per_prime.append(entry)
    return tuple(per_prime)


def self_tensor_bound(dim_a: int, conductor: FactoredInteger) -> FactoredInteger:
    """N_A^{4 dim A - 2} divided by the product of primes with exponent >= 2."""
    squarefull = FactoredInteger({p: 1 for p, e in conductor.factors.items() if e >= 2})
    return (conductor ** (4 * dim_a - 2)).divide_exact(squarefull)


def self_tensor_bound_report(datum: GlobalDatum) -> GlobalBoundReport:
    """Self-tensor bound for the first object of a GlobalDatum built with
    A = B, with per-prime checks in full mode."""
    bound = self_tensor_bound(datum.dim_a, datum.conductor_a())
    return GlobalBoundReport(bound, FactoredInteger.one(), _per_prime_checks(datum, bound))
