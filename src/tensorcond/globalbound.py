"""Global conductor bookkeeping over abstract primes.

Global fields are abstracted to a finite set of primes carrying local data,
either full inertia-model pairs or published summary exponents.  A global
conductor is a prime -> exponent map with zero exponents dropped, and every
bound multiplies one local factor per record, with no number-field arithmetic.

A record's `p` labels its prime; in full mode it need not be the residue
characteristic of the model.  `suites.read_global` checks each field of a
document.  Here only a pair's `summary` (a fractional conductor) and the
bounds (a negative degree correction or bound exponent) refuse.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Tuple, Union

from .errors import PreconditionError
from .weildeligne import AbVarDatum, LocalPair, uniform_rhs

# a positive integer as its prime -> exponent map, zero exponents dropped
Exponents = Dict[int, int]


def exponents_json(n: Exponents) -> dict:
    return {str(p): e for p, e in sorted(n.items())}


def exponents_str(n: Exponents) -> str:
    """The human form, such as 2^2 * 3, or 1."""
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(n.items())) or "1"


class PrimeSummary(NamedTuple):
    """Published local exponents and degrees at one prime."""

    p: int
    v_a: int
    v_b: int
    deg_a: int
    deg_b: int
    deg_ab: int


class PrimeLocalPair(LocalPair):
    """Full local data at one prime: the local pair of A and B, labelled p."""

    def __init__(self, p: int, A: AbVarDatum, B: AbVarDatum):
        super().__init__(A, B)
        self.p = p

    def summary(self) -> PrimeSummary:
        aA, aB = self.A.artin_conductor(), self.B.artin_conductor()
        if aA.denominator != 1 or aB.denominator != 1:
            raise PreconditionError(
                "local conductor exponents must be integers for global data")
        return PrimeSummary(self.p, int(aA), int(aB), self.A.degree(), self.B.degree(),
                            self.product.degree())


PrimeRecord = Union[PrimeSummary, PrimeLocalPair]


class GlobalDatum:
    """Two global objects seen through their local data at finitely many primes."""

    __slots__ = ("dim_a", "dim_b", "primes", "summaries")

    def __init__(self, dim_a: int, dim_b: int, primes: Tuple[PrimeRecord, ...]):
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.primes = primes
        # each record's summary, taken once
        self.summaries = tuple(rec if isinstance(rec, PrimeSummary) else rec.summary()
                               for rec in primes)


class GlobalBoundReport(NamedTuple):
    bound: Exponents
    d: Exponents
    per_prime: Tuple[dict, ...]

    def all_checks_pass(self) -> bool:
        return all(rec.get("ok", True) for rec in self.per_prime)

    def to_json(self) -> dict:
        return {"bound": exponents_json(self.bound), "d_term": exponents_json(self.d),
                "per_prime": list(self.per_prime)}


def _report(datum: GlobalDatum, local: Sequence[Tuple[int, int]]) -> GlobalBoundReport:
    """The bound from each record's own (exponent, kept degree correction),
    every correction checked first; records that share a label multiply their
    factors.  At full-mode primes also the recomputed tensor exponent and
    whether it stays within."""
    for s, (_, kept) in zip(datum.summaries, local):
        if kept < 0:
            raise PreconditionError(
                f"degree correction {kept} < 0 at prime {s.p}: inconsistent input")
    bound, d, per_prime = {}, {}, []
    for rec, s, (e, kept) in zip(datum.primes, datum.summaries, local):
        if e < 0:
            raise PreconditionError("denominator exponents exceed the numerator")
        for n, x in ((bound, e), (d, kept)):
            if x:
                n[s.p] = n.get(s.p, 0) + x
        entry = {"p": s.p, "bound_exp": e}
        if isinstance(rec, PrimeLocalPair):
            a_tensor = rec.product.artin_conductor()
            entry["a_tensor"] = str(a_tensor)
            entry["ok"] = a_tensor <= e
        per_prime.append(entry)
    return GlobalBoundReport(bound, d, tuple(per_prime))


def rankin_selberg_bound(datum: GlobalDatum) -> GlobalBoundReport:
    """The bound N_A^{2 dim B} N_B^{2 dim A} / (d-term * gcd(N_A, N_B)^2),
    at each record the uniform local bound with the global dimensions and
    the degree correction it keeps, the record's factor of the d-term.

    With full local pairs the tensor conductor exponent is recomputed at
    each prime and checked against the bound exponent.
    """
    return _report(datum, [uniform_rhs(2 * datum.dim_a, 2 * datum.dim_b, s.v_a, s.v_b,
                                       s.deg_ab - s.deg_a * s.deg_b)
                           for s in datum.summaries])


def self_tensor_bound_report(datum: GlobalDatum) -> GlobalBoundReport:
    """Self-tensor bound N_A^{4 dim A - 2} / (product of the primes with
    exponent >= 2) for the first object of a GlobalDatum built with A = B,
    with per-prime checks in full mode."""
    return _report(datum, [((4 * datum.dim_a - 2) * s.v_a - (s.v_a >= 2), 0)
                           for s in datum.summaries])
