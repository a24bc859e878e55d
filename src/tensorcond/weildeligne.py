"""Weil-Deligne block data over a finite inertia model.

A representation is a finite multiset of blocks (sigma, n), standing for the
direct sum of sigma tensored with the n-dimensional special representation.
Unramified twists are identified with the trivial character throughout: they
restrict trivially to inertia, so they are invisible to the Artin conductor,
the Swan conductor, and the degree.

Abelian-variety data is the special shape tau + (sigma x sp(2)) with tau
symplectic and sigma self-dual on inertia, and rational characteristic
polynomials on the whole inertia restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Tuple

from .chars import (ClassFunction, fixed_dim, is_rational_charpoly,
                    is_symplectic)
from .errors import (ModelMismatchError, NotPGroupError, NotRationalError,
                     NotSemistableError, NotSymplecticError, PreconditionError)
from .filtration import conductor_exponent, nonfixed_dim
from .groups import FiniteGroup, Filtration, is_prime


@dataclass(frozen=True)
class InertiaModel:
    """A finite quotient of inertia: group, ramification chain, residue char.

    The chain is in the lower numbering with G_0 the whole group; G_1 (the
    wild part) must be a p-group.  Models need not be realisable by an
    actual local field; all consumers assert formulas and inequalities only.
    """

    group: FiniteGroup
    filtration: Filtration
    residue_char: int

    def __post_init__(self):
        if self.filtration.parent is not self.group:
            raise ModelMismatchError("filtration does not live on the model group")
        if not is_prime(self.residue_char):
            raise PreconditionError(f"residue characteristic {self.residue_char} is not prime")
        wild = self.filtration[1] if len(self.filtration) > 1 else self.filtration[-1]
        if not wild.is_pgroup(self.residue_char):
            raise NotPGroupError(f"wild inertia level G_1 must be a "
                                 f"{self.residue_char}-group")

    @property
    def inertia(self):
        return self.filtration[0]

    def artin(self, sigma: ClassFunction) -> Fraction:
        return conductor_exponent(sigma, self.filtration)

    def swan(self, sigma: ClassFunction) -> Fraction:
        """Conductor over the shifted chain (G_1, G_2, ...): the wild part."""
        return self.artin(sigma) - nonfixed_dim(sigma, self.filtration, 0)

    def inertia_fixed(self, sigma: ClassFunction) -> int:
        return fixed_dim(sigma, self.inertia)


def clebsch_gordan(n: int, m: int) -> List[int]:
    """Sizes of the special blocks in sp(n) x sp(m): n+m+1-2i, i=1..min(n,m)."""
    if n < 1 or m < 1:
        raise ValueError("special representation sizes must be positive")
    return [n + m + 1 - 2 * i for i in range(1, min(n, m) + 1)]


class WDRep:
    """A multiset of blocks (sigma, n) over a fixed inertia model."""

    __slots__ = ("model", "blocks")

    def __init__(self, model: InertiaModel, blocks: Sequence[Tuple[ClassFunction, int]]):
        kept = []
        for sigma, n in blocks:
            if sigma.group is not model.group:
                raise ModelMismatchError("block character lives on a different group")
            if n < 1:
                raise ValueError("special block size must be >= 1")
            if not sigma.is_zero():
                kept.append((sigma, n))
        kept.sort(key=lambda b: (b[1], b[0].key()))
        self.model = model
        self.blocks = tuple(kept)

    @property
    def dim(self) -> int:
        return sum(n * sigma.dim for sigma, n in self.blocks)

    def artin_conductor(self) -> Fraction:
        """Sum over blocks of n a(sigma) + (n-1) dim sigma^{G_0}."""
        total = Fraction(0)
        for sigma, n in self.blocks:
            total += n * self.model.artin(sigma) + (n - 1) * self.model.inertia_fixed(sigma)
        return total

    def swan_conductor(self) -> Fraction:
        """Sum over blocks of n Sw(sigma); the Artin total minus the tame term."""
        return sum((n * self.model.swan(sigma) for sigma, n in self.blocks), Fraction(0))

    def degree(self) -> int:
        """L-polynomial degree: one inertia-fixed contribution per block."""
        return sum(self.model.inertia_fixed(sigma) for sigma, _ in self.blocks)

    def tensor(self, other: "WDRep") -> "WDRep":
        if self.model is not other.model:
            raise ModelMismatchError("tensor product needs a common inertia model")
        blocks = []
        for s1, n in self.blocks:
            for s2, m in other.blocks:
                prod = s1 * s2
                for k in clebsch_gordan(n, m):
                    blocks.append((prod, k))
        return WDRep(self.model, blocks)

    def dsum(self, other: "WDRep") -> "WDRep":
        if self.model is not other.model:
            raise ModelMismatchError("direct sum needs a common inertia model")
        return WDRep(self.model, list(self.blocks) + list(other.blocks))

    def __eq__(self, other):
        if not isinstance(other, WDRep):
            return NotImplemented
        if self.model is not other.model or len(self.blocks) != len(other.blocks):
            return False
        return all(n == m and s1 == s2 for (s1, n), (s2, m)
                   in zip(self.blocks, other.blocks))

    __hash__ = None

    def __repr__(self):
        return f"WDRep({[(s.dim, n) for s, n in self.blocks]})"


def artin_conductor(rho: WDRep) -> Fraction:
    return rho.artin_conductor()


def swan_conductor(rho: WDRep) -> Fraction:
    return rho.swan_conductor()


def degree(rho: WDRep) -> int:
    return rho.degree()


def tensor(rho1: WDRep, rho2: WDRep) -> WDRep:
    return rho1.tensor(rho2)


@dataclass(frozen=True)
class AbVarDatum:
    """Inertia data of abelian-variety shape: rho = tau + (sigma x sp(2))."""

    model: InertiaModel
    tau: ClassFunction
    sigma: ClassFunction

    def __post_init__(self):
        if self.tau.group is not self.model.group or self.sigma.group is not self.model.group:
            raise ModelMismatchError("characters live on a different group")
        if not is_symplectic(self.tau):
            raise NotSymplecticError("toric-free part tau must be symplectic")
        if self.sigma.dual() != self.sigma:
            raise PreconditionError("sp(2) part sigma must be self-dual")
        if not is_rational_charpoly(self.tau + self.sigma + self.sigma):
            raise NotRationalError("inertia restriction must have rational characteristic polynomials")
        assert (self.tau.dim + 2 * self.sigma.dim) % 2 == 0

    @cached_property
    def rho(self) -> WDRep:
        """The block form, built once per datum (the dataclass is frozen)."""
        blocks = []
        if not self.tau.is_zero():
            blocks.append((self.tau, 1))
        if not self.sigma.is_zero():
            blocks.append((self.sigma, 2))
        return WDRep(self.model, blocks)

    @property
    def dim(self) -> int:
        return self.tau.dim + 2 * self.sigma.dim

    def artin(self) -> Fraction:
        return self.rho.artin_conductor()

    def swan(self) -> Fraction:
        return self.rho.swan_conductor()

    def deg(self) -> int:
        return self.rho.degree()

    def is_semistable(self) -> bool:
        """Inertia restriction of shape trivial^m + sp(2)^n."""
        return _is_trivial_multiple(self.tau) and _is_trivial_multiple(self.sigma)


def _is_trivial_multiple(chi: ClassFunction) -> bool:
    base = chi.values[0]
    return all(v == base for v in chi.values)


def _common_model(A: AbVarDatum, B: AbVarDatum) -> InertiaModel:
    if A.model is not B.model:
        raise ModelMismatchError("data live over different inertia models")
    return A.model

def degree_correction(A: AbVarDatum, B: AbVarDatum) -> int:
    """deg(A x B) - deg(A) deg(B); nonnegative for valid data."""
    _common_model(A, B)
    return tensor(A.rho, B.rho).degree() - A.deg() * B.deg()


def semistable_equality(A: AbVarDatum, B: AbVarDatum) -> Tuple[Fraction, Fraction]:
    """Exact conductor of the tensor product when A is semistable.

    lhs is the Artin conductor of the expanded tensor product; rhs is the
    closed form dim(A) a(B) + deg(B) a(A) - (deg(AxB) - deg(A) deg(B)).
    The two sides are computed along independent paths and must agree.
    """
    _common_model(A, B)
    if not A.is_semistable():
        raise NotSemistableError("first datum must be semistable")
    lhs = tensor(A.rho, B.rho).artin_conductor()
    rhs = A.dim * B.artin() + B.deg() * A.artin() - degree_correction(A, B)
    return lhs, rhs


def swan_bound(A: AbVarDatum, B: AbVarDatum) -> Tuple[Fraction, Fraction]:
    """Wild-part bound: lhs = Sw(AxB), rhs with coefficient max(2, p-1)."""
    model = _common_model(A, B)
    p = model.residue_char
    lhs = tensor(A.rho, B.rho).swan_conductor()
    swA, swB = A.swan(), B.swan()
    rhs = A.dim * swB + B.dim * swA - max(2, p - 1) * min(swA, swB)
    return lhs, rhs


def tame_identity(A: AbVarDatum, B: AbVarDatum) -> Tuple[Fraction, Fraction]:
    """Block-level identity for the tame part when both conductors exceed 1.

    lhs = dim(AxB) - deg(AxB); rhs is the four-term expansion in the
    per-factor tame parts and the degree correction.
    """
    _common_model(A, B)
    aA, aB = A.artin(), B.artin()
    if not (aA > 1 and aB > 1):
        raise PreconditionError("both conductor exponents must exceed 1")
    prod = tensor(A.rho, B.rho)
    lhs = Fraction(prod.dim - prod.degree())
    tameA = A.dim - A.deg()
    tameB = B.dim - B.deg()
    rhs = Fraction(A.dim * tameB + B.dim * tameA - tameA * tameB
                   - degree_correction(A, B))
    return lhs, rhs


def improvement_constant(A: AbVarDatum, B: AbVarDatum) -> int:
    """min of max(2, p-1) and the two tame codimensions."""
    p = _common_model(A, B).residue_char
    return min(max(2, p - 1), A.dim - A.deg(), B.dim - B.deg())


def conductor_bound(A: AbVarDatum, B: AbVarDatum) -> Tuple[Fraction, Fraction, int]:
    """The full tensor-conductor bound with the improvement constant.

    Returns (lhs, rhs, C) with lhs = a(AxB) and
    rhs = dim(A) a(B) + dim(B) a(A) - C min(a(A), a(B)) - degree correction.
    Equality is forced whenever a(A) <= 1 or a(B) <= 1.
    """
    _common_model(A, B)
    C = improvement_constant(A, B)
    aA, aB = A.artin(), B.artin()
    lhs = tensor(A.rho, B.rho).artin_conductor()
    rhs = A.dim * aB + B.dim * aA - C * min(aA, aB) - degree_correction(A, B)
    return lhs, rhs, C


def uniform_bound(A: AbVarDatum, B: AbVarDatum) -> Tuple[Fraction, Fraction, int]:
    """Weaker bound with constant 2 and the degree correction only kept
    when a(A) a(B) > 1.  Returns (lhs, rhs, correction_used)."""
    _common_model(A, B)
    aA, aB = A.artin(), B.artin()
    corr = degree_correction(A, B) if aA * aB > 1 else 0
    lhs = tensor(A.rho, B.rho).artin_conductor()
    rhs = A.dim * aB + B.dim * aA - 2 * min(aA, aB) - corr
    return lhs, rhs, corr


def degree_gap(A: AbVarDatum) -> int:
    """deg(AxA) - deg(A)^2; at least 1 whenever a(A) > 0."""
    return tensor(A.rho, A.rho).degree() - A.deg() ** 2
