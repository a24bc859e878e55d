"""Weil-Deligne block data over a finite inertia model.

A representation is a finite multiset of blocks (sigma, n), standing for the
direct sum of sigma tensored with the n-dimensional special representation.
Unramified twists are identified with the trivial character throughout: they
restrict trivially to inertia, so they are invisible to the Artin conductor,
the Swan conductor, and the degree.

Abelian-variety data is the special shape tau + (sigma x sp(2)) with tau
symplectic and sigma self-dual on inertia, and rational characteristic
polynomials on the whole inertia restriction.

Block characters are held as multiplicity vectors (`chars.Character`), and
`WDRep` computes on those alone: the Artin conductor is additive in the
character (Serre, Local Fields, ch. VI, section 2), so over a fixed chain it
is a per-irreducible row dotted with the multiplicities, and tensor products
multiply vectors through the table's structure constants.  `InertiaModel`'s
`artin`, `swan` and `inertia_fixed` and the `class_*` functions below
compute the same quantities from class values instead; they are the oracle
that the semistable and tame-identity checks compare the kernel with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import List, Sequence, Tuple

from .chars import CharacterTable, ClassFunction, character_table, fixed_dim
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

    @cached_property
    def table(self) -> CharacterTable:
        return character_table(self.group)

    @cached_property
    def kernel_rows(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Per irreducible psi_i: |G_0| a(psi_i), the sum over the levels of
        (dim psi_i - f_i(G_l)) |G_l|, and f_i(G_0) = dim psi_i^{G_0}.  A
        character's conductor and inertia-fixed dimension are these rows
        dotted with its multiplicities."""
        T = self.table
        fixed = [T.fixed_dims(H) for H in self.filtration.chain]
        artin = tuple(sum((d - f[i]) * H.size for f, H in zip(fixed, self.filtration.chain))
                      for i, d in enumerate(T.degrees))
        return artin, fixed[0]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def clebsch_gordan(n: int, m: int) -> List[int]:
    """Sizes of the special blocks in sp(n) x sp(m): n+m+1-2i, i=1..min(n,m)."""
    if n < 1 or m < 1:
        raise ValueError("special representation sizes must be positive")
    return [n + m + 1 - 2 * i for i in range(1, min(n, m) + 1)]


class WDRep:
    """A multiset of blocks (sigma, n) over a fixed inertia model.

    Each sigma is held as a `Character` of the model's table (a class
    function that is not one is decomposed, a virtual one refused), and
    every quantity below is an integer or Fraction dot product of its
    multiplicities with the model's `kernel_rows`.
    """

    __slots__ = ("model", "blocks")

    def __init__(self, model: InertiaModel, blocks: Sequence[Tuple[ClassFunction, int]]):
        kept = []
        for sigma, n in blocks:
            if sigma.group is not model.group:
                raise ModelMismatchError("block character lives on a different group")
            if n < 1:
                raise ValueError("special block size must be >= 1")
            sigma = model.table.character(sigma)
            if not sigma.is_zero():
                kept.append((sigma, n))
        kept.sort(key=lambda b: (b[1], b[0].mults))
        self.model = model
        self.blocks = tuple(kept)

    @property
    def dim(self) -> int:
        return sum(n * sigma.dim for sigma, n in self.blocks)

    def artin_conductor(self) -> Fraction:
        """Sum over blocks of n a(sigma) + (n-1) dim sigma^{G_0}."""
        arow, frow = self.model.kernel_rows
        order = self.model.group.order
        return Fraction(sum(n * _dot(s.mults, arow) + (n - 1) * order * _dot(s.mults, frow)
                            for s, n in self.blocks), order)

    def swan_conductor(self) -> Fraction:
        """Sum over blocks of n Sw(sigma), Sw(sigma) = a(sigma) minus the
        tame term dim sigma - dim sigma^{G_0}."""
        arow, frow = self.model.kernel_rows
        order = self.model.group.order
        return Fraction(sum(n * (_dot(s.mults, arow) - order * (s.dim - _dot(s.mults, frow)))
                            for s, n in self.blocks), order)

    def degree(self) -> int:
        """L-polynomial degree: one inertia-fixed contribution per block."""
        frow = self.model.kernel_rows[1]
        return sum(_dot(s.mults, frow) for s, _ in self.blocks)

    def tensor(self, other: "WDRep") -> "WDRep":
        if self.model is not other.model:
            raise ModelMismatchError("tensor product needs a common inertia model")
        T = self.model.table
        blocks = []
        for s1, n in self.blocks:
            for s2, m in other.blocks:
                prod = T.assemble(T.tensor_mults(s1.mults, s2.mults))
                for k in clebsch_gordan(n, m):
                    blocks.append((prod, k))
        return WDRep(self.model, blocks)

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
        T = self.model.table
        # from here on the fields hold the vector forms (NonCharacterError
        # for a virtual one); the dataclass is frozen, hence object.__setattr__
        tau, sigma = T.character(self.tau), T.character(self.sigma)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "sigma", sigma)
        if not T.is_symplectic_mults(tau.mults):
            raise NotSymplecticError("toric-free part tau must be symplectic")
        if not T.is_self_dual_mults(sigma.mults):
            raise PreconditionError("sp(2) part sigma must be self-dual")
        if not T.is_rational_mults([t + 2 * s for t, s in zip(tau.mults, sigma.mults)]):
            raise NotRationalError("inertia restriction must have rational characteristic polynomials")
        assert (tau.dim + 2 * sigma.dim) % 2 == 0

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
        triv = self.model.table.index_of_trivial()
        return not any(m for chi in (self.tau, self.sigma)
                       for i, m in enumerate(chi.mults) if i != triv)


# -- the class-average oracle -------------------------------------------------------
#
# A tensor product's blocks with their characters multiplied class by class,
# and its conductor and degree by the filtration averages of InertiaModel.
# Nothing here reads a multiplicity vector.


def class_tensor(rho1: WDRep, rho2: WDRep) -> List[Tuple[ClassFunction, int]]:
    """The blocks of rho1 x rho2, each product character from class values."""
    blocks = []
    for s1, n in rho1.blocks:
        for s2, m in rho2.blocks:
            prod = s1 * s2
            blocks.extend((prod, k) for k in clebsch_gordan(n, m))
    return blocks


def class_artin(model: InertiaModel, blocks) -> Fraction:
    """Sum over blocks of n a(sigma) + (n-1) dim sigma^{G_0}, by averages."""
    return sum((n * model.artin(s) + (n - 1) * model.inertia_fixed(s) for s, n in blocks),
               Fraction(0))


def class_degree(model: InertiaModel, blocks) -> int:
    return sum(model.inertia_fixed(s) for s, _ in blocks)


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

    lhs is the Artin conductor of the expanded tensor product, from class
    averages; rhs is the closed form dim(A) a(B) + deg(B) a(A) - (deg(AxB)
    - deg(A) deg(B)), from the kernel.  The two must agree.
    """
    model = _common_model(A, B)
    if not A.is_semistable():
        raise NotSemistableError("first datum must be semistable")
    lhs = class_artin(model, class_tensor(A.rho, B.rho))
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

    lhs = dim(AxB) - deg(AxB), from the class-average tensor product; rhs
    is the four-term expansion in the per-factor tame parts and the degree
    correction, from the kernel.
    """
    model = _common_model(A, B)
    aA, aB = A.artin(), B.artin()
    if not (aA > 1 and aB > 1):
        raise PreconditionError("both conductor exponents must exceed 1")
    blocks = class_tensor(A.rho, B.rho)
    lhs = Fraction(sum(n * s.dim for s, n in blocks) - class_degree(model, blocks))
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
