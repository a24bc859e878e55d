"""Weil-Deligne block data over a finite inertia model: a `corpus.CorpusChain`
with a residue characteristic, its lower-numbering chain on a finite group.

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
multiply vectors through the table's structure constants.  The `class_*`
functions below compute the same quantities from class values instead, by
`conductor_exponent` and `fixed_dim` on the chain; they are the oracle that
the semistable and tame-identity class sides compare the kernel with.

The bounds and identities are statements about a pair of data over one
model and their tensor product; a `LocalPair` holds the two data and builds
that product once for all of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import List, Sequence, Tuple

from .chars import Character, ClassFunction, fixed_dim
from .corpus import CorpusChain
from .errors import PreconditionError
from .filtration import conductor_exponent, tensor_rhs


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def clebsch_gordan(n: int, m: int) -> List[int]:
    """Sizes of the special blocks in sp(n) x sp(m): n+m+1-2i, i=1..min(n,m)."""
    if n < 1 or m < 1:
        raise ValueError("special representation sizes must be positive")
    return [n + m + 1 - 2 * i for i in range(1, min(n, m) + 1)]


class WDRep:
    """A multiset of blocks (sigma, n) over a fixed inertia model.

    Each sigma must be a nonnegative `Character` of the model's table (see
    `CharacterTable.own`), and every quantity below is an integer or Fraction
    dot product of its multiplicities with the model's `kernel_rows`.  The
    blocks are kept one per special size n, sorted by n, with blocks of
    equal size summed and zero blocks dropped, so equal representations
    have equal blocks.
    """

    __slots__ = ("model", "blocks")

    def __init__(self, model: CorpusChain, blocks: Sequence[Tuple[Character, int]]):
        T = model.table
        by_size = {}
        for sigma, n in blocks:
            T.own(sigma)
            if n < 1:
                raise ValueError("special block size must be >= 1")
            if n in by_size:
                sigma = T.assemble(list(map(add, by_size[n].mults, sigma.mults)))
            by_size[n] = sigma
        self.model = model
        self.blocks = tuple((s, n) for n, s in sorted(by_size.items()) if not s.is_zero())

    @property
    def dim(self) -> int:
        return sum(n * sigma.dim for sigma, n in self.blocks)

    def artin_conductor(self) -> Fraction:
        """Sum over blocks of n a(sigma) + (n-1) dim sigma^{G_0}."""
        arow, (frow, *_) = self.model.kernel_rows
        order = self.model.filtration.parent.order
        return Fraction(sum(n * _dot(s.mults, arow) + (n - 1) * order * _dot(s.mults, frow)
                            for s, n in self.blocks), order)

    def swan_conductor(self) -> Fraction:
        """The Artin conductor less the tame part dim - deg: over blocks
        (sigma, n), a - Sw = sum (n-1) dim sigma^{G_0} + n (dim sigma - dim sigma^{G_0})."""
        return self.artin_conductor() - (self.dim - self.degree())

    def degree(self) -> int:
        """L-polynomial degree: one inertia-fixed contribution per block."""
        frow = self.model.kernel_rows[1][0]
        return sum(_dot(s.mults, frow) for s, _ in self.blocks)

    def tensor(self, other: "WDRep") -> "WDRep":
        if self.model is not other.model:
            raise PreconditionError("tensor product needs a common inertia model")
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
        return self.model is other.model and self.blocks == other.blocks

    __hash__ = None

    def __repr__(self):
        return f"WDRep({[(s.dim, n) for s, n in self.blocks]})"


def tensor(rho1: WDRep, rho2: WDRep) -> WDRep:
    return rho1.tensor(rho2)


class AbVarDatum(WDRep):
    """Inertia data of abelian-variety shape: tau + (sigma x sp(2))."""

    __slots__ = ()

    def __init__(self, model: CorpusChain, tau: Character, sigma: Character):
        super().__init__(model, [(tau, 1), (sigma, 2)])
        T = model.table
        if not T.is_symplectic_mults(tau.mults):
            raise PreconditionError("toric-free part tau must be symplectic")
        if not T.is_self_dual_mults(sigma.mults):
            raise PreconditionError("sp(2) part sigma must be self-dual")
        if not T.is_rational_mults([t + 2 * s for t, s in zip(tau.mults, sigma.mults)]):
            raise PreconditionError("inertia restriction must have rational characteristic polynomials")
        assert self.dim % 2 == 0

    @property
    def rho(self) -> WDRep:
        """The datum itself, already in block form (the benchmark's layer
        timings read `A.rho`)."""
        return self

    def is_semistable(self) -> bool:
        """Inertia restriction of shape trivial^m + sp(2)^n."""
        triv = self.model.table.index_of_trivial()
        return not any(m for s, _ in self.blocks for i, m in enumerate(s.mults) if i != triv)


# -- the class-average oracle -------------------------------------------------------
#
# A tensor product's blocks with their characters multiplied class by class,
# and its conductor and degree by averages over the model's chain.
# Nothing here reads a multiplicity vector.


def class_tensor(rho1: WDRep, rho2: WDRep) -> List[Tuple[ClassFunction, int]]:
    """The blocks of rho1 x rho2, each product character from class values."""
    blocks = []
    for s1, n in rho1.blocks:
        for s2, m in rho2.blocks:
            prod = s1 * s2
            blocks.extend((prod, k) for k in clebsch_gordan(n, m))
    return blocks


def class_artin(model: CorpusChain, blocks) -> Fraction:
    """Sum over blocks of n a(sigma) + (n-1) dim sigma^{G_0}, by averages."""
    return sum((n * conductor_exponent(s, model.filtration)
                + (n - 1) * fixed_dim(s, model.filtration[0]) for s, n in blocks), Fraction(0))


def class_degree(model: CorpusChain, blocks) -> int:
    return sum(fixed_dim(s, model.filtration[0]) for s, _ in blocks)


class LocalPair:
    """Two data over one inertia model, with their tensor product A x B
    built once for every bound and identity that reads it."""

    def __init__(self, A: AbVarDatum, B: AbVarDatum):
        self.A = A
        self.B = B
        if A.model is not B.model:
            raise PreconditionError("data live over different inertia models")

    @property
    def model(self) -> CorpusChain:
        return self.A.model

    @cached_property
    def product(self) -> WDRep:
        return self.A.tensor(self.B)

    @cached_property
    def degree_correction(self) -> int:
        """deg(A x B) - deg(A) deg(B); nonnegative for valid data."""
        return self.product.degree() - self.A.degree() * self.B.degree()


def semistable_form(A: WDRep, B: WDRep, correction: int) -> Fraction:
    """dim(A) a(B) + deg(B) a(A) - correction: a(A x B) when A is
    semistable, and whenever a(A) <= 1, the correction being the pair's
    degree correction."""
    return A.dim * B.artin_conductor() + B.degree() * A.artin_conductor() - correction


def semistable_class_side(pair: LocalPair) -> Fraction:
    """The semistable identity's lhs: a(A x B) from class averages."""
    return class_artin(pair.model, class_tensor(pair.A, pair.B))


def semistable_kernel_side(pair: LocalPair) -> Fraction:
    """The semistable identity's rhs: `semistable_form` from the kernel."""
    return semistable_form(pair.A, pair.B, pair.degree_correction)


def improvement_constant(p: int, *tame_codims: int) -> int:
    """The Swan coefficient max(2, p-1), capped by any tame codimensions dim - deg."""
    return min((max(2, p - 1), *tame_codims))


def swan_bound(pair: LocalPair) -> Tuple[Fraction, Fraction]:
    """Wild-part bound: lhs = Sw(AxB), rhs with the Swan coefficient."""
    A, B = pair.A, pair.B
    lhs = pair.product.swan_conductor()
    return lhs, tensor_rhs(A.dim, B.dim, A.swan_conductor(), B.swan_conductor(),
                           improvement_constant(pair.model.model_p), 0)


def tame_class_side(pair: LocalPair) -> Fraction:
    """The tame identity's lhs: dim(AxB) - deg(AxB) from the class-average product."""
    blocks = class_tensor(pair.A, pair.B)
    return Fraction(sum(n * s.dim for s, n in blocks) - class_degree(pair.model, blocks))


def tame_kernel_side(pair: LocalPair) -> Fraction:
    """The tame identity's rhs: the four-term expansion in tame parts dim - deg, from the kernel."""
    A, B = pair.A, pair.B
    tameA, tameB = A.dim - A.degree(), B.dim - B.degree()
    return Fraction(A.dim * tameB + B.dim * tameA - tameA * tameB - pair.degree_correction)


def conductor_bound(pair: LocalPair) -> Tuple[Fraction, Fraction, int]:
    """The full tensor-conductor bound with the improvement constant.

    Returns (lhs, rhs, C) with lhs = a(AxB) and
    rhs = dim(A) a(B) + dim(B) a(A) - C min(a(A), a(B)) - degree correction.
    When a(A) <= 1 or a(B) <= 1, lhs equals `semistable_form`, not rhs.
    """
    A, B = pair.A, pair.B
    C = improvement_constant(pair.model.model_p, A.dim - A.degree(), B.dim - B.degree())
    rhs = tensor_rhs(A.dim, B.dim, A.artin_conductor(), B.artin_conductor(), C,
                     pair.degree_correction)
    return pair.product.artin_conductor(), rhs, C


def uniform_rhs(dim_a, dim_b, a_a, a_b, correction):
    """(rhs, kept): constant 2, and the correction kept only when a_a a_b > 1."""
    kept = correction if a_a * a_b > 1 else 0
    return tensor_rhs(dim_a, dim_b, a_a, a_b, 2, kept), kept


def uniform_bound(pair: LocalPair) -> Tuple[Fraction, Fraction, int]:
    """The uniform bound, `uniform_rhs` for the pair.  Returns (lhs, rhs, correction_used)."""
    A, B = pair.A, pair.B
    rhs, corr = uniform_rhs(A.dim, B.dim, A.artin_conductor(), B.artin_conductor(),
                            pair.degree_correction)
    return pair.product.artin_conductor(), rhs, corr


def degree_gap(A: AbVarDatum) -> int:
    """deg(AxA) - deg(A)^2; at least 1 whenever a(A) > 0."""
    return LocalPair(A, A).degree_correction
