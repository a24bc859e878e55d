"""Conductor exponents attached to subgroup filtrations.

For a filtration G_0 >= G_1 >= ... >= 1 and characters tau, sigma of G_0
the building blocks are, per level i,

    nonfixed_dim  = dim tau - dim tau^{G_i}
    tensor_excess = dim (tau x sigma)^{G_i} - dim tau^{G_i} * dim sigma^{G_i}

and the conductor exponent is the sum of nonfixed_dim / [G_0 : G_i] over
all levels.  Everything is an exact rational; denominators divide |G_0|.

`conductor` averages class values, one average per distinct level, for
all levels at once: it is the oracle.  The per-level `nonfixed_dim` and
`tensor_fixed_excess`, which tests compare it with, live in
`tests/oracles.py`.  The tensor bounds take a `CorpusChain` and
`Character`s of its table, and dot their vectors with its `kernel_rows`,
the Artin row and each level's fixed dimensions (`CorpusChain.fixed`); the
per-level identity's `step_kernel_side` reads vectors, `step_class_side` class values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, List, Optional, Sequence, Tuple

from .chars import Character, ClassFunction, fixed_dim
from .corpus import CorpusChain
from .errors import PreconditionError
from .groups import Filtration, pgroup_prime


class ConductorReport:
    """Per-level terms and the exact total for one (or a pair of) characters."""

    __slots__ = ("level_terms", "indices", "total", "excess_terms", "excess_total")

    def __init__(self, level_terms: Tuple[int, ...], indices: Tuple[int, ...],
                 total: Fraction, excess_terms: Optional[Tuple[int, ...]] = None,
                 excess_total: Optional[Fraction] = None):
        self.level_terms = level_terms
        self.indices = indices
        self.total = total
        self.excess_terms = excess_terms
        self.excess_total = excess_total
        assert all(a >= b for a, b in zip(level_terms, level_terms[1:])), \
            "conductor terms must be weakly decreasing"
        assert all(t >= 0 for t in level_terms)
        m = lcm(*indices)
        assert total == Fraction(sum(t * m // d for t, d in zip(level_terms, indices)), m)
        if excess_terms is not None:
            assert all(t >= 0 for t in excess_terms)


def _fixed_by_size(chi: ClassFunction, filt: Filtration) -> dict:
    """|G_i| -> fixed_dim(chi, G_i), once per distinct level (in a
    descending chain, levels of one size are one subgroup)."""
    return {H.size: fixed_dim(chi, H) for H in {H.size: H for H in filt.chain}.values()}


def conductor(tau: ClassFunction, filt: Filtration,
              sigma: Optional[ClassFunction] = None) -> ConductorReport:
    """Exact conductor exponent of tau over the filtration.

    With a second character the tensor-excess terms and their weighted
    total are reported as well.  A level's weight 1/[G_0 : G_i] is
    |G_i|/|G_0|, so each total is one fraction over |G_0|.
    """
    sizes, order = [H.size for H in filt.chain], filt.parent.order
    dim, fixed = tau.dim, _fixed_by_size(tau, filt)
    terms = tuple(dim - fixed[n] for n in sizes)
    total = Fraction(sum(map(mul, terms, sizes)), order)
    excess_terms = excess_total = None
    if sigma is not None:
        f12, f2 = _fixed_by_size(tau * sigma, filt), _fixed_by_size(sigma, filt)
        excess_terms = tuple(f12[n] - fixed[n] * f2[n] for n in sizes)
        excess_total = Fraction(sum(map(mul, excess_terms, sizes)), order)
    return ConductorReport(terms, filt.indices, total, excess_terms, excess_total)


def conductor_exponent(tau: ClassFunction, filt: Filtration) -> Fraction:
    return conductor(tau, filt).total


def step_kernel_side(tau1: Character, tau2: Character, chain: CorpusChain) -> List[int]:
    """Step-identity's lhs per level i, |t1| a_i(t2) + |t2| a_i(t1) - a_i(t1 x t2)
    with a_i = dim - dim^{G_i}, the product's vector by `CharacterTable.tensor_mults`."""
    T = chain.table
    f1, f2 = chain.fixed(tau1), chain.fixed(tau2)
    c12 = T.assemble(T.tensor_mults(tau1.mults, tau2.mults))
    return [tau1.dim * (tau2.dim - g2) + tau2.dim * (tau1.dim - g1) - (c12.dim - g12)
            for g1, g2, g12 in zip(f1, f2, chain.fixed(c12))]


def step_class_side(tau1: Character, tau2: Character, chain: CorpusChain) -> List[int]:
    """Step-identity's rhs per level i, a_i(t1) a_i(t2) + excess_i(t1, t2),
    the excess from the class-by-class product t1 * t2 (`fixed_dim`)."""
    product = tau1 * tau2
    return [(tau1.dim - f1) * (tau2.dim - f2) + fixed_dim(product, H) - f1 * f2
            for H, f1, f2 in zip(chain.filtration.chain, chain.fixed(tau1), chain.fixed(tau2))]


def min_sum_bound(M: Fraction, a: Sequence[Fraction], b: Sequence[Fraction],
                  d: Sequence[Fraction]) -> Tuple[Fraction, Fraction]:
    """Both sides of the weighted min bound for gap sequences.

    For decreasing sequences with values in {0} or [M, inf) and positive
    weights d:  sum a_i b_i / d_i  >=  M * min(sum a_i/d_i, sum b_i/d_i).
    """
    M = Fraction(M)
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    d = [Fraction(x) for x in d]
    if not (len(a) == len(b) == len(d)):
        raise PreconditionError("'a', 'b' and 'd' must share one length")
    if M <= 0:
        raise PreconditionError("threshold 'M' must be positive")
    if any(x <= 0 for x in d):
        raise PreconditionError("weights 'd' must be positive")
    for name, seq in (("a", a), ("b", b)):
        if any(x > y for x, y in zip(seq[1:], seq)):
            raise PreconditionError(f"'{name}' must be weakly decreasing")
        if any(0 < x < M for x in seq):
            raise PreconditionError(f"'{name}' values must be 0 or >= {M}")
    lhs = sum((x * y / w for x, y, w in zip(a, b, d)), Fraction(0))
    rhs = M * min(sum((x / w for x, w in zip(a, d)), Fraction(0)),
                  sum((y / w for y, w in zip(b, d)), Fraction(0)))
    return lhs, rhs


def tensor_rhs(dim1, dim2, a1, a2, coeff, correction):
    """The right-hand side of every tensor-conductor bound in the package,
    dim1 a2 + dim2 a1 - coeff min(a1, a2) - correction, for two objects of
    dimensions dim1, dim2 and exponents a1, a2 (Artin or Swan)."""
    return dim1 * a2 + dim2 * a1 - coeff * min(a1, a2) - correction


def symplectic_tensor_bound(tau1: Character, tau2: Character,
                            chain: CorpusChain) -> Tuple[Fraction, Fraction]:
    """Conductor bound for a tensor product of two symplectic characters.

    lhs = a(t1 x t2), rhs = |t1| a(t2) + |t2| a(t1) - 2 min(a(t1), a(t2))
    - excess(t1, t2); the contract is lhs <= rhs.
    """
    return _tensor_bound(tau1, tau2, chain, Fraction(2), chain.table.is_symplectic_mults,
                         "must be a symplectic character")


def pgroup_tensor_bound(tau1: Character, tau2: Character,
                        chain: CorpusChain, p: int) -> Tuple[Fraction, Fraction]:
    """Conductor bound when G_0 is a p-group and both characters have
    rational characteristic polynomials; the min coefficient becomes p-1."""
    G = chain.filtration.parent
    if pgroup_prime(G.order) != p:  # as the suites' p-group pool is drawn
        raise PreconditionError(f"'p' is {p}, but {G.name} is not a {p}-group")
    return _tensor_bound(tau1, tau2, chain, Fraction(p - 1), chain.table.is_rational_mults,
                         "must have rational characteristic polynomials")


def _tensor_bound(tau1: Character, tau2: Character, chain: CorpusChain, coeff: Fraction,
                  valid: Callable[[Sequence[int]], bool], must: str) -> Tuple[Fraction, Fraction]:
    """The bound's sides for two characters of the chain's table whose
    vectors pass `valid`.  The conductors are the vectors of both and of
    their product (`tensor_mults`) dotted with the chain's `kernel_rows`;
    the excess is weighted per level by 1/[G_0 : G_i] = |G_i|/|G_0|."""
    T = chain.table
    for name, t in (("tau1", tau1), ("tau2", tau2)):
        if not valid(T.own(t).mults):
            raise PreconditionError(f"'{name}' {must}")
    c12 = T.assemble(T.tensor_mults(tau1.mults, tau2.mults))
    artin, order = chain.kernel_rows[0], chain.filtration.parent.order
    a1, a2, a12 = (Fraction(sum(map(mul, artin, c.mults)), order) for c in (tau1, tau2, c12))
    levels = zip(*map(chain.fixed, (c12, tau1, tau2)), (H.size for H in chain.filtration.chain))
    excess = Fraction(sum((f12 - f1 * f2) * n for f12, f1, f2, n in levels), order)
    return a12, tensor_rhs(tau1.dim, tau2.dim, a1, a2, coeff, excess)
