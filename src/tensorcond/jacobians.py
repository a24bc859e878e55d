"""The family of Jacobians of y^2 = x^p - alpha over Q_p, p odd.

For a unit a with a^(p-1) != 1 mod p^2 the pair (J_a, J_p) realises every
tensor-conductor bound in this package with equality.  Swan exponents come
from an exact integer resultant (no p-adic truncation), by Euclid's
algorithm on integer pseudo-remainders; the compositum is handled by
per-character Swan slopes with the ultrametric product rule instead of an
explicit ramification chain.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Tuple

from .chars import ClassFunction
from .corpus import ChainReader, CorpusChain
from .errors import PreconditionError, shown
from . import groups
from .groups import FiniteGroup, is_prime
from .filtration import ConductorReport, conductor, tensor_rhs
from .weildeligne import WDRep, improvement_constant


def _check_prime(p: int) -> None:
    """p is an odd prime whose Aff(p) the order cap holds; p and then the
    order are held to the cap first, so that a huge p costs no primality test."""
    cap = groups.DEFAULT_ORDER_CAP
    if p > cap:
        raise PreconditionError(f"p is above the cap {cap}, and so is the order of Aff(p)")
    if p > 2 and p * (p - 1) > cap:
        raise PreconditionError(f"p={p}: the inertia group Aff({p}) has order "
                                f"{p * (p - 1)}, above the cap {cap}")
    if not is_prime(p) or p == 2:
        raise PreconditionError(f"p={shown(p)} must be an odd prime")


def validate_params(p: int, a: int) -> Tuple[int, int]:
    """(p, a) for an odd prime p, Aff(p) of order p(p-1) within the order
    cap, and a unit representative a with a^(p-1) != 1 mod p^2."""
    _check_prime(p)
    if a % p == 0:
        raise PreconditionError(f"a={shown(a)} is not a unit mod {p}")
    if pow(a, p - 1, p * p) == 1:
        raise PreconditionError(f"a={shown(a)} satisfies a^(p-1) = 1 mod {p}^2")
    return p, a


def smallest_valid_unit(p: int) -> int:
    """The least a >= 2 with a^(p-1) != 1 mod p^2 (1 + p always qualifies)."""
    _check_prime(p)
    return next(a for a in range(2, p + 2) if a % p and pow(a, p - 1, p * p) != 1)


# -- discriminant route -------------------------------------------------------


def _poly_strip(p: list) -> list:
    """p without its trailing zero coefficients (in place)."""
    while p and p[-1] == 0:
        p.pop()
    return p


def sylvester_resultant(f: List[int], g: List[int]) -> int:
    """Resultant of two integer polynomials (ascending coefficients), by
    Euclid's algorithm: with r = f mod g over Q,
    res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) res(g, r),
    down to res(f, c) = c^deg f for a constant c, and 0 when r = 0.  In
    integers, lc(g)^k f = q g + c r' with k = max(deg f - deg g + 1, 0) and
    r' primitive, so res(g, r) = (c / lc(g)^k)^deg g res(g, r')."""
    f, g = _poly_strip(list(f)), _poly_strip(list(g))
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    num = den = 1
    while len(g) > 1:
        n, m, lead = len(f) - 1, len(g) - 1, g[-1]
        prem = list(f)  # each step scales by lc(g) and cancels the top term
        while len(prem) > m:
            c, d = prem.pop(), len(prem) - m
            prem = [x * lead for x in prem]
            for j in range(m):
                prem[d + j] -= c * g[j]
        if not _poly_strip(prem):
            return 0
        content = gcd(*prem)
        num *= (-1) ** (n * m) * lead ** (n - len(prem) + 1) * content ** m
        den *= lead ** (max(n - m + 1, 0) * m)
        f, g = g, [x // content for x in prem]
    num *= g[0] ** (len(f) - 1)
    res, rest = divmod(num, den)
    assert rest == 0
    return res


def p_valuation(p: int, n: int) -> int:
    """v_p(n), the exponent of p in the integer n != 0."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def disc_valuation(p: int, alpha: int) -> int:
    """v_p of the discriminant of x^p - alpha, by exact resultant."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    f = [-alpha] + [0] * (p - 1) + [1]
    df = [i * f[i] for i in range(1, p + 1)]
    res = sylvester_resultant(f, df)
    return p_valuation(p, res)


def swan_jacobian(p: int, alpha: int) -> int:
    """Swan exponent of J_alpha: v(disc) - degree + residue degree.

    Both x^p - p and the shifted polynomial for a unit alpha are Eisenstein,
    so the degree-p extension is totally ramified with residue degree 1.
    """
    if alpha != p:
        validate_params(p, alpha)
    return disc_valuation(p, alpha) - p + 1


# -- filtration route ---------------------------------------------------------


def _standard_character(G: FiniteGroup, p: int) -> ClassFunction:
    """The (p-1)-dimensional irreducible of the affine group, from class
    values: the natural permutation character on F_p minus the trivial one.
    Its value v at a class is the integer v zeta_e^0, the one term (0, v)
    over the group exponent e, and no term when v = 0."""
    rows = []
    for rep in G.class_reps:
        a = rep // p + 1
        fixed_points = p if rep == 0 else (0 if a == 1 else 1)
        v = fixed_points - 1
        rows.append(((0, v),) if v else ())
    return ClassFunction(G, rows)


def jacobian_chain(chains: ChainReader, p: int, alpha: int) -> CorpusChain:
    """The model chain of J_alpha, read through `chains`: Aff(p), then
    Sw(J_alpha) = 1 + (p - 1) v_p(alpha) copies of the translations (x -> x + 1
    is 1), then 1.  That Sw is the discriminant's closed form, not the resultant."""
    return chains({"group": {"kind": "affine", "p": p}, "model_p": p, "subgroups":
                   [[1]] * (1 + (p - 1) * p_valuation(p, alpha))}, f"the Aff({p}) model")


def jacobian_inertia_model(p: int, alpha: int) -> WDRep:
    """J_alpha, alpha p or a unit that `validate_params` takes, as one block (chi, 1)
    over `jacobian_chain`, chi the unique irreducible of degree p-1 of Aff(p)."""
    if alpha != p:
        validate_params(p, alpha)
    model = jacobian_chain(ChainReader(), p, alpha)
    T = model.table
    chi = T.assemble([int(d == p - 1) for d in T.degrees])
    return WDRep(model, [(chi, 1)])


def sharpness_disc_side(models) -> List[int]:
    """Sharpness's discriminant side: Sw by `swan_jacobian` of each (alpha, chain)."""
    return [swan_jacobian(chain.model_p, alpha) for alpha, chain in models]


def sharpness_chain_side(models) -> List[ConductorReport]:
    """Sharpness's chain side: the block (chi, 1) of each (alpha, chain) by
    class averages on the chain, so that no character table is built."""
    return [conductor(_standard_character(c.filtration.parent, c.model_p), c.filtration)
            for _, c in models]


# -- break (Swan slope) route ---------------------------------------------------


class BreakRep:
    """Characters of an elementary abelian wild group with Swan slopes.

    Each entry is (exponent vector mod p, break).  Trivial characters carry
    break 0 and are omitted; the Swan conductor is the sum of the breaks.
    """

    __slots__ = ("p", "rank", "characters")

    def __init__(self, p: int, rank: int,
                 characters: Tuple[Tuple[Tuple[int, ...], Fraction], ...]):
        self.p = p
        self.rank = rank
        self.characters = characters
        _, nums = _numerators(brk for _, brk in characters)
        lines = {}
        for (vec, _), num in zip(characters, nums):
            if len(vec) != rank:
                raise ValueError("exponent vector of the wrong rank")
            nonzero = [x for x in vec if x % p]
            if not nonzero:
                raise ValueError("trivial characters must be omitted")
            if num <= 0:
                raise ValueError("breaks must be positive")
            # the F_p-line of vec, by its representative with leading entry 1
            inv = pow(nonzero[0], -1, p)
            lines.setdefault(tuple([x * inv % p for x in vec]), set()).add(num)
        for line, brks in lines.items():
            if len(brks) != 1:
                raise ValueError(f"break not constant on the direction {line}")

    def swan(self) -> Fraction:
        denominator, nums = _numerators(brk for _, brk in self.characters)
        return Fraction(sum(nums), denominator)


def _numerators(breaks) -> Tuple[int, List[int]]:
    """The least common denominator of the breaks and each break's numerator
    over it, so that comparing, taking maxima and summing are on integers."""
    breaks = list(breaks)
    denominator = lcm(*{b.denominator for b in breaks})
    return denominator, [b.numerator * (denominator // b.denominator) for b in breaks]


def joint_break_model(p: int) -> Tuple[BreakRep, BreakRep]:
    """Both Jacobian representations on the joint wild group C_p x C_p.

    The p-1 characters of each factor share one slope, pinned by the
    requirement that the slope sum reproduce the Swan exponents 1 and p:
    1/(p-1) for the unit branch and p/(p-1) for the p branch.
    """
    slope_a = Fraction(1, p - 1)
    slope_p = Fraction(p, p - 1)
    rep_a = BreakRep(p, 2, tuple(((i, 0), slope_a) for i in range(1, p)))
    rep_p = BreakRep(p, 2, tuple(((0, j), slope_p) for j in range(1, p)))
    return rep_a, rep_p


def tensor_break_rep(r1: BreakRep, r2: BreakRep) -> BreakRep:
    """Product rule: break(chi psi) = max of the breaks when they differ.

    Equal breaks on a nontrivial product are ambiguous (the slope can only
    drop) and are rejected rather than guessed.
    """
    if r1.p != r2.p or r1.rank != r2.rank:
        raise PreconditionError("break representations live on different wild groups")
    p = r1.p
    _, nums = _numerators(brk for _, brk in r1.characters + r2.characters)
    left = list(zip(r1.characters, nums))
    right = list(zip(r2.characters, nums[len(left):]))
    chars = []
    for (v1, b1), n1 in left:
        for (v2, b2), n2 in right:
            vec = tuple([(x + y) % p for x, y in zip(v1, v2)])
            if not any(vec):
                continue  # trivial: break 0, contributes nothing
            if n1 == n2:
                raise PreconditionError("equal slopes: product break is not determined")
            chars.append((vec, b1 if n1 > n2 else b2))
    return BreakRep(p, r1.rank, tuple(chars))


# -- full sharpness verification -------------------------------------------------


class SharpnessReport(NamedTuple):
    p: int
    a: int
    sw_a: int
    sw_p: int
    sw_a_filtration: Fraction
    sw_p_filtration: Fraction
    artin_a: Fraction
    artin_p: Fraction
    deg_a: int
    deg_p: int
    sw_tensor: Fraction
    swan_rhs: Fraction
    a_tensor: Fraction
    conductor_rhs: Fraction
    c_p: int
    equal: bool

    def to_json(self) -> dict:
        """The fields by name, each Fraction as its string."""
        return {k: str(v) if isinstance(v, Fraction) else v
                for k, v in zip(self._fields, self)}


def verify_sharpness(params: Tuple[int, int],
                     chains: Optional[ChainReader] = None) -> SharpnessReport:
    """Check that both tensor-conductor bounds are met with equality.

    Swan exponents are computed three ways and must agree: by the
    discriminant resultant, on the filtration model, and by the break
    calculus, which also gives the tensor Swan; the tensor Artin adds the
    tame part, which is the full dimension because neither inertia level
    has fixed vectors.  Both models are chains on one Aff(p), read through
    `chains` (a fresh ChainReader when none is given), so a run builds each
    Aff(p) and each model once.
    """
    p, a = params
    reader = ChainReader() if chains is None else chains
    models = [(alpha, jacobian_chain(reader, p, alpha)) for alpha in (a, p)]
    return sharpness_report(p, a, sharpness_disc_side(models), sharpness_chain_side(models))


def sharpness_report(p: int, a: int, swans, reports: List[ConductorReport]) -> SharpnessReport:
    """`verify_sharpness` from the two sides on J_a and J_p."""
    dim = p - 1
    sw_a, sw_p = swans
    artin_a, artin_p = (r.total for r in reports)
    # level terms are codimensions of fixed spaces: the inertia level's is the
    # tame part of a, and level 1 is the wild group
    sw_a_filt, sw_p_filt = (r.total - r.level_terms[0] for r in reports)
    deg_a, deg_p = (dim - r.level_terms[0] for r in reports)
    wild_fixed = [dim - r.level_terms[1] for r in reports]

    rep_a, rep_p = joint_break_model(p)
    prod = tensor_break_rep(rep_a, rep_p)
    sw_tensor = prod.swan()
    swan_rhs = tensor_rhs(dim, dim, sw_a_filt, sw_p_filt, improvement_constant(p), 0)

    # the wild group fixes nothing in the product (every exponent vector is
    # nonzero), so neither does inertia: the tame part is the full dim^2
    wild_invariants = dim * dim - len(prod.characters)
    tensor_deg = wild_invariants  # = 0; inertia-fixed <= wild-fixed
    a_tensor = dim * dim - tensor_deg + sw_tensor
    c_p = improvement_constant(p, dim - deg_a, dim - deg_p)
    conductor_rhs = tensor_rhs(dim, dim, artin_a, artin_p, c_p, tensor_deg - deg_a * deg_p)

    equal = (
        sw_a_filt == sw_a and sw_p_filt == sw_p
        and rep_a.swan() == sw_a and rep_p.swan() == sw_p
        and artin_a == dim + sw_a and artin_p == dim + sw_p
        and deg_a == 0 and deg_p == 0 and wild_fixed == [0, 0]
        and sw_tensor == swan_rhs
        and a_tensor == conductor_rhs
    )
    return SharpnessReport(p, a, sw_a, sw_p, sw_a_filt, sw_p_filt,
                           artin_a, artin_p, deg_a, deg_p,
                           sw_tensor, swan_rhs, a_tensor, conductor_rhs,
                           c_p, equal)
