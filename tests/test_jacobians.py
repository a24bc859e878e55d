import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tensorcond.errors import PreconditionError
from tensorcond.groups import is_prime
from tensorcond.jacobians import (BreakRep, disc_valuation,
                                  jacobian_inertia_model, joint_break_model, p_valuation,
                                  smallest_valid_unit, swan_jacobian, sylvester_resultant,
                                  tensor_break_rep, validate_params,
                                  verify_sharpness)

from oracles import bareiss_det, sylvester_matrix, tensor_break_swan

PRIMES = (3, 5, 7, 11, 13)


def test_validate_params():
    assert validate_params(3, 2) == (3, 2)
    with pytest.raises(PreconditionError, match=re.escape("a=7 satisfies a^(p-1) = 1 mod 5^2")):
        validate_params(5, 7)       # 7^4 = 2401 = 1 mod 25
    with pytest.raises(PreconditionError, match="a=3 is not a unit mod 3"):
        validate_params(3, 3)       # not a unit
    with pytest.raises(PreconditionError, match=re.escape("a=8 satisfies a^(p-1) = 1 mod 3^2")):
        validate_params(3, 8)       # 8^2 = 64 = 1 mod 9
    with pytest.raises(PreconditionError, match="p=2 must be an odd prime"):
        validate_params(2, 3)       # p must be odd
    for p in PRIMES:
        a = smallest_valid_unit(p)
        assert a >= 2
        assert validate_params(p, a) == (p, a)


def test_sylvester_resultant_basics():
    # res(x - a, x - b) = a - b up to sign convention: (a - b) for these rows
    assert abs(sylvester_resultant([-2, 1], [-5, 1])) == 3
    # res(x^2+1, x^2-1) = 4
    assert abs(sylvester_resultant([1, 0, 1], [-1, 0, 1])) == 4
    # common root gives 0
    assert sylvester_resultant([-1, 1], [-1, 1]) == 0


def test_disc_valuation_examples():
    assert disc_valuation(3, 2) == 3
    assert disc_valuation(3, 3) == 5
    assert disc_valuation(5, 5) == 9


def test_disc_valuation_closed_form():
    def vp(p, n):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v
    for p in PRIMES:
        for alpha in (1, 2, 6, p, 2 * p, p * p, p ** 3, p + 1):
            assert disc_valuation(p, alpha) == p + (p - 1) * vp(p, alpha)


def test_swan_jacobian():
    assert swan_jacobian(3, 2) == 1
    assert swan_jacobian(3, 3) == 3
    assert swan_jacobian(11, 11) == 11
    for p in PRIMES:
        a = smallest_valid_unit(p)
        assert swan_jacobian(p, a) == 1
        assert swan_jacobian(p, p) == p


def test_filtration_model_agrees_with_discriminant_route():
    for p in PRIMES:
        a = smallest_valid_unit(p)
        for alpha in (a, p):
            rho = jacobian_inertia_model(p, alpha)
            assert rho.swan_conductor() == swan_jacobian(p, alpha)
            assert rho.artin_conductor() == (p - 1) + swan_jacobian(p, alpha)
            assert rho.degree() == 0
            assert rho.dim == p - 1


def test_break_model_sums():
    for p in (3, 5, 7):
        rep_a, rep_p = joint_break_model(p)
        assert rep_a.swan() == 1
        assert rep_p.swan() == p
        prod = tensor_break_rep(rep_a, rep_p)
        assert prod.swan() == p * (p - 1)
        assert len(prod.characters) == (p - 1) ** 2
        assert all(brk == Fraction(p, p - 1) for _, brk in prod.characters)


def test_break_rep_validation():
    with pytest.raises(ValueError):
        BreakRep(3, 1, (((0,), Fraction(1, 2)),))   # trivial listed
    with pytest.raises(ValueError):
        BreakRep(3, 1, (((1,), Fraction(1, 2)), ((2,), Fraction(3, 2))))
    with pytest.raises(ValueError, match="wrong rank"):
        BreakRep(3, 2, (((1,), Fraction(1, 2)),))
    with pytest.raises(ValueError, match="positive"):
        BreakRep(3, 1, (((1,), Fraction(0)),))
    rep = BreakRep(3, 1, (((1,), Fraction(1, 2)), ((2,), Fraction(1, 2))))
    with pytest.raises(PreconditionError, match="equal slopes"):
        tensor_break_rep(rep, rep)   # equal slopes are ambiguous


def test_empty_break_rep():
    rep = BreakRep(3, 2, ())
    assert rep.swan() == 0


def test_verify_sharpness_all_primes():
    for p in PRIMES:
        a = smallest_valid_unit(p)
        report = verify_sharpness(validate_params(p, a))
        assert report.equal
        assert report.sw_a == 1
        assert report.sw_p == p
        assert report.sw_tensor == p * (p - 1)
        assert report.a_tensor == (2 * p - 1) * (p - 1)
        assert report.swan_rhs == report.sw_tensor
        assert report.conductor_rhs == report.a_tensor
    assert verify_sharpness(validate_params(3, 2)).a_tensor == 10
    assert verify_sharpness(validate_params(5, 2)).a_tensor == 36


def test_sharpness_builds_one_group_and_each_resultant_once(monkeypatch):
    """Through one reader, one Aff(p) per distinct p, shared by both models
    and by every later report on that p; one resultant per alpha (the
    report's two, and the suite item's five, which reuse those two); and no
    character table: the blocks are read by class averages.  A call without
    a reader, and a suite check given a fresh one, build their own group."""
    from tensorcond import groups, jacobians, suites
    from tensorcond.corpus import ChainReader
    built, alphas = [], []
    real_build, real_resultant = groups.affine, jacobians.sylvester_resultant

    def counting_build(p):
        built.append(real_build(p))
        return built[-1]

    def counting_resultant(f, g):
        alphas.append(-f[0])  # f = x^p - alpha
        return real_resultant(f, g)
    monkeypatch.setattr(groups, "affine", counting_build)
    monkeypatch.setattr(jacobians, "sylvester_resultant", counting_resultant)
    reader = ChainReader()
    for p in (3, 7, 3, 7):
        alphas.clear()
        a = smallest_valid_unit(p)
        assert verify_sharpness(validate_params(p, a), reader).equal
        assert sorted(alphas) == sorted([a, p])
    assert [G.spec for G in built] == [{"kind": "affine", "p": 3}, {"kind": "affine", "p": 7}]
    assert all(G._char_table is None for G in built)
    for p in (3, 7):
        a = smallest_valid_unit(p)
        built.clear(), alphas.clear()
        assert verify_sharpness(validate_params(p, a)).equal
        assert len(built) == 1 and built[0]._char_table is None
        for chains, builds in ((ChainReader(), 1), (reader, 0)):
            built.clear(), alphas.clear()
            ok, detail = suites._check_sharpness({"p": p, "a": a}, chains)
            assert ok and detail["disc_closed_form"]
            assert len(built) == builds
            assert sorted(alphas) == sorted([a, p, p * p, a * p, a + p])


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_pairs():
    """Seeded integer polynomial pairs of degrees 0-8 each, with leading
    coefficients of both signs, and pairs sharing a factor of degree 1 or 2
    (so a common root, and resultant 0)."""
    rng = random.Random("euclid-resultant")

    def poly(deg):
        return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 5))]
    out = []
    for df in range(9):
        for dg in range(9):
            out.append((poly(df), poly(dg)))
            if df and dg:
                h = poly(rng.randint(1, min(2, df, dg)))
                out.append((_times(h, poly(df - len(h) + 1)), _times(h, poly(dg - len(h) + 1))))
    return out


def test_resultant_matches_the_sylvester_determinant():
    pairs = _random_pairs()
    zero = set()
    for f, g in pairs:
        res = bareiss_det(sylvester_matrix(f, g))
        assert sylvester_resultant(f, g) == res, (f, g)
        zero.add(res == 0)
    assert zero == {True, False}
    assert any(len(f) < len(g) for f, g in pairs)
    assert any(f[-1] < 0 and g[-1] < 0 for f, g in pairs)


def test_disc_valuation_matches_the_dense_determinant_up_to_the_order_cap():
    """The resultant of x^p - alpha and its derivative against Bareiss on
    the same Sylvester matrix, for every odd prime the order cap admits."""
    for p in (q for q in range(3, 44) if is_prime(q)):
        a = smallest_valid_unit(p)
        for alpha in (a, p, a * p):
            f = [-alpha] + [0] * (p - 1) + [1]
            df = [i * f[i] for i in range(1, p + 1)]
            res = bareiss_det(sylvester_matrix(f, df))
            assert sylvester_resultant(f, df) == res, (p, alpha)
            assert disc_valuation(p, alpha) == p_valuation(p, res), (p, alpha)


def test_validate_params_refuses_a_group_above_the_order_cap():
    assert validate_params(43, smallest_valid_unit(43))[0] == 43
    with pytest.raises(PreconditionError, match="above the cap"):
        validate_params(47, 2)


def test_jacobian_model_builds_without_decomposing(monkeypatch):
    from tensorcond.chars import CharacterTable

    def refuse(self, chi):
        raise AssertionError("the Jacobian model decomposed a class function")
    monkeypatch.setattr(CharacterTable, "multiplicities", refuse)
    for p in PRIMES:
        a = smallest_valid_unit(p)
        rho = jacobian_inertia_model(p, a)
        assert rho.swan_conductor() == swan_jacobian(p, a)
        assert rho.dim == p - 1


def test_jacobian_vector_is_the_standard_character():
    """The degree-(p-1) irreducible's class values against the permutation
    character minus the trivial one, which is irreducible."""
    from tensorcond.jacobians import _standard_character

    from oracles import inner_product
    for p in PRIMES:
        ((chi, n),) = jacobian_inertia_model(p, smallest_valid_unit(p)).blocks
        std = _standard_character(chi.group, p)
        assert n == 1 and list(chi.values) == list(std.values), p
        assert inner_product(std, std) == 1, p


def test_standard_character_form_matches_a_build_from_values():
    """`_standard_character` writes its exponent form directly, a value v as
    the one term (0, v).  Against the class function built from values, the
    fixed points of x -> a x + b on F_p counted one by one, minus 1: equal
    values at every class, and the same conductor report on both sharpness
    chains (Sw(J_a) and Sw(J_p) translation levels)."""
    from tensorcond.corpus import ChainReader
    from tensorcond.filtration import conductor
    from tensorcond.jacobians import _standard_character, jacobian_chain
    from tensorcond.suites import SHARPNESS_PRIMES

    from oracles import from_values, report_json
    for p in SHARPNESS_PRIMES:
        reader = ChainReader()
        filts = [jacobian_chain(reader, p, alpha).model().filtration
                 for alpha in (smallest_valid_unit(p), p)]
        G = filts[0].parent
        direct = _standard_character(G, p)
        values = []
        for rep in G.class_reps:
            a, b = rep // p + 1, rep % p
            values.append(sum((a * x + b) % p == x for x in range(p)) - 1)
        built = from_values(G, values)
        assert direct.form == built.form, p
        assert len(direct.values) == len(G.classes), p
        for c, (u, v) in enumerate(zip(direct.values, built.values)):
            assert u == v, (p, c)
        for filt in filts:
            assert report_json(conductor(direct, filt)) == report_json(conductor(built, filt)), p


BREAKS =st.sampled_from([Fraction(n, d) for d in (1, 2, 3, 4) for n in range(1, 9)])


@st.composite
def break_characters(draw, p: int):
    """Up to 6 (vector, break) entries of rank 2 mod p, nontrivial; usually
    one break per line (drawn per line from a small pool, so that breaks
    often coincide), sometimes any break per entry."""
    pool = draw(st.lists(BREAKS, min_size=1, max_size=3))
    per_line = draw(st.booleans())
    chars = []
    for _ in range(draw(st.integers(0, 6))):
        vec = draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(any))
        lead = next(x for x in vec if x)
        line = tuple(x * pow(lead, -1, p) % p for x in vec)
        chars.append((vec, pool[sum(line) % len(pool)] if per_line else draw(st.sampled_from(pool))))
    return tuple(chars)


def _outcome(compute):
    try:
        return compute()
    except (ValueError, PreconditionError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 13)).flatmap(
    lambda p: st.tuples(st.just(p), break_characters(p), break_characters(p))))
@example((3, (((1, 0), Fraction(1, 2)), ((2, 0), Fraction(1, 2))),
          (((0, 1), Fraction(3, 2)), ((1, 1), Fraction(5, 2)))))   # the product clashes
@example((5, (((1, 2), Fraction(1, 4)),), (((1, 2), Fraction(1, 4)),)))  # equal slopes
@example((7, (((1, 1), Fraction(1)), ((2, 2), Fraction(2))), ()))  # a clash in a factor
def test_break_calculus_matches_the_fraction_reference(case):
    """Random pairs of rank-2 break representations: the Swan conductor of
    their product, and each error, equal the max rule summed on Fractions."""
    p, chars1, chars2 = case

    def integer_kernel():
        return tensor_break_rep(BreakRep(p, 2, chars1), BreakRep(p, 2, chars2)).swan()
    assert _outcome(integer_kernel) == _outcome(lambda: tensor_break_swan(p, 2, chars1, chars2))


POLYNOMIALS = st.integers(0, 8).flatmap(lambda deg: st.tuples(
    st.lists(st.integers(-30, 30), min_size=deg, max_size=deg),
    st.integers(-30, 30).filter(bool)).map(lambda t: t[0] + [t[1]]))


@settings(max_examples=300, deadline=None)
@given(POLYNOMIALS, POLYNOMIALS)
def test_resultant_matches_bareiss_on_random_polynomials(f, g):
    """Integer polynomials of degree at most 8 with a nonzero leading
    coefficient: the pseudo-remainder resultant against the determinant of
    the Sylvester matrix."""
    assert sylvester_resultant(f, g) == bareiss_det(sylvester_matrix(f, g))
