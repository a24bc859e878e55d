from fractions import Fraction

import pytest

from tensorcond.chars import character_table
from tensorcond.errors import PreconditionError
from tensorcond.filtration import (ConductorReport, conductor,
                                   conductor_exponent, min_sum_bound,
                                   pgroup_tensor_bound, step_class_side,
                                   step_kernel_side, symplectic_tensor_bound)
from tensorcond.groups import (cyclic, filtration_from_generators, heisenberg,
                               quaternion8)

from oracles import (add, chain_on, gen_character, nonfixed_dim, report_json,
                     tensor_fixed_excess, trivial)


@pytest.fixture(scope="module")
def q8_setup():
    Q = quaternion8()
    T = character_table(Q)
    chi2 = T.irreducibles[T.degrees.index(2)]
    filt = filtration_from_generators(Q, [[4]])
    return Q, T, chi2, filt


def test_nonfixed_dim(q8_setup):
    Q, T, chi2, filt = q8_setup
    triv = trivial(Q)
    assert all(nonfixed_dim(triv, filt, i) == 0 for i in range(len(filt)))
    assert nonfixed_dim(chi2, filt, 1) == 2
    Cp = cyclic(5)
    Tp = character_table(Cp)
    chi = next(ch for ch in Tp.irreducibles if ch != trivial(Cp))
    fp = filtration_from_generators(Cp, [])
    assert nonfixed_dim(chi, fp, 0) == 1
    with pytest.raises(IndexError):
        nonfixed_dim(chi2, filt, 99)


def test_tensor_fixed_excess(q8_setup):
    Q, T, chi2, filt = q8_setup
    assert tensor_fixed_excess(chi2, chi2, filt, 1) == 4
    assert tensor_fixed_excess(chi2, chi2, filt, 0) == 1
    triv = trivial(Q)
    for sigma in T.irreducibles:
        for i in range(len(filt)):
            assert tensor_fixed_excess(triv, sigma, filt, i) == 0


def test_conductor_report(q8_setup):
    Q, T, chi2, filt = q8_setup
    rep = conductor(chi2, filt, chi2)
    assert rep.total == Fraction(5, 2)
    assert rep.level_terms == (2, 2, 0)
    assert rep.excess_total == 2
    assert conductor_exponent(trivial(Q), filt) == 0
    Cp = cyclic(5)
    Tp = character_table(Cp)
    chi = next(ch for ch in Tp.irreducibles if ch != trivial(Cp))
    assert conductor_exponent(chi, filtration_from_generators(Cp, [])) == 1
    doc = report_json(rep)
    assert doc["total"] == "5/2"
    # terms (2, 1) over indices (1, 2) total 5/2 and pass; each case after
    # them breaks exactly one of the report's invariants
    ConductorReport((2, 1), (1, 2), Fraction(5, 2), (0,), Fraction(0))
    with pytest.raises(AssertionError, match="weakly decreasing"):
        ConductorReport((1, 2), (1, 2), Fraction(2))
    for args in [((2, -1), (1, 2), Fraction(3, 2)),
                 ((2, 1), (1, 2), Fraction(3)),
                 ((2, 1), (1, 2), Fraction(5, 2), (-1,), Fraction(-1))]:
        with pytest.raises(AssertionError):
            ConductorReport(*args)


def test_level_terms_weakly_decreasing(q8_setup):
    Q, T, chi2, filt = q8_setup
    for s in range(20):
        chi = gen_character(Q, f"dec:{s}", 10)
        rep = conductor(chi, filt, gen_character(Q, f"dec2:{s}", 10))
        assert all(a >= b for a, b in zip(rep.level_terms, rep.level_terms[1:]))
        # the excess terms are nonnegative but NOT monotone: on this very
        # chain the pair (chi2, chi2) has excesses (1, 4, 0)
        assert all(t >= 0 for t in rep.excess_terms)
        assert rep.excess_total >= rep.excess_terms[0] >= 0


def test_excess_not_monotone_counterexample(q8_setup):
    Q, T, chi2, filt = q8_setup
    rep = conductor(chi2, filt, chi2)
    assert rep.excess_terms == (1, 4, 0)


def _level_sides(t1, t2, chain):
    return list(zip(step_kernel_side(t1, t2, chain), step_class_side(t1, t2, chain)))


def test_tensor_level_identity_worked(q8_setup):
    Q, T, chi2, filt = q8_setup
    chain = chain_on(Q, [[4]])
    assert _level_sides(chi2, chi2, chain)[1] == (8, 8)
    triv = T.irreducibles[T.index_of_trivial()]
    assert _level_sides(triv, triv, chain)[0] == (0, 0)


def test_tensor_level_identity_random_heisenberg():
    H = heisenberg(3)
    chain = chain_on(H, [[9]])
    for s in range(30):
        t1 = gen_character(H, f"h:{s}:a", 12)
        t2 = gen_character(H, f"h:{s}:b", 12)
        for lhs, rhs in _level_sides(t1, t2, chain):
            assert lhs == rhs


def test_min_sum_bound_examples():
    assert min_sum_bound(2, [2, 0], [4, 2], [1, 2]) == (8, 4)
    assert min_sum_bound(1, [0, 0], [0, 0], [1, 1]) == (0, 0)
    lhs, rhs = min_sum_bound(2, [2, 2], [2, 2], [1, 1])
    assert lhs == rhs == 8


def test_min_sum_bound_preconditions():
    with pytest.raises(PreconditionError, match="'a' values must be 0 or >= 2"):
        min_sum_bound(2, [1, 0], [2, 0], [1, 1])  # value in (0, M)
    with pytest.raises(PreconditionError, match="'a' must be weakly decreasing"):
        min_sum_bound(2, [0, 2], [2, 0], [1, 1])  # not decreasing
    with pytest.raises(PreconditionError, match="weights 'd' must be positive"):
        min_sum_bound(2, [2], [2], [0])  # weight not positive
    with pytest.raises(PreconditionError, match="must share one length"):
        min_sum_bound(2, [2, 2], [2], [1])  # length mismatch


def test_symplectic_bound_tight(q8_setup):
    Q, T, chi2, filt = q8_setup
    chain = chain_on(Q, [[4]])
    lhs, rhs = symplectic_tensor_bound(chi2, chi2, chain)
    assert lhs == rhs == 3
    triv = T.irreducibles[T.index_of_trivial()]
    triv2 = triv.scale(2)
    assert symplectic_tensor_bound(triv2, triv2, chain) == (0, 0)
    with pytest.raises(PreconditionError, match="'tau1' must be a symplectic character"):
        symplectic_tensor_bound(triv, chi2, chain)


def test_pgroup_bound_tight_c3():
    C3 = cyclic(3)
    T = character_table(C3)
    triv = T.index_of_trivial()
    tau = T.assemble([int(i != triv) for i in range(3)])
    chain = chain_on(C3, [])
    lhs, rhs = pgroup_tensor_bound(tau, tau, chain, 3)
    assert lhs == rhs == 2
    assert pgroup_tensor_bound(T.irreducibles[triv],
                               T.irreducibles[triv], chain, 3) == (0, 0)


def test_pgroup_bound_regular_character():
    H = heisenberg(3)
    T = character_table(H)
    reg = T.assemble(T.degrees)
    chain = chain_on(H, [[9]])
    lhs, rhs = pgroup_tensor_bound(reg, reg, chain, 3)
    assert lhs <= rhs


def test_pgroup_bound_errors():
    Q = quaternion8()
    T = character_table(Q)
    chain = chain_on(Q, [[4]])
    reg = T.assemble(T.degrees)
    with pytest.raises(PreconditionError, match="is not a 3-group"):
        pgroup_tensor_bound(reg, reg, chain, 3)
    C3 = cyclic(3)
    T3 = character_table(C3)
    nontriv = T3.irreducibles[(T3.index_of_trivial() + 1) % 3]
    c3 = chain_on(C3, [])
    with pytest.raises(PreconditionError, match="must have rational characteristic polynomials"):
        pgroup_tensor_bound(nontriv, nontriv, c3, 3)


def test_conductor_additive(q8_setup):
    Q, T, chi2, filt = q8_setup
    for s in range(10):
        a = gen_character(Q, f"sum:{s}", 8)
        b = gen_character(Q, f"sum2:{s}", 8)
        assert conductor_exponent(add(a, b), filt) == \
            conductor_exponent(a, filt) + conductor_exponent(b, filt)


def test_monotone_terms_and_denominators_across_corpus():
    from tensorcond.corpus import load_corpus
    corpus = load_corpus()
    for idx, chain in enumerate(corpus.all_chains()):
        G = chain.filtration.parent
        chi = gen_character(G, f"mono:{idx}", 8)
        sigma = gen_character(G, f"mono2:{idx}", 8)
        rep = conductor(chi, chain.filtration, sigma)
        assert all(a >= b for a, b in zip(rep.level_terms, rep.level_terms[1:]))
        # denominators divide the group order
        assert G.order % rep.total.denominator == 0
        assert G.order % rep.excess_total.denominator == 0


def test_conductor_level_terms_match_the_kernel_on_every_corpus_chain():
    """`conductor` averages the assembled class values; `CorpusChain.fixed`
    dots the vector with the chain's per-level fixed dimensions.  They agree for
    every irreducible and a random character on every corpus chain."""
    from tensorcond.corpus import load_corpus
    for idx, chain in enumerate(load_corpus().all_chains()):
        G = chain.filtration.parent
        T = character_table(G)
        chars = [T.assemble([int(j == i) for j in range(len(T))]) for i in range(len(T))]
        chars.append(gen_character(G, f"kernel:{idx}", 10))
        for chi in chars:
            kernel = tuple(chi.dim - f for f in chain.fixed(chi))
            assert conductor(chi, chain.filtration).level_terms == kernel, chain.label


def test_conductor_on_repeated_levels_matches_the_per_level_sums():
    """`conductor` takes each distinct level's fixed space once and sums
    over |G_0|; on chains that repeat a level (aff5/wild-trans, and Aff13
    with 13 translation levels) its terms and totals equal the level-by-level
    nonfixed_dim and tensor_fixed_excess, weighted by 1/[G_0 : G_i]."""
    from tensorcond.corpus import load_corpus
    from tensorcond.groups import affine
    wild_trans = next(c for c in load_corpus().all_chains() if c.label == "aff5/wild-trans")
    for filt in (wild_trans.filtration, filtration_from_generators(affine(13), [[1]] * 13)):
        assert len({H.size for H in filt.chain}) < len(filt)
        T = character_table(filt.parent)
        chars = list(T.irreducibles) + [gen_character(filt.parent, ("repeat", k), 30)
                                        for k in range(3)]
        for tau in chars:
            for sigma in (None, chars[-1], chars[len(chars) // 2]):
                report = conductor(tau, filt, sigma)
                levels = range(len(filt))
                terms = tuple(nonfixed_dim(tau, filt, i) for i in levels)
                assert report.level_terms == terms
                assert report.total == sum((Fraction(t, d) for t, d in
                                            zip(terms, filt.indices)), Fraction(0))
                if sigma is not None:
                    excess = tuple(tensor_fixed_excess(tau, sigma, filt, i) for i in levels)
                    assert report.excess_terms == excess
                    assert report.excess_total == sum((Fraction(t, d) for t, d in
                                                       zip(excess, filt.indices)), Fraction(0))


def test_bound_lhs_is_the_oracle_conductor_of_the_class_product_on_every_corpus_chain():
    """A bound reads a(t1 x t2) off the product's vector (`tensor_mults`)
    dotted with the chain's `kernel_rows`; `conductor_exponent` averages the
    class-by-class product t1 * t2 over the levels.  They agree for seeded
    symplectic pairs on every corpus chain, and rational pairs on the
    p-group chains, drawn by the suites' samplers."""
    from tensorcond.corpus import load_corpus
    from tensorcond.suites import gen_rational_mults, gen_symplectic_mults
    corpus = load_corpus()
    primes = {chain.label: p for p, chain in corpus.pgroup_chains()}
    for chain in corpus.all_chains():
        T = chain.table
        cases = [(gen_symplectic_mults, symplectic_tensor_bound, ())]
        if chain.label in primes:
            cases.append((gen_rational_mults, pgroup_tensor_bound, (primes[chain.label],)))
        for gen, bound, p in cases:
            for s in range(4):
                t1, t2 = (T.assemble(gen(T, f"lhs:{chain.label}:{s}:{k}", 8)) for k in "ab")
                lhs, _ = bound(t1, t2, chain, *p)
                assert lhs == conductor_exponent(t1 * t2, chain.filtration), (chain.label, s)
