from fractions import Fraction

import pytest

from tensorcond.chars import character_table, fixed_dim
from tensorcond.corpus import load_corpus
from tensorcond.errors import PreconditionError
from tensorcond.filtration import conductor_exponent
from tensorcond.groups import quaternion8
from tensorcond.suites import replay
from tensorcond.weildeligne import (AbVarDatum, LocalPair, WDRep,
                                    clebsch_gordan, conductor_bound, degree_gap,
                                    semistable_class_side, semistable_kernel_side,
                                    swan_bound, tame_class_side, tame_kernel_side,
                                    tensor, uniform_bound)

from oracles import (abvar_parts, add, chain_on, dual, from_values, gen_abvar, gen_semistable,
                     integer_value, key, scale, swan, trivial, zero)


@pytest.fixture(scope="module")
def q8_model():
    return chain_on(quaternion8(), [[4]], 2)


@pytest.fixture(scope="module")
def chi2(q8_model):
    T = q8_model.table
    return T.irreducibles[T.degrees.index(2)]


def test_model_validation():
    Q = quaternion8()
    with pytest.raises(ValueError):
        chain_on(Q, [[4]], 3)  # G_1 is the center: not a 3-group
    with pytest.raises(ValueError):
        chain_on(Q, [[4]], 4)  # not prime


def test_artin_conductor_blocks(q8_model, chi2):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    assert WDRep(q8_model, [(triv, 2)]).artin_conductor() == 1
    assert WDRep(q8_model, [(triv, 1)]).artin_conductor() == 0
    deep = chain_on(q8_model.filtration.parent, [[1, 2], [4]], 2)
    assert WDRep(deep, [(chi2, 1)]).artin_conductor() == Fraction(9, 2)


def test_swan_conductor_blocks(q8_model, chi2):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    assert WDRep(q8_model, [(triv, 2)]).swan_conductor() == 0
    rho = WDRep(q8_model, [(chi2, 1)])
    assert rho.swan_conductor() == Fraction(1, 2)
    # Swan = Artin - tame term, blockwise
    assert rho.artin_conductor() - rho.swan_conductor() == 2


def test_degree(q8_model, chi2):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    assert WDRep(q8_model, [(triv, 2)]).degree() == 1
    assert WDRep(q8_model, [(chi2, 1)]).degree() == 0
    rho = WDRep(q8_model, [(triv, 1), (triv, 2)])
    assert rho.degree() == 2


def test_clebsch_gordan():
    assert clebsch_gordan(2, 2) == [3, 1]
    assert clebsch_gordan(1, 5) == [5]
    assert clebsch_gordan(3, 2) == [4, 2]
    for n in range(1, 13):
        for m in range(1, 13):
            parts = clebsch_gordan(n, m)
            assert sum(parts) == n * m
            assert len(parts) == min(n, m)


def test_tensor_blocks(q8_model, chi2):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    ss = WDRep(q8_model, [(triv, 2)])
    t = tensor(ss, ss)
    assert sorted(n for _, n in t.blocks) == [1, 3]
    assert t.artin_conductor() == 2
    rho = WDRep(q8_model, [(chi2, 1), (triv, 2)])
    unit = WDRep(q8_model, [(triv, 1)])
    assert tensor(rho, unit) == rho
    a = WDRep(q8_model, [(chi2, 1)])
    b = WDRep(q8_model, [(triv.scale(2), 1)])
    assert tensor(a, b).blocks[0][1] == 1
    assert tensor(a, b).dim == 4


def test_tensor_dim_multiplicative(q8_model):
    for s in range(8):
        A = gen_abvar(q8_model, f"dim:{s}:a")
        B = gen_abvar(q8_model, f"dim:{s}:b")
        if A.rho.blocks and B.rho.blocks:
            assert tensor(A.rho, B.rho).dim == A.rho.dim * B.rho.dim


def test_tensor_commutative_and_associative(q8_model):
    for s in range(6):
        A = gen_abvar(q8_model, f"comm:{s}:a")
        B = gen_abvar(q8_model, f"comm:{s}:b")
        C = gen_abvar(q8_model, f"comm:{s}:c")
        assert tensor(A.rho, B.rho) == tensor(B.rho, A.rho)
        if A.rho.blocks and B.rho.blocks and C.rho.blocks:
            assert tensor(tensor(A.rho, B.rho), C.rho) == \
                tensor(A.rho, tensor(B.rho, C.rho))


def test_model_mismatch(q8_model, chi2):
    other = chain_on(q8_model.filtration.parent, [[4]], 2)
    a = WDRep(q8_model, [(chi2, 1)])
    b = WDRep(other, [(chi2, 1)])
    with pytest.raises(PreconditionError, match="needs a common inertia model"):
        tensor(a, b)


def test_equality_does_not_depend_on_how_the_blocks_are_split(q8_model, chi2):
    """Blocks of one special size are summed and zero blocks dropped, so a
    representation compares equal however its blocks were listed."""
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    zero = triv.scale(0)
    split = WDRep(q8_model, [(triv, 1), (chi2, 2), (triv, 1), (zero, 3)])
    whole = WDRep(q8_model, [(chi2, 2), (triv.scale(2), 1)])
    assert split == whole
    assert [n for _, n in split.blocks] == [1, 2]
    assert WDRep(q8_model, [(triv, 1), (triv, 1)]) != WDRep(q8_model, [(triv, 2)])
    assert WDRep(q8_model, [(zero, 1)]) == WDRep(q8_model, [])


def test_local_pair_refuses_data_over_two_models(q8_model, chi2):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    other = chain_on(q8_model.filtration.parent, [[4]], 2)
    A = AbVarDatum(q8_model, chi2, triv)
    with pytest.raises(PreconditionError, match="data live over different inertia models"):
        LocalPair(A, AbVarDatum(other, chi2, triv))
    assert LocalPair(A, A).model is q8_model


def test_sp1_twist_keeps_conductor(q8_model):
    T = q8_model.table
    for sigma in T.irreducibles:
        assert WDRep(q8_model, [(sigma, 1)]).artin_conductor() == \
            conductor_exponent(sigma, q8_model.filtration)


def test_closed_form_for_special_tensor(q8_model):
    """a(sigma x sp(n) x sp(m)) = nm a(sigma) + fix (nm - min(n,m))."""
    T = q8_model.table
    for sigma in T.irreducibles:
        a_sigma = conductor_exponent(sigma, q8_model.filtration)
        fix = fixed_dim(sigma, q8_model.filtration[0])
        for n in range(1, 13):
            left = WDRep(q8_model, [(sigma, n)])
            for m in range(1, 13):
                right = WDRep(q8_model, [(T.irreducibles[T.index_of_trivial()], m)])
                got = tensor(left, right).artin_conductor()
                want = n * m * a_sigma + fix * (n * m - min(n, m))
                assert got == want


def test_abvar_validation(q8_model, chi2):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    datum = AbVarDatum(q8_model, chi2, triv)
    assert datum.dim == 4
    with pytest.raises(ValueError):
        AbVarDatum(q8_model, triv, triv)  # trivial x1 is not symplectic


def _pair_doc(suite, model, A, B):
    """The suite document of the pair (A, B) over the model."""
    return {"suite": suite, "chain": model.ref(),
            **{key: dict(zip(("tau", "sigma"), (list(s.mults) for s in abvar_parts(X))))
               for key, X in (("A", A), ("B", B))}}


def test_semistable_equality_and_errors(q8_model, chi2):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    A = AbVarDatum(q8_model, triv.scale(2), triv)
    B = AbVarDatum(q8_model, chi2, triv)
    assert semistable_class_side(LocalPair(A, B)) == semistable_kernel_side(LocalPair(A, B))
    assert replay(_pair_doc("semistable", q8_model, A, B))["ok"]
    with pytest.raises(PreconditionError, match="first datum 'A' must be semistable"):
        replay(_pair_doc("semistable", q8_model, B, A))
    # good reduction: a(tensor) = dim(A) a(B)
    good = LocalPair(AbVarDatum(q8_model, triv.scale(2), triv.scale(0)), B)
    assert semistable_class_side(good) == semistable_kernel_side(good) \
        == good.A.dim * B.artin_conductor()


def test_tame_identity_preconditions(q8_model, chi2):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    A = AbVarDatum(q8_model, chi2, triv)     # a = 7/2 > 1
    B = AbVarDatum(q8_model, chi2.scale(2), triv.scale(0))
    assert tame_class_side(LocalPair(A, B)) == tame_kernel_side(LocalPair(A, B))
    assert replay(_pair_doc("tame-identity", q8_model, A, B))["ok"]
    small = AbVarDatum(q8_model, triv.scale(2), triv.scale(0))
    with pytest.raises(PreconditionError, match="must have conductor exponent above 1"):
        replay(_pair_doc("tame-identity", q8_model, small, B))


def test_degree_gap_examples(q8_model):
    triv = q8_model.table.irreducibles[q8_model.table.index_of_trivial()]
    semi = AbVarDatum(q8_model, triv.scale(0), triv)
    assert degree_gap(semi) == 1
    good = AbVarDatum(q8_model, triv.scale(2), triv.scale(0))
    assert good.artin_conductor() == 0 and degree_gap(good) == 0


def test_artin_minus_swan_is_the_blockwise_tame_term():
    corpus = load_corpus()
    for idx, chain in enumerate(corpus.model_chains()[:12]):
        model = chain.model()
        rho = gen_abvar(model, f"tame:{idx}").rho
        tame = sum(
            n * (sigma.dim - fixed_dim(sigma, model.filtration[0]))
            + (n - 1) * fixed_dim(sigma, model.filtration[0])
            for sigma, n in rho.blocks)
        assert rho.artin_conductor() - rho.swan_conductor() == tame
        assert tame == rho.dim - rho.degree()


def test_bounds_over_corpus_models():
    corpus = load_corpus()
    for idx, chain in enumerate(corpus.model_chains()):
        model = chain.model()
        A = gen_abvar(model, f"wd:{idx}:a")
        B = gen_abvar(model, f"wd:{idx}:b")
        lhs, rhs = swan_bound(LocalPair(A, B))
        assert lhs <= rhs
        lhs, rhs, C = conductor_bound(LocalPair(A, B))
        assert lhs <= rhs
        assert C == min(max(2, model.model_p - 1),
                        A.dim - A.degree(), B.dim - B.degree())
        lhs, rhs, _ = uniform_bound(LocalPair(A, B))
        assert lhs <= rhs
        S = gen_semistable(model, f"wd:{idx}:s")
        assert semistable_class_side(LocalPair(S, B)) == semistable_kernel_side(LocalPair(S, B))


def test_abvar_rho_is_built_once_per_datum(q8_model):
    A = gen_abvar(q8_model, "rho-once")
    assert A.rho is A.rho
    tau, sigma = abvar_parts(A)
    assert A.rho == WDRep(q8_model, [(tau, 1), (sigma, 2)])
    B = AbVarDatum(q8_model, tau, sigma)
    assert B == A and B.rho is not A.rho and B.rho == A.rho


def _class_blocks(rho):
    """rho's blocks with each character as plain class values, no vector."""
    return [(from_values(s.group, s.values), n) for s, n in rho.blocks]


def test_kernel_matches_class_averages_on_every_model_chain():
    """Artin, Swan, degree and dim of A, B and A x B from multiplicity
    vectors against the class-average path, on sampled data over every
    model chain of the corpus (so on every corpus group)."""
    from tensorcond.weildeligne import class_artin, class_degree, class_tensor
    corpus = load_corpus()
    for idx, chain in enumerate(corpus.model_chains()):
        model = chain.model()
        for s in range(2):
            A = gen_abvar(model, f"kernel:{idx}:{s}:a")
            B = gen_abvar(model, f"kernel:{idx}:{s}:b")
            for rho, blocks in ((A.rho, _class_blocks(A.rho)),
                                (B.rho, _class_blocks(B.rho)),
                                (tensor(A.rho, B.rho), class_tensor(A.rho, B.rho))):
                assert rho.artin_conductor() == class_artin(model, blocks), chain.label
                assert rho.swan_conductor() == sum(
                    (n * swan(model, c) for c, n in blocks), Fraction(0)), chain.label
                assert rho.degree() == class_degree(model, blocks), chain.label
                assert rho.dim == sum(n * c.dim for c, n in blocks), chain.label
            tau, sigma = abvar_parts(A)
            assert A.dim == integer_value(tau.values[0]) + 2 * integer_value(sigma.values[0])


def test_vector_predicates_match_class_function_predicates():
    """Symplectic, self-dual and rational on vectors against the same
    predicates on the assembled class values, on every corpus group, for
    vectors that pass and vectors that fail each of them."""
    import random

    from oracles import is_rational_charpoly, is_symplectic
    corpus = load_corpus()
    seen = set()
    for entry in corpus.entries:
        T = character_table(entry.group)
        rng = random.Random(f"predicates:{entry.name}")
        atoms = [vec for vec, _ in T.rational_atoms]
        for trial in range(30):
            if trial % 3:
                vec = [rng.choice((0, 0, 1, 2)) for _ in range(len(T))]
            else:  # orbit sums, doubled: all three hold until one entry moves
                vec = [2 * sum(col) for col in zip(*rng.sample(atoms, min(2, len(atoms))))]
                if trial % 2:
                    vec[rng.randrange(len(T))] += 1
            chi = from_values(entry.group, T.assemble(vec).values)
            got = (T.is_symplectic_mults(vec), T.is_self_dual_mults(vec),
                   T.is_rational_mults(vec))
            want = (is_symplectic(chi), dual(chi) == chi, is_rational_charpoly(chi))
            assert got == want, (entry.name, vec)
            seen.update(enumerate(got))
    assert seen == {(k, v) for k in range(3) for v in (False, True)}


def test_a_virtual_tau_or_sigma_is_refused_when_the_datum_is_built(q8_model):
    T = q8_model.table
    triv = T.index_of_trivial()
    good = [2 if i == triv else 0 for i in range(len(T))]
    virtual = [-1 if i == triv else 0 for i in range(len(T))]
    with pytest.raises(PreconditionError, match="has a negative entry"):
        AbVarDatum(q8_model, T.assemble(good), T.assemble(virtual))
    with pytest.raises(PreconditionError, match="has a negative entry"):
        AbVarDatum(q8_model, T.assemble([-m for m in good]), T.assemble(good))
    with pytest.raises(PreconditionError, match="has a negative entry"):
        WDRep(q8_model, [(T.assemble(virtual), 2)])


def test_structure_constants_are_multiplicities_of_products():
    for entry in load_corpus().entries:
        T = character_table(entry.group)
        for i in range(len(T)):
            for j in range(i, len(T)):
                prod = T.multiplicities(T.irreducibles[i] * T.irreducibles[j])
                assert T.structure_constants(i, j) == tuple(
                    (k, n) for k, n in enumerate(prod) if n), (entry.name, i, j)


def test_assembled_values_match_a_sum_of_scaled_irreducibles(q8_model):
    T = q8_model.table
    vec = [3, 0, 1, 2, 1]
    chi = T.assemble(vec)
    total = zero(q8_model.filtration.parent)
    for m, psi in zip(vec, T.irreducibles):
        # scaled as class values: an irreducible's own scale() is a vector
        total = add(total, scale(from_values(psi.group, psi.values), m))
    assert [key(v) for v in chi.values] == [key(v) for v in total.values]
    assert chi.dim == total.dim and chi.scale(2).mults == (6, 0, 2, 4, 2)
    assert T.multiplicities(total) == chi.mults


def test_kernel_entry_points_refuse_a_class_function_that_is_no_table_vector(q8_model,
                                                                             chi2):
    """A bare class function is never decomposed: WDRep, the per-level
    identity and the symplectic bound refuse it, even when its values are
    those of a character of the table."""
    from tensorcond.filtration import step_kernel_side, symplectic_tensor_bound
    bare = trivial(q8_model.filtration.parent)
    with pytest.raises(PreconditionError, match="expected a Character of the table"):
        WDRep(q8_model, [(bare, 1)])
    with pytest.raises(PreconditionError, match="expected a Character of the table"):
        AbVarDatum(q8_model, chi2, bare)
    with pytest.raises(PreconditionError, match="expected a Character of the table"):
        step_kernel_side(bare, chi2, q8_model)
    with pytest.raises(PreconditionError, match="expected a Character of the table"):
        symplectic_tensor_bound(chi2, scale(bare, 2), q8_model)
