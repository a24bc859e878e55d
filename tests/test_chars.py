from fractions import Fraction

import pytest

from tensorcond.chars import ClassFunction, character_table, fixed_dim
from tensorcond.errors import PreconditionError
from tensorcond.groups import (affine, cyclic, dihedral, heisenberg,
                               quaternion8, subgroup_generated,
                               trivial_subgroup, whole_group)
from tensorcond.suites import gen_rational_mults, gen_symplectic_mults

from oracles import (add, class_matrices, cyclo_zero, dual, frobenius_schur, from_values,
                     gen_character, inner_product, is_rational_charpoly, is_symplectic, key,
                     linear_reps_q8, permutation_rep_affine, rational_value, regular,
                     restrict, root_of_unity, scale, sign_rep_affine, sub, trivial,
                     two_dim_rep_q8, zero)

# groups beyond the corpus whose tables are checked byte for byte
EXTRA_GROUPS = [
    {"kind": "affine", "p": 7}, {"kind": "heisenberg", "p": 5},
    {"kind": "direct_product", "factors": [{"kind": "quaternion8"},
                                           {"kind": "cyclic", "n": 3}]},
    {"kind": "dihedral", "n": 6}, {"kind": "cyclic", "n": 64},
    {"kind": "elementary_abelian", "p": 2, "k": 5},
]


@pytest.fixture(scope="module")
def q8():
    return quaternion8()


@pytest.fixture(scope="module")
def q8_table(q8):
    return character_table(q8)


@pytest.fixture(scope="module")
def corpus():
    from tensorcond.corpus import load_corpus
    return load_corpus()


def two_dim(q8_table):
    return q8_table.irreducibles[q8_table.degrees.index(2)]


def test_inner_products(q8, q8_table):
    C2 = cyclic(2)
    reg = regular(C2)
    assert inner_product(reg, trivial(C2)) == 1
    chi2 = two_dim(q8_table)
    assert inner_product(chi2, chi2) == 1
    for G in (q8, C2):
        H = subgroup_generated(G, [G.order - 1])
        triv = trivial(G)
        assert inner_product(triv, triv, H) == 1


def test_fixed_dim(q8, q8_table):
    C2 = cyclic(2)
    assert fixed_dim(regular(C2), whole_group(C2)) == 1
    chi2 = two_dim(q8_table)
    center = subgroup_generated(q8, [4])
    assert fixed_dim(chi2, center) == 0
    for chi in q8_table.irreducibles:
        assert fixed_dim(chi, trivial_subgroup(q8)) == chi.dim


def test_fixed_dim_rejects_non_characters(q8):
    not_char = from_values(q8, [Fraction(1, 3), 0, 0, 0, 0])
    with pytest.raises(PreconditionError,
                       match="fixed-space average is 1/24, not a nonnegative integer"):
        fixed_dim(not_char, whole_group(q8))
    # an integer average below zero: minus the trivial character
    with pytest.raises(PreconditionError, match="is -1, not a nonnegative integer"):
        fixed_dim(scale(trivial(q8), -1), whole_group(q8))


def test_tensor_dsum_dual(q8, q8_table):
    chi2 = two_dim(q8_table)
    triv = trivial(q8)
    assert chi2 * triv == chi2
    assert dual(dual(chi2)) == chi2
    sq = chi2 * chi2
    # 4 at +-1, 0 elsewhere
    assert sq.values[0] == 4 and sq.values[-1] == 4
    assert all(v == 0 for v in sq.values[1:4])
    assert add(chi2, triv).dim == 3
    # a product with the zero class function has no terms at any class
    for prod in (chi2 * zero(q8), zero(q8) * chi2):
        assert prod.form == ((),) * len(q8.classes) and prod == zero(q8)


def test_restrict(q8, q8_table):
    chi2 = two_dim(q8_table)
    center = subgroup_generated(q8, [4])
    res = restrict(chi2, center)
    assert res.group.order == 2
    assert res.values[0] == 2 and res.values[1] == -2
    S = res.group
    assert fixed_dim(res, whole_group(S)) == 0


def test_character_table_dimensions():
    assert sorted(character_table(affine(3)).degrees) == [1, 1, 2]
    assert sorted(character_table(quaternion8()).degrees) == [1, 1, 1, 1, 2]
    assert sorted(character_table(dihedral(4)).degrees) == [1, 1, 1, 1, 2]
    assert sorted(character_table(heisenberg(3)).degrees) == [1] * 9 + [3, 3]
    assert sorted(character_table(affine(5)).degrees) == [1, 1, 1, 1, 4]


def test_character_table_c4_linear_values():
    C4 = cyclic(4)
    T = character_table(C4)
    assert T.degrees == (1, 1, 1, 1)
    # each character is the homomorphism k -> zeta_4^(j k) for one j,
    # and all four fourth roots of unity occur as generator values
    from tensorcond.cyclo import CycloNum
    gen_class = C4.class_of[1]
    seen = set()
    for chi in T.irreducibles:
        v = chi.values[gen_class]
        j = next(k for k in range(4) if v == root_of_unity(4, k))
        seen.add(j)
        for c in range(4):
            assert chi.values[C4.class_of[c]] == root_of_unity(4, j * c)
    assert seen == {0, 1, 2, 3}


def test_table_orthogonality_exact():
    for G in (affine(3), quaternion8(), dihedral(4), heisenberg(3)):
        T = character_table(G)
        for i, chi in enumerate(T.irreducibles):
            for j, psi in enumerate(T.irreducibles):
                assert inner_product(chi, psi) == (1 if i == j else 0)
        assert sum(d * d for d in T.degrees) == G.order


def test_table_determinism():
    G1, G2 = quaternion8(), quaternion8()
    T1, T2 = character_table(G1), character_table(G2)
    for a, b in zip(T1.irreducibles, T2.irreducibles):
        assert a.values == tuple(b.values)


def test_frobenius_schur(q8, q8_table):
    chi2 = two_dim(q8_table)
    assert frobenius_schur(chi2) == -1
    assert frobenius_schur(trivial(q8)) == 1
    C4 = cyclic(4)
    T4 = character_table(C4)
    faithful = next(ch for ch in T4.irreducibles
                    if not ch.values[C4.class_of[1]].is_rational())
    assert frobenius_schur(faithful) == 0
    with pytest.raises(PreconditionError, match="needs an irreducible character"):
        frobenius_schur(add(chi2, chi2))


def test_is_symplectic(q8, q8_table):
    chi2 = two_dim(q8_table)
    assert is_symplectic(chi2)
    assert not is_symplectic(trivial(q8))
    for psi in q8_table.irreducibles:
        assert is_symplectic(add(psi, dual(psi)))
    C4 = cyclic(4)
    T4 = character_table(C4)
    for psi in T4.irreducibles:
        assert is_symplectic(add(psi, dual(psi)))


def test_is_rational_charpoly():
    C3 = cyclic(3)
    T3 = character_table(C3)
    triv_ix = T3.index_of_trivial()
    assert is_rational_charpoly(regular(C3))
    nontriv = T3.irreducibles[(triv_ix + 1) % 3]
    assert not is_rational_charpoly(nontriv)
    C9 = cyclic(9)
    T9 = character_table(C9)
    # the six faithful characters form a single Galois orbit; their sum is
    # rational even though no single member is
    orbit = next(o for o in T9.galois_orbits if len(o) == 6)
    total = zero(C9)
    for i in orbit:
        assert not is_rational_charpoly(T9.irreducibles[i])
        total = add(total, T9.irreducibles[i])
    assert is_rational_charpoly(total)


def test_generators_satisfy_postconditions():
    """Checked on class values: the symplectic vectors through a fresh
    decomposition, the rational ones by the characteristic polynomials."""
    for G in (quaternion8(), heisenberg(3), cyclic(8), affine(5)):
        T = character_table(G)
        for s in range(12):
            symp = T.assemble(gen_symplectic_mults(T, s, 8))
            assert is_symplectic(from_values(G, symp.values))
            assert is_rational_charpoly(T.assemble(gen_rational_mults(T, s, 12)))
            chi = gen_character(G, s, 9)
            assert chi.dim <= 9


def test_generator_budget_caps():
    for G in (quaternion8(), heisenberg(3)):
        T = character_table(G)
        for s in range(8):
            assert T.assemble(gen_symplectic_mults(T, s, 6)).dim <= 6
            assert T.assemble(gen_rational_mults(T, s, 7)).dim <= 7
            assert gen_character(G, s, 5).dim <= 5
    with pytest.raises(ValueError):
        gen_symplectic_mults(character_table(quaternion8()), 0, 1)
    with pytest.raises(ValueError):
        gen_rational_mults(character_table(quaternion8()), 0, 0)


def test_gen_character_sample_space_c2():
    C2 = cyclic(2)
    T = character_table(C2)
    allowed = set()
    for m0 in range(3):
        for m1 in range(3):
            if m0 + m1 <= 2:
                allowed.add((m0, m1))
    seen = set()
    for s in range(200):
        chi = gen_character(C2, s, 2)
        mults = T.multiplicities(chi)
        assert mults in allowed
        seen.add(mults)
    assert seen == allowed


def test_character_table_degrees_on_harder_groups():
    from collections import Counter
    from tensorcond.groups import direct_product, elementary_abelian
    cases = [
        (heisenberg(5), {1: 25, 5: 4}),
        (dihedral(6), {1: 4, 2: 2}),
        (dihedral(5), {1: 2, 2: 2}),
        (direct_product(quaternion8(), cyclic(3)), {1: 12, 2: 3}),
        (elementary_abelian(2, 4), {1: 16}),
        (affine(7), {1: 6, 6: 1}),
        (affine(13), {1: 12, 12: 1}),
    ]
    for G, want in cases:
        T = character_table(G)
        assert dict(Counter(T.degrees)) == want
        assert sum(d * d for d in T.degrees) == G.order


def test_group_with_identity_not_at_zero():
    """The table machinery must not assume where the identity sits."""
    from tensorcond.groups import FiniteGroup
    # relabel C3 by the permutation 0<->2
    perm = [2, 1, 0]
    inv = [2, 1, 0]
    base = cyclic(3)
    table = [[perm[base.table[inv[a]][inv[b]]] for b in range(3)]
             for a in range(3)]
    G = FiniteGroup(table, name="C3-shuffled")
    assert G.identity == 2
    assert G.classes[0] == (2,)  # identity class still first
    T = character_table(G)
    assert sorted(T.degrees) == [1, 1, 1]
    for chi in T.irreducibles:
        assert chi.dim == 1


def test_additivity_of_fixed_dim(q8, q8_table):
    center = subgroup_generated(q8, [4])
    for i in range(4):
        chi = gen_character(q8, f"add:{i}", 8)
        psi = gen_character(q8, f"add2:{i}", 8)
        assert fixed_dim(add(chi, psi), center) == \
            fixed_dim(chi, center) + fixed_dim(psi, center)
        assert fixed_dim(dual(chi), center) == fixed_dim(chi, center)


# -- matrix-representation oracle cross-checks ------------------------------------


def test_q8_two_dim_against_matrices(q8, q8_table):
    rep = two_dim_rep_q8(q8)
    traces = rep.character_values()
    chi2 = two_dim(q8_table)
    assert list(chi2.values) == traces
    center = subgroup_generated(q8, [4])
    assert rep.fixed_dim_by_projector(center) == fixed_dim(chi2, center) == 0
    sub_i = subgroup_generated(q8, [1])
    assert rep.fixed_dim_by_projector(sub_i) == fixed_dim(chi2, sub_i)


def test_q8_linear_characters_against_matrices(q8, q8_table):
    table_keys = {tuple(rational_value(v) for v in ch.values)
                  for ch in q8_table.irreducibles if ch.dim == 1}
    matrix_keys = set()
    for rep in linear_reps_q8(q8):
        matrix_keys.add(tuple(rational_value(v) for v in rep.character_values()))
    assert table_keys == matrix_keys


def test_s3_table_against_matrices():
    G = affine(3)
    T = character_table(G)
    perm = permutation_rep_affine(G, 3)
    sign = sign_rep_affine(G, 3)
    perm_char = from_values(G, perm.character_values())
    # permutation character = trivial + standard
    std = next(ch for ch in T.irreducibles if ch.dim == 2)
    assert perm_char == add(trivial(G), std)
    sign_char = from_values(G, sign.character_values())
    assert any(ch == sign_char for ch in T.irreducibles)
    translations = subgroup_generated(G, [1])
    assert perm.fixed_dim_by_projector(translations) == \
        fixed_dim(perm_char, translations) == 1
    assert perm.fixed_dim_by_projector(whole_group(G)) == 1


def test_corpus_table_values_have_int_coefficients(corpus):
    for entry in corpus.entries:
        for chi in character_table(entry.group).irreducibles:
            for v in chi.values:
                assert all(type(c) is int for c in v.coeffs), (entry.name, v)


def test_averages_are_exact_never_float(corpus):
    for entry in corpus.entries:
        G = entry.group
        T = character_table(G)
        chi = gen_character(G, 0, 6)
        third = from_values(G, [Fraction(1, 3)] * len(G.classes))
        for psi in T.irreducibles:
            assert type(inner_product(chi, psi)) is Fraction
            assert type(inner_product(third, psi)) is Fraction
            assert type(frobenius_schur(psi)) is int
        for H in entry.chains[0].filtration.chain:
            assert type(inner_product(chi, chi, H)) is Fraction
            assert type(fixed_dim(chi, H)) is int


def test_multiplicities_match_inner_products(corpus):
    """On seeded characters, their products and a character rebuilt from
    its values, on every corpus group and EXTRA_GROUPS."""
    for G in _form_groups(corpus):
        T = character_table(G)
        chis = [gen_character(G, seed, 8) for seed in range(3)]
        chis += [chis[1] * chis[2], from_values(G, chis[0].values)]
        for chi in chis:
            mults = T.multiplicities(chi)
            assert all(type(m) is int for m in mults)
            assert mults == tuple(inner_product(chi, psi) for psi in T.irreducibles), G.name


def test_table_validation_checks_every_pair():
    from tensorcond.chars import CharacterTable
    from tensorcond.errors import TableComputationError
    G = cyclic(4)
    T = character_table(G)
    assert CharacterTable(G, T.forms, T.modulus).residues == T.residues
    # unit norms, the right degrees and Galois-closed forms, but two equal rows
    forms = list(T.forms)
    forms[-1] = forms[-2]
    with pytest.raises(TableComputationError, match="orthogonality"):
        CharacterTable(G, forms, T.modulus)


def _forged(G, edit):
    """Build a table of G from its forms after `edit` changed them."""
    from tensorcond.chars import CharacterTable
    T = character_table(G)
    forms = [list(form) for form in T.forms]
    edit(forms)
    return CharacterTable(G, forms, T.modulus)


def test_table_validation_refuses_a_galois_break_at_one_class():
    """zeta_5 moved to zeta_5^2 at the class of g alone: the form at g^2 is
    no longer sigma_2 of the form at g."""
    from tensorcond.errors import TableComputationError
    G = cyclic(5)

    def edit(forms):
        i = next(i for i, form in enumerate(forms) if form[1] == ((1, 1),))
        forms[i][1] = ((2, 1),)
    with pytest.raises(TableComputationError, match=r"Galois condition fails for "
                       r"irreducible \d+ at class 1"):
        _forged(G, edit)


def test_table_validation_refuses_forms_that_are_not_roots_of_unity_of_the_class():
    """An exponent not a multiple of e / ord(c), and a multiplicity sum that
    is not the degree."""
    from tensorcond.errors import TableComputationError
    G = cyclic(4)

    def odd_exponent(forms):
        c = G.class_of[2]  # order 2: exponents must be multiples of 2
        i = next(i for i, form in enumerate(forms) if form[c] == ((2, 1),))
        forms[i][c] = ((1, 1),)

    def short_sum(forms):
        forms[0][1] = ()
    for edit in (odd_exponent, short_sum):
        with pytest.raises(TableComputationError, match="roots of unity of its order"):
            _forged(G, edit)


def test_table_validation_refuses_too_few_forms():
    """Half the regular character of C4, (2, 0, 0, 0), passes every other
    check as a one-row table: orthonormal rows are the table only when there
    are r of them."""
    from tensorcond.chars import CharacterTable
    from tensorcond.errors import TableComputationError
    G = cyclic(4)
    by_order = {1: ((0, 2),), 2: ((0, 1), (2, 1)), 4: ((1, 1), (3, 1))}
    form = [by_order[G.element_orders[rep]] for rep in G.class_reps]
    with pytest.raises(TableComputationError, match="found 1 irreducibles, expected 4"):
        CharacterTable(G, [form], character_table(G).modulus)


def test_table_validation_refuses_forged_multi_term_entries():
    """Heis3's degree-3 characters are 1 + w + w^2 at the classes outside
    the centre, an entry of three terms: each forgery of one such entry
    is refused by the check it breaks, and so is a central entry written as
    two terms of one root."""
    from tensorcond.errors import TableComputationError
    G = heisenberg(3)
    T = character_table(G)
    i = T.degrees.index(3)
    c = next(c for c, terms in enumerate(T.forms[i]) if len(terms) == 3)
    c2 = G.class_power(c, 2)
    assert c2 != c and T.forms[i][c] == T.forms[i][c2] == ((0, 1), (1, 1), (2, 1))

    def moved(forms):  # one multiplicity moved from w to 1, at c alone
        forms[i][c] = ((0, 2), (2, 1))

    def moved_with_its_image(forms):  # Galois-closed, but 2 + w^2 has the wrong norm
        forms[i][c] = ((0, 2), (2, 1))
        forms[i][c2] = ((0, 2), (1, 1))

    def short_sum(forms):
        forms[i][c] = ((0, 1), (1, 1))

    def negative(forms):  # sums to the degree with a multiplicity -1
        forms[i][c] = ((0, 2), (1, 2), (2, -1))

    # at a central z != 1 the entry is one root three times, (a, 3)
    z = next(z for z, terms in enumerate(T.forms[i]) if len(terms) == 1 and terms[0][0])
    z2 = G.class_power(z, 2)

    def repeated(forms):  # (a, 1), (a, 2) at z and its image: same values, not collected
        for y in (z, z2):
            (a, m), = forms[i][y]
            forms[i][y] = ((a, 1), (a, m - 1))
    for edit, match in (
            (moved, rf"Galois condition fails for irreducible {i} at class {min(c, c2)}, unit 2"),
            (moved_with_its_image, rf"norm of irreducible {i} is"),
            (short_sum, rf"irreducible {i} at class {c} is not 3 roots of unity"),
            (negative, rf"irreducible {i} at class {c} is not 3 roots of unity"),
            (repeated, rf"irreducible {i} at class {min(z, z2)} is not 3 roots of unity")):
        with pytest.raises(TableComputationError, match=match):
            _forged(G, edit)


def test_table_validation_refuses_a_negative_degree():
    """The trivial character of C2 forged as 1 - 2 zeta^0 at the identity
    and 1 - 2 zeta^1 at the other class: values 1, 1 were never summed from
    the bad term, and its degree -1 squares to 1, so only the sign of the
    multiplicity -2 tells it from the trivial row."""
    from tensorcond.errors import TableComputationError
    G = cyclic(2)
    i = character_table(G).index_of_trivial()

    def edit(forms):
        forms[i] = [((0, 1), (0, -2)), ((0, 1), (1, -2))]
    with pytest.raises(TableComputationError, match="is not -1 roots of unity"):
        _forged(G, edit)


def _small_descriptors():
    """Every descriptor of each kind up to order 64, with direct products
    of two factors of orders 2 to 8."""
    from tensorcond.groups import is_prime
    primes = [p for p in range(2, 65) if is_prime(p)]
    specs = [{"kind": "cyclic", "n": n} for n in range(1, 65)]
    specs += [{"kind": "dihedral", "n": n} for n in range(1, 33)]
    specs += [{"kind": "elementary_abelian", "p": p, "k": k}
              for p in primes for k in range(1, 7) if p ** k <= 64]
    specs += [{"kind": "heisenberg", "p": p} for p in (2, 3)]
    specs += [{"kind": "affine", "p": p} for p in primes if p * (p - 1) <= 64]
    small = [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4},
             {"kind": "dihedral", "n": 3}, {"kind": "quaternion8"}]
    specs += [{"kind": "quaternion8"}] + [
        {"kind": "direct_product", "factors": [a, b]} for a in small for b in small]
    return specs


def test_every_small_descriptor_builds_at_the_first_table_prime():
    """The table is built at `_table_prime(|G|, e)`, and its forms pass the
    certificate at the next table prime too, where every fact read off the
    residues (indicators, duals, Galois orbits, fixed dimensions, structure
    constants) comes out the same, in the same order of irreducibles."""
    from tensorcond.chars import CharacterTable, _table_prime
    from tensorcond.groups import build_group
    for spec in _small_descriptors():
        G = build_group(spec)
        T = character_table(G)
        assert T.modulus == _table_prime(G.order, G.exponent), G.name
        U = CharacterTable(G, T.forms, _table_prime(T.modulus, G.exponent))
        assert U.modulus > T.modulus, G.name
        assert (U.forms, U.degrees) == (T.forms, T.degrees), G.name
        last = len(T) - 1
        for table in (T, U):
            assert table.fs_indicators[table.index_of_trivial()] == 1, G.name
            assert table.fixed_dims(trivial_subgroup(G)) == T.degrees, G.name
        assert (U.dual_index, U.fs_indicators, U.galois_orbits, U.index_of_trivial(),
                U.fixed_dims(whole_group(G)), U.structure_constants(last, last)) == \
            (T.dual_index, T.fs_indicators, T.galois_orbits, T.index_of_trivial(),
             T.fixed_dims(whole_group(G)), T.structure_constants(last, last)), G.name


def test_the_trivial_group_is_not_symplectic(tmp_path, capsys):
    """Its table prime is 3, not 2, where the indicator 1 would read as -1:
    the one-dimensional trivial character is orthogonal, and a `bound`
    document that calls it symplectic is refused with exit 2."""
    import json

    from tensorcond.cli import main
    T = character_table(cyclic(1))
    assert T.modulus == 3 and T.fs_indicators == (1,)
    assert not T.is_symplectic_mults([1]) and T.is_symplectic_mults([2])
    doc = tmp_path / "bound.json"
    doc.write_text(json.dumps({
        "model": {"group": {"kind": "cyclic", "n": 1}, "chain": [[]], "p": 2},
        "A": {"tau": [1], "sigma": [0]}, "B": {"tau": [1], "sigma": [0]}}))
    assert main(["bound", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == "input error: A: toric-free part tau must be symplectic\n"


def test_cold_tables_take_no_exact_averages(monkeypatch):
    """The build's certificate works on eigenvalue forms and residues: no
    exact average (`_average`) and no reduction mod Phi_e (`reduce_mod_phi`)."""
    from tensorcond import chars
    from tensorcond.groups import build_group

    def refuse(*args):
        raise AssertionError("a cold table took an exact average")
    monkeypatch.setattr(chars, "_average", refuse)
    monkeypatch.setattr(chars, "reduce_mod_phi", refuse)
    for spec in [{"kind": "quaternion8"}, {"kind": "cyclic", "n": 25},
                 {"kind": "heisenberg", "p": 3}, {"kind": "affine", "p": 7}] + EXTRA_GROUPS:
        T = character_table(build_group(spec))
        assert sum(d * d for d in T.degrees) == T.group.order


@pytest.mark.parametrize("spec", [
    {"kind": "cyclic", "n": 27}, {"kind": "elementary_abelian", "p": 3, "k": 3},
    {"kind": "heisenberg", "p": 5}, {"kind": "dihedral", "n": 8}, {"kind": "affine", "p": 7},
    {"kind": "direct_product", "factors": [{"kind": "quaternion8"}, {"kind": "cyclic", "n": 3}]},
], ids=["c27", "3^3", "heis5", "d8", "aff7", "q8xc3"])
def test_table_rows_are_orthonormal_by_the_inner_product_oracle(spec):
    """Every pair of irreducibles, by the CycloNum sum of `inner_product`
    over class values assembled from the forms."""
    from tensorcond.groups import build_group
    T = character_table(build_group(spec))
    irr = T.irreducibles
    for i, chi in enumerate(irr):
        for j, psi in enumerate(irr):
            assert inner_product(chi, psi) == int(i == j), (i, j)


# -- the exponent-form averages against the CycloNum oracle ------------------------


def test_fixed_dim_matches_the_inner_product_oracle(corpus):
    for entry in corpus.entries:
        G = entry.group
        triv = trivial(G)
        subgroups = {H.elements: H for c in entry.chains for H in c.filtration.chain}
        for seed in range(3):
            chi = gen_character(G, f"fixed:{seed}", 8)
            for H in subgroups.values():
                assert fixed_dim(chi, H) == inner_product(chi, triv, H), (entry.name, seed)


def _form_groups(corpus):
    from tensorcond.groups import build_group
    return [e.group for e in corpus.entries] + [build_group(s) for s in EXTRA_GROUPS]


def _class_functions(G):
    """Seeded characters of G and the dual of its last irreducible; on Q8
    also its 2-dimensional irreducible written as chi_2 + i - i, and i
    times it, a class function in Q(zeta_4) that is not a character."""
    T = character_table(G)
    out = [gen_character(G, f"form:{seed}", 6) for seed in range(2)]
    out.append(dual(T.irreducibles[-1]))
    if G.spec == {"kind": "quaternion8"}:
        chi2 = two_dim(T)
        out += [from_values(G, [sub(v + root_of_unity(4), root_of_unity(4))
                                for v in chi2.values]),
                from_values(G, [root_of_unity(4) * v for v in chi2.values])]
    return out


def test_form_arithmetic_matches_the_values(corpus):
    """Products, sums, scalings and duals taken on exponent forms give the
    values taken on CycloNum values."""
    for G in _form_groups(corpus):
        fs = _class_functions(G)
        for chi in fs:
            assert list(dual(chi).values) == [chi.values[c] for c in G.inverse_class]
            assert list(scale(chi, -3).values) == [v.scale(-3) for v in chi.values]
            for psi in fs:
                assert list((chi * psi).values) == [
                    a * b for a, b in zip(chi.values, psi.values)], G.name
                assert list(add(chi, psi).values) == [
                    a + b for a, b in zip(chi.values, psi.values)], G.name


def test_fixed_dim_of_products_matches_restriction(corpus):
    """fixed_dim of a form product, against the CycloNum average of the
    values' product restricted to the subgroup: equal, or both refused."""
    for G in _form_groups(corpus):
        top = max(G.class_reps, key=G.element_orders.__getitem__)
        subgroups = [whole_group(G), subgroup_generated(G, [top])]
        fs = _class_functions(G)
        for chi in fs:
            for psi in fs[1:]:
                values = from_values(G, [a * b for a, b in zip(chi.values, psi.values)])
                for H in subgroups:
                    res = restrict(values, H)
                    try:
                        want = inner_product(res, trivial(res.group))
                    except ValueError:  # not rational
                        want = None
                    if want is not None and want.denominator == 1 and want >= 0:
                        assert fixed_dim(chi * psi, H) == want, G.name
                    else:
                        with pytest.raises(PreconditionError, match="fixed-space average "
                                           "is (not rational|.*, not a nonnegative integer)"):
                            fixed_dim(chi * psi, H)


def _frobenius_schur_by_cyclonums(psi):
    G = psi.group
    total = cyclo_zero()
    for c, size in enumerate(G.class_sizes):
        total = total + psi.values[G.class_power(c, 2)].scale(size)
    return rational_value(total) / G.order


def test_frobenius_schur_matches_a_cyclonum_sum(corpus):
    """The table's indicators (summed over its validated rows) and the
    guarded `frobenius_schur`, against a CycloNum sum."""
    from tensorcond.groups import build_group
    groups = [e.group for e in corpus.entries] + [build_group(s) for s in EXTRA_GROUPS]
    for G in groups:
        T = character_table(G)
        want = tuple(_frobenius_schur_by_cyclonums(psi) for psi in T.irreducibles)
        assert T.fs_indicators == want, G.name
        assert tuple(frobenius_schur(psi) for psi in T.irreducibles) == want, G.name


def test_frobenius_schur_indicators_read_no_class_values(monkeypatch):
    """The table's indicators come from its residues: on tables built
    afresh they are read with the exact average and every character's
    exponent form and values switched off, and match the CycloNum sum."""
    from tensorcond import chars
    from tensorcond.groups import build_group
    specs = [{"kind": "quaternion8"}, {"kind": "cyclic", "n": 5},
             {"kind": "heisenberg", "p": 3}, {"kind": "dihedral", "n": 6}]
    wants = [tuple(_frobenius_schur_by_cyclonums(psi)
                   for psi in character_table(build_group(spec)).irreducibles)
             for spec in specs]

    def refuse(*args):
        raise AssertionError("Frobenius-Schur indicators read class values")
    monkeypatch.setattr(chars, "_average", refuse)
    monkeypatch.setattr(chars.Character, "form", property(refuse))
    monkeypatch.setattr(chars.ClassFunction, "values", property(refuse))
    for spec, want in zip(specs, wants):
        T = character_table(build_group(spec))
        assert T.fs_indicators == want, T.group.name
    assert sorted(wants[0]) == [-1, 1, 1, 1, 1]


def test_forms_and_values_are_computed_once_and_kept(monkeypatch):
    """`Character.form` and `ClassFunction.values` are taken when first read
    and kept: a second read calls neither `_combine` nor `power_basis` and
    returns the same object.  On Aff5 the eigenvalues 1, i, -1, -i at an
    element of order 4 cancel, both in the 4-dimensional irreducible and in
    the sum of the four linear characters."""
    from tensorcond import chars
    calls = []

    def counting(name):
        real = getattr(chars, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted
    for name in ("_combine", "power_basis"):
        monkeypatch.setattr(chars, name, counting(name))

    def read_twice(chi, attr):
        calls.clear()
        first = getattr(chi, attr)
        made = list(calls)
        calls.clear()
        assert getattr(chi, attr) is first and calls == [], attr
        return made

    T = character_table(affine(5))
    r, four = len(T), T.group.class_orders.index(4)
    irreducible = T.irreducibles[T.degrees.index(4)]
    linear_sum = T.assemble([int(d == 1) for d in T.degrees])
    for chi in (irreducible, linear_sum):
        assert "form" not in vars(chi)
        made = read_twice(chi, "form")
        assert "power_basis" in made and chi.form[four] == ()
        assert ("_combine" in made) == (chi is linear_sum)
        assert read_twice(chi, "values") == ["power_basis"] * r
    product = irreducible * linear_sum
    assert read_twice(product, "form") == []
    assert read_twice(product, "values") == ["power_basis"] * r


def test_irrational_averages_are_not_characters():
    G = cyclic(5)
    T = character_table(G)
    # zeta_5 on one class, 0 elsewhere: every average is zeta_5 times a rational
    chi = from_values(G, [0, root_of_unity(5), 0, 0, 0])
    with pytest.raises(PreconditionError, match="fixed-space average is not rational"):
        fixed_dim(chi, whole_group(G))
    with pytest.raises(PreconditionError, match=r"<chi, psi_\d+> is not rational"):
        T.multiplicities(chi)
    assert is_symplectic(chi) is False
    # unit norm, but the indicator sum 5 * zeta_5 is not rational
    with pytest.raises(PreconditionError, match="Frobenius-Schur sum is not rational"):
        frobenius_schur(from_values(G, [root_of_unity(5)] * 5))


def test_averages_of_terms_that_cancel_only_mod_phi_e():
    # 1 + x^2 over x^4 - 1 at every class of C4 is 1 + zeta_4^2 = 0, but its
    # terms cancel only once an average is reduced mod Phi_4
    G = cyclic(4)
    T = character_table(G)
    vanishing = ClassFunction(G, [((0, 1), (2, 1))] * len(G.classes))
    assert vanishing == zero(G) and vanishing.dim == 0
    assert T.multiplicities(vanishing) == (0,) * len(T)
    subgroups = (whole_group(G), subgroup_generated(G, [2]), trivial_subgroup(G))
    assert [fixed_dim(vanishing, H) for H in subgroups] == [0, 0, 0]
    for psi in T.irreducibles:
        shifted = add(psi, vanishing)
        assert shifted.form != psi.form and shifted == psi
        assert T.multiplicities(shifted) == psi.mults
        for H in subgroups:
            assert fixed_dim(shifted, H) == fixed_dim(psi, H)


# -- the table build: class matrices on demand, the split, the retry ------------------

# sha256 of `table --format machine`, recorded from the Faddeev-LeVerrier and
# RREF-kernel split with one DFT per class
TABLE_DIGESTS = {
    "c4": "0f034139a76c6b76a07251fb297d529bd5a60b1ba4dfcc82326d77bf64406740",
    "c8": "4127b4cd8cd4d934e2a1b1959c5b01ec82ede2b511a801722c6364ad2f84373a",
    "c9": "2a95c6d16bb872d1ea0c2667b63ddff2d1892b8619bb858aab2f359cac320ebc",
    "c5": "23a1f66df3bf2a54ac37ff62e1f68abeb63572825155b78675ae67611d1e49fc",
    "c25": "0b0000ba1ee9ddfd4cbbd2b6e23d56b735450f5850872d50e36f58c84a7147f0",
    "q8": "1bbd051a298e3a71febd2f1d8e63980e68ad7a2493f395b50b5dba4f2a4dd1e7",
    "d4": "feb31745c7bf0479fa65fe4042a920ce03438622e0ef1cefbdf537ecf3b82ee8",
    "heis3": "3348cafa7ec4191b74a24971e3d425a01bcbfdc37403adcba8f3b1b5c4a15fe4",
    "ea9": "315b76e5e1b00ef9ef5562d2c8b7fa27b875a6dc271ea67880b6eae69aa8841d",
    "aff5": "adeb8da097d92dfe1faa2a8b840c09e10d510b97df5b4e4a85dfc6f0d1df0fb2",
    "aff7": "13e6b7278d68eb418e6ba78718617e3e535a2603243a43768a4376d9e86d5b1e",
    "heis5": "9802f2b8f6be2ed21ae6bf82902a0bc96b36ef4e278c6c8618d6d2a96933e13d",
    "q8xc3": "2ce0d821095816cb90bf77f91669aa0f35b15e9c39d8729ab25a9e11e792186f",
    "d6": "fe47857e78898c97ea2758af0dad3281e08d579b2bc4e433599e83b76cd55366",
    "c64": "e3770058d56d199b8da9570d7dabfe1232ca67544c1f09c9083f1e5e420aaa56",
    "2^5": "32f1b26c8a5c384e0b75a166f63267ed2014b3328071adf305daec6d21a70c04",
}


def _digest_groups(corpus):
    """(name, spec) of every corpus group and of EXTRA_GROUPS."""
    extra = ["aff7", "heis5", "q8xc3", "d6", "c64", "2^5"]
    return [(e.name, e.group.spec) for e in corpus.entries] + list(zip(extra, EXTRA_GROUPS))


# sha256 of `table --format human`, recorded while each value was printed
# from a memoised CycloNum of its character
HUMAN_TABLE_DIGESTS = {
    "c4": "69804560262af99cd7e04fdfae03425c3a4a1d987938846f2fa2e3cdb2e38517",
    "c8": "4e4c9a3444a4bede0299664f4c6686fb7d9e830bc80fd8578b69cd076309874d",
    "c9": "33b5ad3bcff7e063d94ec36e62150280652d98d379ba2cb4f3f9ba66d6b7a919",
    "c5": "740b1fab4e9fbe37345cfef0d440307d825a5d03f37dceda8b5845d9016caa4e",
    "c25": "9c13cacdf1ad3243279b9c6b3daf6d512203eb68c6e2d78e1c4cad354e7b828c",
    "q8": "831c15825867667bdd4596cf8e5e45b6e946cacdc9d5e92ed6b7b75a3d3e31e7",
    "d4": "fc606f0090d956508e4e2d38b7ef9361d6be77f6f2d1b3836133075e878d6def",
    "heis3": "42e1c3df490158981e3d2932c3b701f6ba8181c81a75900061810231e96bd69d",
    "ea9": "e525cdf0b5d09086a5253cc501b0f5cb7eaa001d9d6071ac3c52179d3b25c29c",
    "aff5": "d5e27fe091abb147cf29e12797db19a105a39c9dfa95b555789b17eae852a7dd",
    "aff7": "382bc62da713f75b1f7a85165453f72b4a1ba7ff22e06a647bd0c6cd4a0b4994",
    "heis5": "bd70e4e115b0d851d0b2b8d36e4acefcfd169eb35238e9fb37853bce56964b15",
    "q8xc3": "48bdd1b8fa5ae82cd35f0b6b74fefd0ecd5842582c35354ace18fb3a34269b9e",
    "d6": "039f4c4f1191529cee2f5872281e01eb95eec760bf077836cad57a42964a03e6",
    "c64": "7ff64ae2c96ca2a351c8805fa0795325d3951e9b86ad1a4d3e08fe85c6ebcf9d",
    "2^5": "4851996feec814d8b2740e658391a53a2b7ab97c601230631ad178618509a768",
}


def _check_table_digests(corpus, capsys, fmt, digests):
    import hashlib
    import json
    from tensorcond.cli import main
    groups = _digest_groups(corpus)
    assert sorted(name for name, _ in groups) == sorted(digests)
    for name, spec in groups:
        assert main(["table", "--group", json.dumps(spec), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digests[name], name


def test_table_machine_output_digests(corpus, capsys):
    _check_table_digests(corpus, capsys, "machine", TABLE_DIGESTS)


def test_table_human_output_digests(corpus, capsys):
    _check_table_digests(corpus, capsys, "human", HUMAN_TABLE_DIGESTS)


def test_the_machine_table_builds_no_cyclonum(capsys, monkeypatch):
    """`table --format machine` writes each value's coefficients straight
    from its eigenvalue form (`chars.power_basis`), with no CycloNum."""
    import hashlib
    import json
    from tensorcond.cli import main
    from tensorcond.cyclo import CycloNum

    def refuse(self, *args):
        raise AssertionError("the machine table built a CycloNum")
    monkeypatch.setattr(CycloNum, "__init__", refuse)
    assert main(["table", "--group", json.dumps(EXTRA_GROUPS[2]), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS["q8xc3"]


def test_table_values_are_the_root_of_unity_sums_of_their_forms(capsys):
    """On every small descriptor up to order 32, each distinct value `table`
    writes is sum m zeta_e^a over the terms (a, m) of its eigenvalue form:
    the machine object decodes to it (`cyclo_from_json`), and the human
    token in the same place is its text."""
    import json
    from tensorcond.cli import main
    from tensorcond.groups import build_group

    from oracles import cyclo_from_json
    for spec in _small_descriptors():
        G = build_group(spec)
        if G.order > 32:
            continue
        T = character_table(G)
        outs = []
        for fmt in ("machine", "human"):
            assert main(["table", "--group", json.dumps(spec), "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        doc, lines = json.loads(outs[0]), outs[1].splitlines()[2:]
        assert len(doc["irreducibles"]) == len(lines) == len(T.forms), G.name
        checked = set()
        for form, irr, line in zip(T.forms, doc["irreducibles"], lines):
            tokens = line.split(": ", 1)[1].split("  ")
            assert len(tokens) == len(irr["values"]) == len(form), G.name
            for terms, obj, token in zip(form, irr["values"], tokens):
                seen = (terms, obj["N"], tuple(obj["coeffs"]), token)
                if seen in checked:
                    continue
                checked.add(seen)
                value = cyclo_from_json(obj)
                want = sum((root_of_unity(G.exponent, a).scale(m) for a, m in terms),
                           cyclo_zero(G.exponent))
                assert value == want, (G.name, terms)
                assert token == str(value), (G.name, terms)


def _dense(sparse_rows, r):
    """A matrix held as each row's nonzero (column, entry) pairs, written out."""
    out = [[0] * r for _ in sparse_rows]
    for row, entries in zip(out, sparse_rows):
        for k, c in entries:
            assert c and row[k] == 0  # one pair per nonzero entry
            row[k] = c
    return out


def test_class_matrices_on_demand_match_the_product_count(corpus):
    """Each sparse row, written out dense, against the |G|^2 product count;
    a combination of classes against the same combination of the counts."""
    from tensorcond.chars import _class_matrix
    from tensorcond.groups import build_group
    for name, spec in _digest_groups(corpus):
        G = build_group(spec)
        r = len(G.classes)
        want = class_matrices(G)
        assert [_dense(_class_matrix(G, {i: 1}), r) for i in range(r)] == want, name
        coeffs = {i: 2 * i + 3 for i in range(1, r, 2)}
        assert _dense(_class_matrix(G, coeffs), r) == [
            [sum(a * want[i][j][k] for i, a in coeffs.items()) for k in range(r)]
            for j in range(r)], name


def test_split_refuses_a_prime_that_does_not_split_the_class_algebra():
    """Mod 5 every class matrix of C5 has the single eigenvalue 1: the
    Krylov polynomial x^5 - 1 = (x - 1)^5 has one root, not five."""
    from tensorcond.chars import _joint_eigenvectors
    from tensorcond.errors import TableComputationError
    with pytest.raises(TableComputationError, match="not split semisimple"):
        _joint_eigenvectors(cyclic(5), 5)


def _count_split_work(monkeypatch):
    """Counters of the class matrices (or combinations) built and of the
    `_split_piece` calls made, from here on."""
    from tensorcond import chars
    counts = {"matrices": 0, "splits": 0}
    build, split = chars._class_matrix, chars._split_piece

    def counted_build(*args):
        counts["matrices"] += 1
        return build(*args)

    def counted_split(*args):
        counts["splits"] += 1
        return split(*args)
    monkeypatch.setattr(chars, "_class_matrix", counted_build)
    monkeypatch.setattr(chars, "_split_piece", counted_split)
    return counts


@pytest.mark.parametrize("spec, matrices, splits", [
    # one pass per class matrix took 64 matrices and 2731 calls
    ({"kind": "elementary_abelian", "p": 2, "k": 7}, 40, 1100),
    # and on D256 130 matrices and 16,386 calls
    ({"kind": "dihedral", "n": 256}, 8, 600)])
def test_the_split_stops_at_a_stall(monkeypatch, spec, matrices, splits):
    """2^7 stalls after each new generator, and D256's rotation classes
    leave two pairs of linear characters joined until its reflections: a
    combination of the classes left ends both splits (measured: 37
    matrices and 1003 calls on 2^7, 7 and 521 on D256)."""
    from tensorcond.groups import build_group
    G = build_group(spec)
    counts = _count_split_work(monkeypatch)
    T = character_table(G)
    assert len(T) == len(G.classes)
    assert counts["matrices"] <= matrices and counts["splits"] <= splits, counts


def test_a_combination_that_splits_nothing_leaves_the_split_to_the_classes(monkeypatch):
    """With every coefficient 0 the combination is the zero matrix: the
    split goes on one class at a time, to the same table, and ends."""
    from tensorcond import chars
    from tensorcond.groups import build_group

    class Zeros:
        def randrange(self, *args):
            return 0
    spec = {"kind": "dihedral", "n": 32}
    want = character_table(build_group(spec)).forms
    monkeypatch.setattr(chars, "_rng", lambda tag, seed: Zeros())
    counts = _count_split_work(monkeypatch)
    G = build_group(spec)
    assert character_table(G).forms == want
    assert counts["matrices"] > len(G.classes) - 1  # some combination was built


# -- table facts from the residues against their class-value definitions ---------------


def _fact_groups(corpus):
    """Every group of `_digest_groups`, plus Aff29 (exponent 812)."""
    from tensorcond.groups import build_group
    return [build_group(spec) for _, spec in _digest_groups(corpus)] + [affine(29)]


def _keys(values):
    # a class's values all have its element order as conductor, so equal
    # values have equal keys
    return tuple(key(v) for v in values)


def test_dual_galois_and_trivial_lookups_match_class_values(corpus):
    from math import gcd
    for G in _fact_groups(corpus):
        T = character_table(G)
        rows = [_keys(psi.values) for psi in T.irreducibles]
        index = {row: i for i, row in enumerate(rows)}
        assert len(index) == len(T), G.name
        assert T.dual_index == tuple(index[_keys(dual(psi).values)]
                                     for psi in T.irreducibles), G.name
        assert T.irreducibles[T.index_of_trivial()] == trivial(G), G.name
        units = [k for k in range(1, G.exponent + 1) if gcd(k, G.exponent) == 1]
        orbits = T.galois_orbits
        assert sorted(i for orbit in orbits for i in orbit) == list(range(len(T))), G.name
        assert list(orbits) == sorted(orbits) and all(list(o) == sorted(o) for o in orbits)
        for orbit in orbits:
            want = {rows[i] for i in orbit}
            for i in orbit:
                twists = {tuple(rows[i][G.class_power(c, k)] for c in range(len(G.classes)))
                          for k in units}
                assert twists == want, (G.name, orbit, i)


def test_fixed_dims_match_fixed_dim_on_every_chain_subgroup(corpus):
    for entry in corpus.entries:
        T = character_table(entry.group)
        for H in {H.elements: H for c in entry.chains
                  for H in c.filtration.chain}.values():
            assert T.fixed_dims(H) == tuple(fixed_dim(psi, H) for psi in T.irreducibles), \
                entry.name
    G = affine(29)
    T = character_table(G)
    for H in (whole_group(G), trivial_subgroup(G), subgroup_generated(G, [1])):
        assert T.fixed_dims(H) == tuple(fixed_dim(psi, H) for psi in T.irreducibles)


def test_kernel_rows_hold_the_fixed_dim_averages_on_every_level(corpus):
    """A chain's per-level rows are the class-average `fixed_dim` of each
    irreducible on each level, repeated levels included, and its Artin row
    sums them weighted by |G_l|."""
    for chain in corpus.all_chains():
        T, levels = chain.table, chain.filtration.chain
        artin, rows = chain.kernel_rows
        assert rows == tuple(tuple(fixed_dim(psi, H) for psi in T.irreducibles)
                             for H in levels), chain.label
        assert artin == tuple(sum((psi.dim - fixed_dim(psi, H)) * H.size for H in levels)
                              for psi in T.irreducibles), chain.label
        for psi in T.irreducibles:
            assert chain.fixed(psi) == [fixed_dim(psi, H) for H in levels], chain.label


def test_chain_fixed_refuses_a_character_of_another_table(corpus):
    from tensorcond.errors import PreconditionError
    chains = corpus.all_chains()
    chain = chains[0]
    other = next(c for c in chains if c.table is not chain.table)
    with pytest.raises(PreconditionError, match="expected a Character of the table"):
        chain.fixed(other.table.irreducibles[0])
    with pytest.raises(PreconditionError, match="negative entry"):
        chain.fixed(chain.table.assemble([-1] + [0] * (len(chain.table) - 1)))


def test_kernel_facts_do_not_call_the_fixed_dim_oracle(monkeypatch):
    """`fixed_dims`, the kernel rows and the Weil-Deligne kernel on fresh
    tables, with the class-average `fixed_dim` made to raise everywhere."""
    from tensorcond import chars, filtration, weildeligne
    from tensorcond.weildeligne import AbVarDatum, WDRep, tensor
    from oracles import chain_on

    def oracle(*args):
        raise AssertionError("the integer kernel called fixed_dim")
    for mod in (chars, filtration, weildeligne):
        monkeypatch.setattr(mod, "fixed_dim", oracle)
    for G, gens, p in ((quaternion8(), [[4]], 2), (heisenberg(3), [[1, 9], [9]], 3)):
        model = chain_on(G, gens, p)
        T = model.table
        artin, levels = model.kernel_rows
        assert levels == tuple(T.fixed_dims(H) for H in model.filtration.chain)
        assert levels[-1] == T.degrees and levels[0][T.index_of_trivial()] == 1
        tau = T.assemble(gen_symplectic_mults(T, 0, 6))
        sigma = T.assemble([int(i == T.index_of_trivial()) for i in range(len(T))])
        A = AbVarDatum(model, tau, sigma)
        rho = tensor(A.rho, A.rho)
        assert isinstance(rho, WDRep)
        assert rho.artin_conductor() >= 0 and rho.swan_conductor() >= 0
        assert rho.degree() >= 0 and A.degree() >= 0


def test_irreducibles_are_the_unit_vectors_of_their_table(corpus):
    from tensorcond.chars import Character
    for entry in corpus.entries:
        T = character_table(entry.group)
        for i, psi in enumerate(T.irreducibles):
            assert isinstance(psi, Character) and psi.table is T, entry.name
            assert psi.mults == tuple(int(j == i) for j in range(len(T))), entry.name
            assert psi.dim == T.degrees[i], entry.name


def test_galois_orbits_permute_classes_by_a_few_unit_generators(monkeypatch):
    """On Aff29 (exponent 812, phi(812) = 336 units) the orbits need the
    class permutations of at most floor(log2 336) + 1 units, r calls of
    `class_power` each, made once per table: the certificate's check (b)
    and the orbits read the same ones.  The orbits themselves are checked
    against every unit in
    `test_dual_galois_and_trivial_lookups_match_class_values`."""
    from tensorcond import chars
    from tensorcond.groups import FiniteGroup
    G = affine(29)
    real_moves, real_power = chars._galois_moves, FiniteGroup.class_power
    made, calls = [], []

    def moves(group):
        made.append(real_moves(group))
        return made[-1]

    def counted(self, c, k):
        calls.append(k)
        return real_power(self, c, k)
    monkeypatch.setattr(chars, "_galois_moves", moves)
    T = character_table(G)
    monkeypatch.setattr(FiniteGroup, "class_power", counted)
    orbits = T.galois_orbits
    r = len(T)
    assert len(made) == 1 and calls == []
    assert len(made[0]) <= (336).bit_length()  # bit_length = floor(log2) + 1
    assert all(len(perm) == r for _, perm in made[0])
    # the linear characters are those of C28, one orbit per divisor of 28
    assert sorted(len(o) for o in orbits) == [1, 1, 1, 2, 6, 6, 12]
