import re
from math import lcm

import pytest

from tensorcond.errors import PreconditionError
from tensorcond.groups import (FiniteGroup, Filtration, affine, build_group, cyclic,
                               dihedral, direct_product, elementary_abelian,
                               filtration_from_generators, heisenberg,
                               pgroup_prime, quaternion8, subgroup_generated,
                               trivial_subgroup, whole_group, Subgroup)

from oracles import (as_group, check_associativity, conjugate, conjugation_orbits,
                     encoded_group, is_normal, orders_by_powers, product_closure)


def corpus_like_groups():
    return [cyclic(1), cyclic(4), cyclic(8), cyclic(9), quaternion8(),
            dihedral(4), heisenberg(3), affine(5), elementary_abelian(3, 2),
            affine(3), direct_product(cyclic(2), cyclic(3))]


def test_affine3_order_and_classes():
    G = affine(3)
    assert G.order == 6
    assert len(G.classes) == 3


def test_cyclic1_trivial():
    G = cyclic(1)
    assert G.order == 1
    assert G.identity == 0
    assert G.exponent == 1


def test_quaternion8_shape():
    G = quaternion8()
    assert G.order == 8
    assert len(G.classes) == 5
    assert G.exponent == 4


def test_heisenberg_exponent():
    G = heisenberg(3)
    assert G.order == 27
    assert G.exponent == 3
    assert heisenberg(5).order == 125


def test_affine_order_and_prime_rejection():
    assert affine(5).order == 20
    with pytest.raises(PreconditionError, match="p=4 is not prime"):
        affine(4)
    with pytest.raises(PreconditionError, match="p=6 is not prime"):
        heisenberg(6)


def test_order_cap(monkeypatch):
    from tensorcond import groups
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 8)
    with pytest.raises(PreconditionError, match="'n' exceeds cap 8"):
        build_group({"kind": "cyclic", "n": 10})


def test_build_group_descriptors():
    assert build_group({"kind": "affine", "p": 5}).order == 20
    assert build_group({"kind": "direct_product",
                        "factors": [{"kind": "cyclic", "n": 2},
                                    {"kind": "cyclic", "n": 2}]}).order == 4
    with pytest.raises(PreconditionError, match="unknown group kind 'nope'"):
        build_group({"kind": "nope"})


def test_associativity_exhaustive():
    for G in corpus_like_groups():
        check_associativity(G)


def test_subgroup_generated_center_of_q8():
    """The center of Q8 and the edge cases; then every corpus generator
    list, and random generator sets of one to three elements on larger
    groups, against the closure under products."""
    import random
    from tensorcond.corpus import load_corpus
    G = quaternion8()
    Z = subgroup_generated(G, [4])  # -1
    assert Z.elements == (0, 4)
    assert subgroup_generated(G, []).elements == (0,)
    assert subgroup_generated(G, list(range(8))).size == 8
    for entry in load_corpus().entries:
        for chain in entry.chains:
            for gens in chain.generator_lists:
                assert subgroup_generated(entry.group, gens).elements == \
                    product_closure(entry.group, gens), chain.label
    rng = random.Random("subgroup-closure")
    for G, count in ((affine(29), 6), (heisenberg(5), 30), (dihedral(12), 30),
                     (quaternion8(), 20),
                     (direct_product(quaternion8(), cyclic(3)), 30)):
        for _ in range(count):
            gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 3))]
            assert subgroup_generated(G, gens).elements == product_closure(G, gens), \
                (G.name, gens)


def test_subgroup_accepts_exactly_the_sets_closed_under_products():
    """Subgroup's closure certificate against the closure under products:
    on generated subgroups, on those with a member added or removed, and
    on random subsets holding the identity."""
    import random
    rng = random.Random("subgroup-certificate")
    verdicts = set()
    for G, count in ((affine(29), 3), (heisenberg(5), 12), (dihedral(12), 12),
                     (quaternion8(), 12),
                     (direct_product(quaternion8(), cyclic(3)), 12)):
        for _ in range(count):
            H = product_closure(G, [rng.randrange(G.order) for _ in range(rng.randint(1, 2))])
            others = [g for g in range(G.order) if g not in H]
            sets = [set(H), set(H) - {H[-1]},
                    {G.identity, *rng.sample(range(G.order), rng.randint(1, G.order // 4))}]
            if others:
                sets.append(set(H) | {rng.choice(others)})
            for S in sets:
                closed = product_closure(G, S) == tuple(sorted(S))
                try:
                    accepted = Subgroup(G, S).elements == tuple(sorted(S))
                except PreconditionError:
                    accepted = False
                assert accepted == closed, (G.name, sorted(S))
                verdicts.add(closed)
    assert verdicts == {True, False}


def test_power_map():
    C4 = cyclic(4)
    assert C4.power(1, 2) == 2
    assert C4.element_orders[C4.power(1, 2)] == 2
    Q = quaternion8()
    assert Q.power(1, -1) == 5  # i^-1 = -i
    for G in (C4, Q):
        for k in (-3, 0, 5):
            assert G.power(G.identity, k) == G.identity
    # on every corpus group, the class of g^k for every member g of a class
    # and k in [-e, 2e), g^k by repeated multiplication
    from tensorcond.corpus import load_corpus
    for entry in load_corpus().entries:
        G = entry.group
        e = G.exponent
        for ci, members in enumerate(G.classes):
            for g in members:
                x = G.identity
                for k in range(2 * e):
                    assert G.class_power(ci, k) == G.class_of[x], (entry.name, ci, g, k)
                    x = G.table[x][g]
                x = G.identity
                for k in range(-1, -e - 1, -1):
                    x = G.table[x][G.inverses[g]]
                    assert G.class_power(ci, k) == G.class_of[x], (entry.name, ci, g, k)


def test_filtration_validation():
    Q = quaternion8()
    Z = subgroup_generated(Q, [4])
    filt = Filtration(Q, [whole_group(Q), Z, trivial_subgroup(Q)])
    assert [s.size for s in filt.chain] == [8, 2, 1]
    # trivial tail appended when absent
    filt2 = Filtration(Q, [whole_group(Q), Z])
    assert filt2.chain[-1].is_trivial()
    with pytest.raises(PreconditionError, match="chain must start at the whole group"):
        Filtration(Q, [Z, whole_group(Q)])
    with pytest.raises(PreconditionError, match="empty chain"):
        Filtration(Q, [])
    with pytest.raises(PreconditionError, match="chain must start at the whole group"):
        Filtration(Q, [Z])  # does not start at the whole group


def test_lagrange_on_filtrations():
    G = affine(5)
    filt = filtration_from_generators(G, [[1], [1]])
    for s in filt.chain:
        assert s.index * s.size == G.order


def test_affine_unique_normal_p_subgroup():
    for p in (3, 5, 7):
        G = affine(p)
        subs_of_order_p = set()
        for g in range(G.order):
            H = subgroup_generated(G, [g])
            if H.size == p:
                subs_of_order_p.add(H.elements)
        assert subs_of_order_p == {tuple(range(p))}
        assert is_normal(Subgroup(G, range(p)))


def test_nonnormal_subgroups_allowed_in_chains():
    D = dihedral(4)
    refl = subgroup_generated(D, [4])
    assert not is_normal(refl)
    filt = filtration_from_generators(D, [[4]])
    assert [s.size for s in filt.chain] == [8, 2, 1]
    G = affine(5)
    torus = subgroup_generated(G, [5])
    assert torus.size == 4 and not is_normal(torus)


def test_exactly_two_builtin_chains_have_a_level_that_is_not_normal():
    """Level 1 of d4/reflection (a reflection) and of aff5/stabiliser (a
    point stabiliser) is not normal in G_0; every other level of every
    builtin chain is, so a route that needs normal levels sees these two."""
    from tensorcond.corpus import load_corpus
    chains = load_corpus().all_chains()
    found = {(chain.label, i) for chain in chains
             for i, H in enumerate(chain.filtration.chain) if not is_normal(H)}
    assert found == {("d4/reflection", 1), ("aff5/stabiliser", 1)}


def test_subgroup_closure_validation():
    Q = quaternion8()
    with pytest.raises(PreconditionError, match="not closed under products"):
        Subgroup(Q, [0, 1])  # not closed: i*i = -1 missing


def test_subgroup_still_refuses_a_set_that_is_not_closed():
    """subgroup_generated builds from its closure without the certificate;
    Subgroup on a given set keeps it, so a generated subgroup with a member
    added or removed is refused."""
    for G, gens in ((affine(43), [1]), (dihedral(12), [2]), (heisenberg(5), [1])):
        H = subgroup_generated(G, gens)
        assert Subgroup(G, H.elements) == H and 2 < H.size < G.order
        outside = next(g for g in range(G.order) if g not in H.member)
        for S in (set(H.elements) | {outside}, set(H.elements) - {H.elements[-1]}):
            with pytest.raises(PreconditionError, match="not closed under products"):
                Subgroup(G, S)


def test_subgroup_as_group():
    Q = quaternion8()
    H = subgroup_generated(Q, [1])  # <i> of order 4
    S, embed = as_group(H)
    assert S.order == 4
    assert sorted(embed) == list(H.elements)
    assert S.exponent == 4


def test_conjugacy_classes_are_conjugation_orbits():
    for G in (quaternion8(), dihedral(4), affine(3)):
        for cls in G.classes:
            orbit = {conjugate(G, h, cls[0]) for h in range(G.order)}
            assert orbit == set(cls)


@pytest.mark.parametrize("spec, field", [
    ({"kind": "cyclic"}, "'n'"),
    ({"kind": "cyclic", "n": "x"}, "'n'"),
    ({"kind": "dihedral", "n": 2.0}, "'n'"),
    ({"kind": "elementary_abelian", "p": 3}, "'k'"),
    ({"kind": "affine", "p": True}, "'p'"),
    ({"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2},
                                            {"kind": "heisenberg"}]}, "'factors[1].p'"),
    ({"kind": "direct_product", "factors": []}, "'factors'"),
    ({"kind": "direct_product", "factors": [3]}, "'factors[0]'"),
])
def test_build_group_names_a_missing_or_non_integer_field(spec, field):
    with pytest.raises(PreconditionError, match=re.escape(field)):
        build_group(spec)


def test_order_cap_refuses_before_any_construction(monkeypatch):
    from tensorcond import groups

    def must_not_build(*args):
        raise AssertionError("a group was built for an oversized spec")

    for name in ("FiniteGroup", "cyclic", "elementary_abelian", "dihedral", "quaternion8",
                 "heisenberg", "affine", "direct_product"):
        monkeypatch.setattr(groups, name, must_not_build)
    oversized = [
        {"kind": "cyclic", "n": 2100},
        {"kind": "dihedral", "n": 1025},
        {"kind": "elementary_abelian", "p": 3, "k": 10 ** 9},
        {"kind": "heisenberg", "p": 13},
        {"kind": "affine", "p": 47},
        # each factor is under the cap, the product is not
        {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 100},
                                               {"kind": "dihedral", "n": 50}]},
    ]
    for spec in oversized:
        with pytest.raises(PreconditionError, match="exceeds cap"):
            build_group(spec)
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 7)
    with pytest.raises(PreconditionError, match="exceeds cap 7"):
        build_group({"kind": "quaternion8"})


def test_elementary_abelian_is_the_direct_product_of_its_cyclic_factors():
    """C_p^k's digits, lowest first, and a product's last factor, the lowest
    digit: both add digit by digit mod p, so the tables are one."""
    for p, k in ((2, 1), (2, 3), (2, 8), (3, 2), (3, 5), (5, 3), (7, 2)):
        E = elementary_abelian(p, k)
        assert E.table == direct_product(*[cyclic(p)] * k).table, (p, k)
        assert (E.name, E.spec) == (f"E{p}^{k}", {"kind": "elementary_abelian", "p": p, "k": k})


def test_a_direct_product_of_many_factors_builds_without_recursion():
    G = build_group({"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 1}] * 2000
                     + [{"kind": "cyclic", "n": 3}]})
    assert G.order == 3 and G.name == "C1x" * 2000 + "C3"


def test_is_prime_is_exact_below_its_limit():
    """Trial division up to 20000; the least strong pseudoprimes to the
    bases 2 to 37 (Jaeschke, Sorenson-Webster), each one base short of
    the 13 that is_prime takes; Mersenne primes; the limit itself."""
    from tensorcond.errors import PreconditionError
    from tensorcond.groups import PRIME_LIMIT, is_prime
    assert [n for n in range(-3, 20000) if is_prime(n)] == \
        [n for n in range(2, 20000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert all(is_prime(2 ** k - 1) for k in (19, 31, 61))
    with pytest.raises(PreconditionError, match="too large"):
        is_prime(PRIME_LIMIT)


def test_pgroup_prime():
    assert [pgroup_prime(n) for n in (1, 2, 8, 9, 12, 25, 27, 343, 812)] == \
        [None, 2, 2, 3, None, 5, 3, 7, None]
    H = subgroup_generated(cyclic(8), [4])
    assert H.is_pgroup(2) and not H.is_pgroup(4) and not H.is_pgroup(1)
    assert subgroup_generated(cyclic(8), []).is_pgroup(3)


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]], "table is not square over 0..n-1"),
    ([[0, 1]], "table is not square over 0..n-1"),
    ([[0, 1], [1, 2]], "table is not square over 0..n-1"),
    ([[0, 1], [1, -1]], "table is not square over 0..n-1"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "row 2 is not a permutation"),
    # Latin rows, no identity on either side
    ([[(a - b) % 3 for b in range(3)] for a in range(3)], "no two-sided identity"),
    # Latin rows, 0 a left identity only
    ([[(b - a) % 3 for b in range(3)] for a in range(3)], "no two-sided identity"),
    # a loop: 1 * 2 = 0 but 2 * 1 = 1
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "element 1 has no inverse"),
])
def test_finite_group_refuses_a_malformed_table(table, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        FiniteGroup(table)


def test_finite_group_refuses_powers_that_never_reach_the_identity():
    """Latin rows, a two-sided identity and two-sided inverses, but not a
    group: 2 * 2 = 1 and 1 * 2 = 2, so the powers of 2 cycle."""
    table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 1, 0], [3, 1, 0, 2]]
    with pytest.raises(PreconditionError,
                       match="the powers of element 2 never reach the identity"):
        FiniteGroup(table)


def test_finite_group_refuses_a_table_that_is_not_associative():
    """Latin rows, a two-sided identity, two-sided inverses and powers that
    reach the identity, but (2*1)*1 = 0 and 2*(1*1) = 2."""
    table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 3, 0], [3, 2, 0, 1]]
    check = [[table[table[x][s]][y] == table[x][table[s][y]] for y in range(4)]
             for x in range(4) for s in range(4)]
    assert not all(map(all, check))
    with pytest.raises(PreconditionError,
                       match=re.escape("table is not associative: (2*1)*1 != 2*(1*1)")):
        FiniteGroup(table)


def _spec_id(spec: dict) -> str:
    if spec["kind"] == "direct_product":
        return "x".join(map(_spec_id, spec["factors"]))
    return "-".join(str(v) for v in spec.values())


@pytest.mark.parametrize("spec", [
    {"kind": "cyclic", "n": n} for n in (1, 2, 5, 12)
] + [
    {"kind": "elementary_abelian", "p": p, "k": k}
    for p, k in ((2, 1), (2, 3), (3, 2), (5, 2), (2, 6), (3, 4))
] + [
    {"kind": "dihedral", "n": n} for n in (1, 2, 3, 4, 7, 12, 30)
] + [{"kind": "quaternion8"}] + [
    {"kind": "heisenberg", "p": p} for p in (2, 3, 5, 7)
] + [
    {"kind": "affine", "p": p} for p in (2, 3, 5, 7, 11, 13, 17)
] + [
    {"kind": "direct_product", "factors": factors} for factors in (
        [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}],
        [{"kind": "quaternion8"}, {"kind": "cyclic", "n": 3}],
        [{"kind": "dihedral", "n": 4}, {"kind": "cyclic", "n": 2}],
        [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 3}, {"kind": "cyclic", "n": 2}],
        # a trivial factor changes no index, first, inside or last
        [{"kind": "cyclic", "n": 1}, {"kind": "quaternion8"}],
        [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 1}, {"kind": "dihedral", "n": 4},
         {"kind": "cyclic", "n": 1}],
        [{"kind": "cyclic", "n": 1}, {"kind": "cyclic", "n": 1}])
], ids=_spec_id)
def test_constructors_match_the_encoding_oracle(spec):
    """Each constructor's table, name and spec against the group built from
    its element encoding, and the classes, element and class orders and
    exponent against conjugation orbits and repeated multiplication.  The
    named constructors skip the axiom checks, so their table must pass them
    when handed to FiniteGroup, and every triple is tried up to order 64."""
    G, R = build_group(spec), encoded_group(spec)
    C = FiniteGroup(G.table, G.name, G.spec)
    assert (C.classes, C.class_of, C.element_orders, C.inverses) == \
        (G.classes, G.class_of, G.element_orders, G.inverses)
    if G.order <= 64:
        check_associativity(G)
    assert (G.table, G.name, G.spec, G.identity) == (R.table, R.name, R.spec, R.identity)
    assert (G.classes, G.class_of, G.element_orders, G.exponent) == \
        (R.classes, R.class_of, R.element_orders, R.exponent)
    assert set(map(frozenset, G.classes)) == conjugation_orbits(G)
    assert all(G.class_of[x] == i for i, c in enumerate(G.classes) for x in c)
    assert G.classes[0] == (G.identity,)
    assert [c[0] for c in G.classes[1:]] == sorted(c[0] for c in G.classes[1:])
    orders = orders_by_powers(G)
    assert list(G.element_orders) == orders and G.exponent == lcm(*orders)
    assert G.class_orders == C.class_orders == tuple(orders[r] for r in G.class_reps)
    assert G.inverses == tuple(G.table[g].index(G.identity) for g in range(G.order))
