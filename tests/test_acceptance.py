"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output).  All numeric comparisons are
on integers or Fractions; there are no tolerances anywhere.
"""

import time
from fractions import Fraction

import pytest

from tensorcond.chars import character_table, fixed_dim
from tensorcond.corpus import load_corpus
from tensorcond.cyclo import CycloNum
from tensorcond.filtration import (conductor_exponent, pgroup_tensor_bound,
                                   symplectic_tensor_bound)
from tensorcond.groups import affine, cyclic, dihedral, quaternion8
from tensorcond.jacobians import (disc_valuation, jacobian_inertia_model,
                                  smallest_valid_unit, swan_jacobian,
                                  validate_params, verify_sharpness)
from tensorcond.suites import run_suite_range
from tensorcond.weildeligne import WDRep, clebsch_gordan, tensor

from oracles import (add, chain_on, cyclo_conjugate, cyclo_zero, from_values, gen_abvar,
                     inner_product, linear_reps_q8, permutation_rep_affine, rational_value,
                     sign_rep_affine, trivial, two_dim_rep_q8)


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def report(number: int, name: str, ok: bool, info: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({info})" if info else ""
    print(f"ACCEPTANCE {number:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} {name} failed: {info}"


def test_criterion_01_step_identity(corpus):
    start = time.time()
    results = run_suite_range("step-identity", corpus, 0, 1000, 0)
    elapsed = time.time() - start
    tuples = sum(r["checks"] for r in results)
    violations = sum(not r["ok"] for r in results)
    ok = tuples >= 1000 and violations == 0 and elapsed <= 60
    report(1, "per-level tensor identity", ok,
           f"{tuples} tuples, {violations} violations, {elapsed:.1f}s")


def test_criterion_02_symplectic_bound(corpus):
    results = run_suite_range("symplectic-bound", corpus, 0, 500, 0)
    violations = sum(not r["ok"] for r in results)
    Q = quaternion8()
    T = character_table(Q)
    chi2 = T.irreducibles[T.degrees.index(2)]
    lhs, rhs = symplectic_tensor_bound(chi2, chi2, chain_on(Q, [[4]]))
    ok = violations == 0 and lhs == rhs == 3
    report(2, "symplectic tensor bound", ok,
           f"500 pairs, {violations} violations, tight instance {lhs}={rhs}")


def test_criterion_03_pgroup_bound(corpus):
    primes_covered = {p for p, _ in corpus.pgroup_chains()}
    results = run_suite_range("pgroup-bound", corpus, 0, 500, 0)
    violations = sum(not r["ok"] for r in results)
    C3 = cyclic(3)
    T = character_table(C3)
    tau = T.assemble([int(i != T.index_of_trivial()) for i in range(3)])
    lhs, rhs = pgroup_tensor_bound(tau, tau, chain_on(C3, []), 3)
    ok = {2, 3, 5} <= primes_covered and violations == 0 and lhs == rhs == 2
    report(3, "p-group tensor bound", ok,
           f"500 pairs over p in {sorted(primes_covered)}, "
           f"{violations} violations, tight instance {lhs}={rhs}")


def test_criterion_04_parity_and_gap(corpus):
    parity = run_suite_range("symplectic-parity", corpus, 0, 300, 0)
    gap = run_suite_range("pgroup-gap", corpus, 0, 300, 0)
    v1 = sum(not r["ok"] for r in parity)
    v2 = sum(not r["ok"] for r in gap)
    checks = sum(r["checks"] for r in parity) + sum(r["checks"] for r in gap)
    report(4, "parity and p-group gap", v1 == 0 and v2 == 0,
           f"{checks} subgroup checks, {v1 + v2} violations")


def test_criterion_05_special_block_forms(corpus):
    # sp(1) twists leave the conductor unchanged, for every corpus sigma
    sp1_ok = True
    for chain in corpus.model_chains():
        model = chain.model()
        for sigma in model.table.irreducibles:
            sp1_ok = sp1_ok and WDRep(model, [(sigma, 1)]).artin_conductor() == \
                conductor_exponent(sigma, model.filtration)
    # block sizes of sp(n) x sp(m) and the closed conductor form, n, m <= 12
    shapes_ok = True
    for n in range(1, 13):
        for m in range(1, 13):
            parts = clebsch_gordan(n, m)
            shapes_ok = shapes_ok and sum(parts) == n * m \
                and len(parts) == min(n, m)
    chain = next(c for c in corpus.model_chains() if c.label == "q8/center")
    model = chain.model()
    triv = model.table.irreducibles[model.table.index_of_trivial()]
    closed_ok = True
    for sigma in model.table.irreducibles:
        a_sigma = conductor_exponent(sigma, model.filtration)
        fix = fixed_dim(sigma, model.filtration[0])
        for n in range(1, 13):
            rho = WDRep(model, [(sigma, n)])
            for m in range(1, 13):
                got = tensor(rho, WDRep(model, [(triv, m)])).artin_conductor()
                closed_ok = closed_ok and \
                    got == n * m * a_sigma + fix * (n * m - min(n, m))
    report(5, "special-block conductor forms", sp1_ok and shapes_ok and closed_ok,
           "sp(1) twists, block shapes, closed form vs expansion for n,m <= 12")


def test_criterion_06_semistable_equality(corpus):
    results = run_suite_range("semistable", corpus, 0, 200, 0)
    violations = sum(not r["ok"] for r in results)
    # good-reduction degenerate case: a(A x B) = dim(A) a(B) exactly
    from tensorcond.weildeligne import (AbVarDatum, LocalPair, semistable_class_side,
                                        semistable_kernel_side)
    chain = next(c for c in corpus.model_chains() if c.label == "q8/center")
    model = chain.model()
    triv = model.table.irreducibles[model.table.index_of_trivial()]
    good = AbVarDatum(model, triv.scale(2), triv.scale(0))
    degenerate_ok = True
    for s in range(20):
        B = gen_abvar(model, f"acc6:{s}")
        pair = LocalPair(good, B)
        lhs, rhs = semistable_class_side(pair), semistable_kernel_side(pair)
        degenerate_ok = degenerate_ok and lhs == rhs == good.dim * B.artin_conductor()
    report(6, "semistable twist equality", violations == 0 and degenerate_ok,
           f"200 pairs, {violations} violations, degenerate case exact")


def test_criterion_07_bound_suites(corpus):
    totals = {}
    for name in ("swan-bound", "tame-identity", "conductor-bound",
                 "uniform-bound", "degree-gap"):
        results = run_suite_range(name, corpus, 0, 500, 0)
        totals[name] = sum(not r["ok"] for r in results)
    ok = all(v == 0 for v in totals.values())
    report(7, "wild/tame/main/uniform bounds and degree gap", ok,
           f"500 data each, violations {totals}")


def test_criterion_08_sharpness_family():
    start = time.time()
    ok = True
    details = []
    for p in (3, 5, 7, 11, 13):
        a = smallest_valid_unit(p)
        rep = verify_sharpness(validate_params(p, a))
        ok = ok and rep.equal and rep.sw_a == 1 and rep.sw_p == p \
            and rep.sw_tensor == p * (p - 1) \
            and rep.a_tensor == (2 * p - 1) * (p - 1) \
            and rep.sw_tensor == rep.swan_rhs \
            and rep.a_tensor == rep.conductor_rhs
        details.append(f"p={p}:a_tensor={rep.a_tensor}")
    elapsed = time.time() - start
    ok = ok and elapsed <= 5
    report(8, "Jacobian family sharpness", ok,
           f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_09_discriminant_oracle():
    def vp(p, n):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    closed_ok = True
    paths_ok = True
    for p in (3, 5, 7, 11, 13):
        a = smallest_valid_unit(p)
        for alpha in (1, 2, a, 6, p, 2 * p, p * p, a * p, p + 1):
            closed_ok = closed_ok and \
                disc_valuation(p, alpha) == p + (p - 1) * vp(p, alpha)
        for alpha in (a, p):
            filtration_swan = jacobian_inertia_model(p, alpha).swan_conductor()
            paths_ok = paths_ok and filtration_swan == swan_jacobian(p, alpha)
    report(9, "resultant discriminant oracle", closed_ok and paths_ok,
           "closed form and both Swan computation paths agree")


def test_criterion_10_character_tables():
    dims_ok = sorted(character_table(affine(3)).degrees) == [1, 1, 2] \
        and sorted(character_table(quaternion8()).degrees) == [1, 1, 1, 1, 2] \
        and sorted(character_table(dihedral(4)).degrees) == [1, 1, 1, 1, 2] \
        and all(character_table(cyclic(n)).degrees == tuple([1] * n)
                for n in range(1, 13))
    ortho_ok = True
    for G in [affine(3), quaternion8(), dihedral(4)] + \
             [cyclic(n) for n in range(1, 13)]:
        T = character_table(G)
        r = len(T.irreducibles)
        for i in range(r):
            for j in range(r):
                ortho_ok = ortho_ok and inner_product(
                    T.irreducibles[i], T.irreducibles[j]) == (1 if i == j else 0)
        # column orthogonality: sum over chi of chi(c) conj(chi(c'))
        for c in range(r):
            for cp in range(r):
                total = cyclo_zero()
                for chi in T.irreducibles:
                    total = total + chi.values[c] * cyclo_conjugate(chi.values[cp])
                want = Fraction(G.order, G.class_sizes[c]) if c == cp else 0
                ortho_ok = ortho_ok and total == CycloNum.from_rational(want)

    # explicit matrix representations with averaging projectors
    Q = quaternion8()
    TQ = character_table(Q)
    rep2 = two_dim_rep_q8(Q)
    chi2 = TQ.irreducibles[TQ.degrees.index(2)]
    matrix_ok = list(chi2.values) == rep2.character_values()
    lin_keys = {tuple(rational_value(v) for v in ch.values)
                for ch in TQ.irreducibles if ch.dim == 1}
    matrix_ok = matrix_ok and lin_keys == {
        tuple(rational_value(v) for v in rep.character_values())
        for rep in linear_reps_q8(Q)}
    S3 = affine(3)
    T3 = character_table(S3)
    perm = permutation_rep_affine(S3, 3)
    perm_char = from_values(S3, perm.character_values())
    std = next(ch for ch in T3.irreducibles if ch.dim == 2)
    matrix_ok = matrix_ok and \
        perm_char == add(trivial(S3), std) and \
        any(ch == from_values(S3, sign_rep_affine(S3, 3).character_values())
            for ch in T3.irreducibles)
    from tensorcond.chars import fixed_dim
    from tensorcond.groups import subgroup_generated
    for H_gens in ([4], [1]):
        H = subgroup_generated(Q, H_gens)
        matrix_ok = matrix_ok and \
            rep2.fixed_dim_by_projector(H) == fixed_dim(chi2, H)
    report(10, "character tables", dims_ok and ortho_ok and matrix_ok,
           "dimensions, exact row+column orthogonality, matrix oracles")


def test_criterion_11_global_bounds(corpus):
    results = run_suite_range("global", corpus, 0, 100, 0)
    violations = sum(not r["ok"] for r in results)
    primes_checked = sum(r["checks"] for r in results)
    report(11, "global factored bounds", violations == 0,
           f"100 data sets, {primes_checked} per-prime checks, "
           f"{violations} violations")
