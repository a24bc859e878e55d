from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from tensorcond.corpus import load_corpus
from tensorcond.errors import PreconditionError
from tensorcond.globalbound import (GlobalDatum, PrimeLocalPair, PrimeSummary,
                                    rankin_selberg_bound, self_tensor_bound_report)

from oracles import gen_abvar


summaries = st.lists(
    st.builds(lambda v_a, v_b, deg_a, deg_b, extra: (v_a, v_b, deg_a, deg_b,
                                                     deg_a * deg_b + extra),
              st.integers(0, 6), st.integers(0, 6), st.integers(0, 2),
              st.integers(0, 2), st.integers(0, 3)),
    max_size=4)


def _value(exponents):
    n = 1
    for p, e in exponents.items():
        assert e > 0
        n *= p ** e
    return n


@settings(max_examples=200, deadline=None)
@given(summaries, st.integers(1, 3), st.integers(1, 3))
def test_bound_is_the_integer_quotient(data, dim_a, dim_b):
    """Pi p^e of the bound is N_A^{2 dim B} N_B^{2 dim A} // (d gcd(N_A, N_B)^2),
    with Python integers, and the division is exact."""
    primes = (2, 3, 5, 7)
    datum = GlobalDatum(dim_a, dim_b, tuple(
        PrimeSummary(p, *rec) for p, rec in zip(primes, data)))
    n_a = n_b = g = d = 1
    for p, (v_a, v_b, deg_a, deg_b, deg_ab) in zip(primes, data):
        n_a *= p ** v_a
        n_b *= p ** v_b
        g *= p ** min(v_a, v_b)
        if v_a * v_b > 1:
            d *= p ** (deg_ab - deg_a * deg_b)
    num, den = n_a ** (2 * dim_b) * n_b ** (2 * dim_a), d * g * g
    assert num % den == 0
    report = rankin_selberg_bound(datum)
    assert _value(report.bound) == num // den
    assert _value(report.d) == d


def test_d_term_examples():
    def d_term(record):
        return rankin_selberg_bound(GlobalDatum(1, 1, (record,))).d
    # all good reduction: empty product
    assert d_term(PrimeSummary(7, 0, 0, 2, 2, 4)) == {}
    # both valuations 2 with degree data (1,1,2): contributes p^1
    assert d_term(PrimeSummary(5, 2, 2, 1, 1, 2)) == {5: 1}
    # product of valuations equal to 1: excluded
    assert d_term(PrimeSummary(5, 1, 1, 0, 1, 2)) == {}
    # ... even when that correction is negative: the sign is not checked
    assert d_term(PrimeSummary(5, 1, 1, 1, 1, 0)) == {}
    with pytest.raises(PreconditionError, match=r"degree correction -\d+ < 0 at prime 5"):
        d_term(PrimeSummary(5, 2, 2, 1, 1, 0))


labelled_summaries = st.lists(
    st.builds(PrimeSummary, st.sampled_from((2, 3, 5)), st.integers(0, 4), st.integers(0, 4),
              st.integers(0, 2), st.integers(0, 2), st.integers(0, 8)),
    min_size=1, max_size=5)


def _outcome(bound, datum):
    try:
        return bound(datum)
    except PreconditionError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(labelled_summaries, st.integers(1, 3), st.integers(1, 3))
@example([PrimeSummary(5, 2, 2, 0, 0, 0), PrimeSummary(5, 2, 2, 1, 1, 3)], 1, 1)
def test_each_record_is_bounded_from_its_own_summary(records, dim_a, dim_b):
    """Labels repeat: each record's bound exponent is its exponent alone,
    the maps add the one-record maps, and a datum refuses as its first
    record refusing by a degree correction, else its first refusing."""
    for bound, dims in ((rankin_selberg_bound, (dim_a, dim_b)),
                        (self_tensor_bound_report, (dim_a, dim_a))):
        alone = [_outcome(bound, GlobalDatum(*dims, (s,))) for s in records]
        refusals = [r for r in alone if isinstance(r, str)]
        report = _outcome(bound, GlobalDatum(*dims, tuple(records)))
        if refusals:
            first = next((r for r in refusals if r.startswith("degree correction")),
                         refusals[0])
            assert report == first
            continue
        assert [rec["bound_exp"] for rec in report.per_prime] == \
            [r.per_prime[0]["bound_exp"] for r in alone]
        for key in ("bound", "d"):
            assert getattr(report, key) == sum((Counter(getattr(r, key)) for r in alone), Counter())


def test_degree_range_validation():
    """The reader of global documents refuses a summary degree outside
    0..2 dim and a negative exponent or degree, naming the field; a
    repeated prime is `test_global_refuses_a_repeated_prime`'s case."""
    from tensorcond.corpus import ChainReader
    from tensorcond.errors import InputError
    from tensorcond.suites import read_global
    record = {"p": 5, "mode": "summary", "vA": 1, "vB": 1, "degA": 0, "degB": 0, "degAB": 0}
    assert read_global({"dimA": 1, "dimB": 1, "primes": [record]}, ChainReader())
    for key, value, message in [
            ("degA", 3, "degA' must be at least 0 and at most 2 * 'dimA' = 2, not 3"),
            ("degB", -1, "degB' must be at least 0 and at most 2 * 'dimB' = 2, not -1"),
            ("vA", -1, "vA' must be at least 0, not -1"),
            ("vB", -1, "vB' must be at least 0, not -1"),
            ("degAB", -1, "degAB' must be at least 0, not -1")]:
        doc = {"dimA": 1, "dimB": 1, "primes": [dict(record, **{key: value})]}
        with pytest.raises(InputError) as err:
            read_global(doc, ChainReader())
        assert str(err.value) == "'primes[0]." + message, (key, str(err.value))


def test_rankin_selberg_squarefree_elliptic():
    """A = B an elliptic curve with squarefree conductor: bound = N^2."""
    primes = tuple(PrimeSummary(p, 1, 1, 1, 1, 1) for p in (2, 3, 11))
    datum = GlobalDatum(1, 1, primes)
    report = rankin_selberg_bound(datum)
    assert report.bound == {2: 2, 3: 2, 11: 2}
    assert report.d == {}


def test_rankin_selberg_good_reduction_everywhere():
    datum = GlobalDatum(2, 3, ())
    assert rankin_selberg_bound(datum).bound == {}


def test_self_tensor_bound_examples():
    def self_bound(dim, conductor):
        return self_tensor_bound_report(GlobalDatum(dim, dim, tuple(
            PrimeSummary(p, v, v, 0, 0, 0) for p, v in conductor.items()))).bound
    assert self_bound(1, {2: 1, 5: 1}) == {2: 2, 5: 2}
    assert self_bound(1, {}) == {}
    assert self_bound(1, {7: 0}) == {}
    assert self_bound(2, {3: 2}) == {3: 11}  # 2*6 - 1


def test_full_mode_per_prime_divisibility():
    corpus = load_corpus()
    pool = corpus.integral_model_chains()
    for idx in range(20):
        chain = pool[idx % len(pool)]
        model = chain.model()
        A = gen_abvar(model, f"gb:{idx}:a", target_dim=4)
        B = gen_abvar(model, f"gb:{idx}:b", target_dim=2)
        datum = GlobalDatum(2, 1, (PrimeLocalPair(13, A, B),))
        report = rankin_selberg_bound(datum)
        assert report.all_checks_pass(), report.per_prime
        self_datum = GlobalDatum(2, 2, (PrimeLocalPair(13, A, A),))
        self_report = self_tensor_bound_report(self_datum)
        assert self_report.all_checks_pass(), self_report.per_prime


def test_full_mode_rejects_fractional_exponent():
    corpus = load_corpus()
    chain = next(c for c in corpus.model_chains()
                 if c.label == "q8/center")
    model = chain.model()
    T = model.table
    chi2 = T.irreducibles[T.degrees.index(2)]
    A_frac = None
    from tensorcond.weildeligne import AbVarDatum
    A_frac = AbVarDatum(model, chi2, chi2.scale(0))
    assert A_frac.artin_conductor().denominator != 1
    with pytest.raises(PreconditionError,
                       match="local conductor exponents must be integers"):
        GlobalDatum(1, 1, (PrimeLocalPair(2, A_frac, A_frac),))


def test_global_items_build_each_records_tensor_product_once(monkeypatch):
    """A global item needs A x B per prime record, and A x A for the
    self-tensor report: at most two `WDRep.tensor` calls per record."""
    from tensorcond.suites import SUITES
    from tensorcond.weildeligne import WDRep
    corpus = load_corpus()
    suite = SUITES["global"]
    real = WDRep.tensor
    calls = []

    def counted(self, other):
        calls.append(1)
        return real(self, other)
    monkeypatch.setattr(WDRep, "tensor", counted)
    for i in range(10):
        doc, _ = suite.generate(corpus, 0, i)
        calls.clear()
        ok, _ = suite.check(doc, corpus.reader)
        assert ok, i
        assert 0 < len(calls) <= 2 * len(doc["primes"]), (i, len(calls), len(doc["primes"]))


def test_a_negative_bound_exponent_is_refused():
    # at p = 2 the exponent is 2*2 + 2*2 - 2*2 - (10 - 2*2) = -2
    datum = GlobalDatum(1, 1, (PrimeSummary(3, 1, 1, 1, 1, 1),
                               PrimeSummary(2, 2, 2, 2, 2, 10)))
    with pytest.raises(PreconditionError, match="denominator exponents exceed"):
        rankin_selberg_bound(datum)
