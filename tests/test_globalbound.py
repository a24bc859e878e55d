import pytest
from hypothesis import given, settings, strategies as st

from tensorcond.chars import character_table
from tensorcond.corpus import load_corpus
from tensorcond.errors import (InconsistentInputError, NegativeExponentError)
from tensorcond.globalbound import (FactoredInteger, GlobalDatum,
                                    PrimeLocalPair, PrimeSummary, d_term,
                                    rankin_selberg_bound, self_tensor_bound,
                                    self_tensor_bound_report)
from tensorcond.suites import gen_abvar


factored = st.builds(
    FactoredInteger,
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]),
                    st.integers(min_value=0, max_value=6), max_size=4))


@settings(max_examples=100, deadline=None)
@given(factored, factored, factored)
def test_factored_lattice_identities(a, b, c):
    assert a.gcd(b) == b.gcd(a)
    assert a.gcd(a) == a
    assert (a * b).gcd(a * c) == a * b.gcd(c)
    assert a.divides(a * b)
    assert (a * b).divides(a) == (b == FactoredInteger.one())
    assert (a * b).divide_exact(b) == a


def test_factored_int_roundtrip():
    n = FactoredInteger.from_int(360)
    assert n.factors == {2: 3, 3: 2, 5: 1}
    assert n.value() == 360
    assert repr(FactoredInteger.one()) == "1"
    with pytest.raises(NegativeExponentError):
        FactoredInteger({2: -1})


def test_d_term_examples():
    # all good reduction: empty product
    datum = GlobalDatum(1, 1, (PrimeSummary(7, 0, 0, 2, 2, 4),))
    assert d_term(datum) == FactoredInteger.one()
    # both valuations 2 with degree data (1,1,2): contributes p^1
    datum = GlobalDatum(1, 1, (PrimeSummary(5, 2, 2, 1, 1, 2),))
    assert d_term(datum) == FactoredInteger({5: 1})
    # product of valuations equal to 1: excluded
    datum = GlobalDatum(1, 1, (PrimeSummary(5, 1, 1, 0, 1, 2),))
    assert d_term(datum) == FactoredInteger.one()
    with pytest.raises(NegativeExponentError):
        d_term(GlobalDatum(1, 1, (PrimeSummary(5, 2, 2, 1, 1, 0),)))


def test_degree_range_validation():
    with pytest.raises(InconsistentInputError):
        GlobalDatum(1, 1, (PrimeSummary(5, 1, 1, 3, 0, 0),))
    with pytest.raises(InconsistentInputError):
        GlobalDatum(1, 1, (PrimeSummary(5, 1, 1, 0, 0, 0),
                           PrimeSummary(5, 1, 1, 0, 0, 0)))


def test_rankin_selberg_squarefree_elliptic():
    """A = B an elliptic curve with squarefree conductor: bound = N^2."""
    primes = tuple(PrimeSummary(p, 1, 1, 1, 1, 1) for p in (2, 3, 11))
    datum = GlobalDatum(1, 1, primes)
    report = rankin_selberg_bound(datum)
    assert report.bound == FactoredInteger({2: 2, 3: 2, 11: 2})
    assert report.d == FactoredInteger.one()


def test_rankin_selberg_good_reduction_everywhere():
    datum = GlobalDatum(2, 3, ())
    assert rankin_selberg_bound(datum).bound == FactoredInteger.one()


def test_self_tensor_bound_examples():
    assert self_tensor_bound(1, FactoredInteger({2: 1, 5: 1})) == \
        FactoredInteger({2: 2, 5: 2})
    assert self_tensor_bound(1, FactoredInteger.one()) == FactoredInteger.one()
    assert self_tensor_bound(2, FactoredInteger({3: 2})) == \
        FactoredInteger({3: 11})  # 2*6 - 1


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
    T = character_table(model.group)
    chi2 = T.irreducibles[T.degrees.index(2)]
    A_frac = None
    from tensorcond.weildeligne import AbVarDatum
    A_frac = AbVarDatum(model, chi2, chi2.scale(0))
    assert A_frac.artin_conductor().denominator != 1
    with pytest.raises(InconsistentInputError):
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
        ok, _ = suite.check(doc, lambda ref, field: corpus.chain_by_ref(ref))
        assert ok, i
        assert 0 < len(calls) <= 2 * len(doc["primes"]), (i, len(calls), len(doc["primes"]))
