import gc
import json
import operator
import sys
import weakref

import pytest
from hypothesis import Phase, given, settings, strategies as st

from tensorcond.corpus import CORPUS_VERSION, CorpusError, load_corpus
from tensorcond.suites import SIDES, SUITES, replay, run_suite_range

from oracles import abvar_parts, gen_abvar, is_normal, trivial

EXPECTED_ENTRIES = {"c4", "c8", "c9", "c5", "c25", "q8", "d4", "heis3",
                    "ea9", "aff5"}


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def test_corpus_contents(corpus):
    assert {e.name for e in corpus.entries} == EXPECTED_ENTRIES
    assert corpus.version == CORPUS_VERSION
    # at least one chain with a non-normal step ships in the corpus
    nonnormal = [c for c in corpus.all_chains()
                 if any(not is_normal(s) for s in c.filtration.chain)]
    assert nonnormal
    # every model chain has a p-group at wild level
    for c in corpus.model_chains():
        assert c.filtration[1].is_pgroup(c.model_p) if len(c.filtration) > 1 else True


def test_a_corpus_reads_its_references_as_its_own_chains(corpus):
    """Suite items resolve through the corpus's reader, seeded with its
    chains; a fresh reader, as replay opens, builds each group once and
    each referenced chain once, with the same generators and model_p."""
    from tensorcond.corpus import ChainReader
    fresh = ChainReader()
    for c in corpus.all_chains():
        assert corpus.reader(json.loads(json.dumps(c.ref())), "chain") is c
        mine = fresh(c.ref(), "chain")
        assert fresh(json.loads(json.dumps(c.ref())), "chain") is mine
        assert (mine.ref(), mine.generator_lists) == (c.ref(), c.generator_lists)
    for e in corpus.entries:
        groups = {fresh(c.ref(), "chain").filtration.parent for c in e.chains}
        assert groups == {fresh.group(e.group.spec, "group")} != {e.group}


def test_a_reader_keys_groups_by_the_values_their_kind_reads():
    """Specs that differ only in keys their kind does not read, and a
    one-factor product and its factor, name one group; equal orders and
    isomorphic groups do not, since generator indices refer to each kind's
    own element numbering.  A chain reference and a model object that name
    one chain return one chain."""
    from tensorcond.corpus import ChainReader
    reader = ChainReader()
    c4 = {"kind": "cyclic", "n": 4}
    G = reader.group(c4, "group")
    assert reader.group({**c4, "note": [[1]]}, "group") is G
    assert reader.group({"kind": "direct_product", "factors": [c4]}, "group") is G
    c2 = {"kind": "cyclic", "n": 2}
    for a, b in ((c2, {"kind": "dihedral", "n": 2}),
                 ({"kind": "elementary_abelian", "p": 2, "k": 2},
                  {"kind": "direct_product", "factors": [c2, c2]})):
        assert reader.group(a, "group") is not reader.group(b, "group")
    chain = reader({"group": c4, "subgroups": [[2]], "model_p": 2}, "chain")
    assert reader.model({"group": {**c4, "note": 0}, "chain": [[2]], "p": 2}, "model.") is chain
    assert chain.filtration.parent is G


def test_corpus_pgroup_coverage(corpus):
    primes = {p for p, _ in corpus.pgroup_chains()}
    assert {2, 3, 5} <= primes


def test_corpus_version_check(tmp_path):
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(CorpusError):
        load_corpus(str(bad))
    bad.write_text("not json")
    with pytest.raises(CorpusError):
        load_corpus(str(bad))


def test_every_suite_green_briefly(corpus):
    for name in SUITES:
        results = run_suite_range(name, corpus, 0, 6, 1)
        assert len(results) == 6
        assert all(r["ok"] for r in results), [r["detail"] for r in results if not r["ok"]]


def test_suite_range_matches_full_run(corpus):
    full = run_suite_range("swan-bound", corpus, 0, 8, 3)
    part = run_suite_range("swan-bound", corpus, 4, 4, base_seed=3)
    for a, b in zip(full[4:], part):
        assert a["index"] == b["index"] and a["detail"] == b["detail"]


def test_determinism(corpus):
    a = run_suite_range("conductor-bound", corpus, 0, 10, 7)
    b = run_suite_range("conductor-bound", corpus, 0, 10, 7)
    assert a == b
    c = run_suite_range("conductor-bound", corpus, 0, 10, 8)
    assert a != c


def test_a_dropped_corpus_releases_its_tables():
    """A table holds what its samplers and criteria derive from it, and no
    module-level cache holds the table: once its corpus is dropped, the
    tables that the suites read are freed."""
    corpus = load_corpus()
    for name in ("step-identity", "symplectic-bound", "pgroup-gap", "semistable", "global"):
        assert all(item["ok"] for item in run_suite_range(name, corpus, 0, 5)), name
    tables = [weakref.ref(c.table) for c in corpus.all_chains() if "table" in vars(c)]
    assert tables
    del corpus
    gc.collect()
    assert [ref().group.name for ref in tables if ref() is not None] == []


def test_gen_abvar_target_dim(corpus):
    for chain in corpus.integral_model_chains():
        model = chain.model()
        for target in (2, 4, 6):
            datum = gen_abvar(model, f"t:{chain.label}:{target}",
                              target_dim=target)
            assert datum.dim == target


def test_counterexample_replay_roundtrip(corpus):
    """Force failures by corrupting inputs; the dump must replay to the
    same lhs/rhs values it records."""
    results = run_suite_range("step-identity", corpus, 0, 5, 0)
    for r in results:
        assert "counterexample" not in r
    # build a synthetic counterexample document from a passing item and
    # check that replay reproduces the recorded sides
    from tensorcond.chars import character_table
    from tensorcond.filtration import step_class_side, step_kernel_side

    from oracles import gen_character
    chain = corpus.all_chains()[0]
    G = chain.filtration.parent
    T = character_table(G)
    t1 = gen_character(G, "r1", 8)
    t2 = gen_character(G, "r2", 8)
    lhs, rhs = step_kernel_side(t1, t2, chain)[1], step_class_side(t1, t2, chain)[1]
    doc = {"suite": "step-identity", "chain": chain.ref(),
           "tau1": list(T.multiplicities(t1)),
           "tau2": list(T.multiplicities(t2)), "level": 1,
           "lhs": str(lhs), "rhs": str(rhs)}
    verdict = replay(doc)
    assert verdict["lhs"] == doc["lhs"] and verdict["rhs"] == doc["rhs"]
    assert verdict["ok"]
    # documents survive a JSON round trip
    verdict2 = replay(json.loads(json.dumps(doc)))
    assert verdict2 == verdict


@pytest.mark.parametrize("suite", ["semistable", "swan-bound", "tame-identity",
                                   "conductor-bound", "uniform-bound", "degree-gap"])
def test_every_wd_datum_lives_over_the_corpus_chain_its_reference_names(corpus, monkeypatch,
                                                                        suite):
    """Items 0-19: the model of each datum is, by identity, the corpus chain
    that the item's chain reference names, and the items build no chain."""
    from tensorcond.corpus import CorpusChain
    from tensorcond.weildeligne import AbVarDatum
    models, built = [], []
    datum_init, chain_init = AbVarDatum.__init__, CorpusChain.__init__

    def recording_datum(self, model, tau, sigma):
        models.append(model)
        datum_init(self, model, tau, sigma)

    def counting_chain(self, *args):
        built.append(args)
        chain_init(self, *args)
    monkeypatch.setattr(AbVarDatum, "__init__", recording_datum)
    monkeypatch.setattr(CorpusChain, "__init__", counting_chain)
    by_ref = {json.dumps(c.ref(), sort_keys=True): c for c in corpus.model_chains()}
    for i in range(20):
        models.clear()
        item, = run_suite_range(suite, corpus, i, 1)
        assert item["ok"], item
        chain = by_ref[json.dumps(SUITES[suite].generate(corpus, 0, i)[0]["chain"],
                                  sort_keys=True)]
        assert models and all(m is chain for m in models), (suite, i)
    assert built == []


def test_replay_covers_wd_suites(corpus):
    from tensorcond.weildeligne import LocalPair, swan_bound
    chain = corpus.model_chains()[5]
    model = chain.model()
    T = model.table
    A = gen_abvar(model, "rp:a")
    B = gen_abvar(model, "rp:b")
    lhs, rhs = swan_bound(LocalPair(A, B))
    doc = {"suite": "swan-bound", "chain": chain.ref(),
           **{key: dict(zip(("tau", "sigma"), (list(T.multiplicities(s)) for s in abvar_parts(D))))
              for key, D in (("A", A), ("B", B))},
           "lhs": str(lhs), "rhs": str(rhs)}
    verdict = replay(json.loads(json.dumps(doc)))
    assert verdict["ok"] and verdict["lhs"] == str(lhs)


def test_default_seed_table_covers_all_suites():
    """Every suite's default number of items is a positive int."""
    assert all(type(suite.seeds) is int and suite.seeds > 0 for suite in SUITES.values())


def test_forced_failure_replays_to_failure(corpus, monkeypatch):
    """A document recording a violation replays to ok = False, the same
    twice: here every fixed dimension is patched one too small, so the
    trivial character of C9 shows gap 1, below the p = 3 threshold of 2."""
    from tensorcond.chars import CharacterTable, character_table
    real = CharacterTable.fixed_dims
    monkeypatch.setattr(CharacterTable, "fixed_dims",
                        lambda self, H: tuple(f - 1 for f in real(self, H)))
    chain = next(c for c in corpus.all_chains() if c.entry_name == "c9")
    T = character_table(chain.filtration.parent)
    doc = {"suite": "pgroup-gap", "chains": [chain.ref()], "p": 3,
           "tau": [int(i == T.index_of_trivial()) for i in range(len(T))]}
    verdict1 = replay(doc)
    assert verdict1["ok"] is False and verdict1["gaps"][0] == 1
    verdict2 = replay(json.loads(json.dumps(doc)))
    assert verdict1 == verdict2


def _document(corpus, item):
    """The item's counterexample, or for a passing item its input document."""
    from tensorcond.suites import SUITES
    if "counterexample" in item:
        return item["counterexample"]
    inputs, _ = SUITES[item["suite"]].generate(corpus, 0, item["index"])
    return {"suite": item["suite"], **inputs}


def test_replay_agrees_with_run_on_every_suite(corpus):
    """Model-chain indices 0-3 only, so that no C25 table is built."""
    for name in SUITES:
        for item in run_suite_range(name, corpus, 0, 4, base_seed=0):
            doc = json.loads(json.dumps(_document(corpus, item)))
            assert replay(doc)["ok"] == item["ok"], (name, item["index"])


def _forced_failures(corpus, name, count=4):
    """Run items 0 to count-1 of a suite whose compared quantity is patched;
    every failing item's counterexample must replay as a failure too."""
    failed = [r for r in run_suite_range(name, corpus, 0, count, base_seed=0)
              if not r["ok"]]
    assert failed
    for item in failed:
        assert replay(json.loads(json.dumps(item["counterexample"])))["ok"] is False
    return failed


@pytest.mark.parametrize("name", ["conductor-bound", "uniform-bound"])
def test_bound_items_build_the_tensor_product_once(corpus, monkeypatch, name):
    """Every side of a bound item reads one A x B, built by its LocalPair."""
    from tensorcond.weildeligne import WDRep
    real = WDRep.tensor
    calls = []

    def counted(self, other):
        calls.append(1)
        return real(self, other)
    monkeypatch.setattr(WDRep, "tensor", counted)
    suite = SUITES[name]
    for i in range(50):
        doc, _ = suite.generate(corpus, 0, i)
        calls.clear()
        ok, _ = suite.check(doc, corpus.reader)
        assert ok and len(calls) == 1, (i, len(calls))


def test_forced_conductor_collapse_failure_replays(corpus, monkeypatch):
    from tensorcond.weildeligne import LocalPair
    real = LocalPair.degree_correction.func
    monkeypatch.setattr(LocalPair, "degree_correction", property(lambda pair: real(pair) + 1))
    failed = _forced_failures(corpus, "conductor-bound")
    # the collapse at a <= 1 is an equality, so a shifted correction breaks
    # it; the bound's rhs only drops by one, which items 0-3 still meet
    assert [r["index"] for r in failed] == [3]


def test_forced_refined_above_uniform_failure_replays(corpus, monkeypatch):
    from tensorcond import suites
    real = suites.conductor_bound

    def loose(pair):
        lhs, rhs, C = real(pair)
        return lhs, rhs + 10 ** 6, C
    monkeypatch.setattr(suites, "conductor_bound", loose)
    _forced_failures(corpus, "uniform-bound")


def _forced_self_tensor_failures(corpus, monkeypatch):
    """Global items 0-3 with a self-tensor report that always fails."""
    from tensorcond import suites
    from tensorcond.globalbound import GlobalBoundReport
    real = suites.self_tensor_bound_report

    def broken(datum):
        report = real(datum)
        return GlobalBoundReport(report.bound, report.d,
                                 ({"p": 0, "bound_exp": 0, "ok": False},))
    monkeypatch.setattr(suites, "self_tensor_bound_report", broken)
    return _forced_failures(corpus, "global")


def test_forced_self_tensor_failure_replays(corpus, monkeypatch):
    assert len(_forced_self_tensor_failures(corpus, monkeypatch)) == 4


def test_a_global_counterexample_is_a_global_document(corpus, monkeypatch, tmp_path, capsys):
    """A failing global item's counterexample is read by the `global`
    command, which prints the bound, d-term and per-prime records that the
    item's detail holds."""
    from tensorcond.cli import main
    for item in _forced_self_tensor_failures(corpus, monkeypatch):
        ce = item["counterexample"]
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(ce))
        assert main(["global", "--input", str(path), "--format", "machine"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [out[k] for k in ("bound", "d_term", "per_prime")] == \
            [ce[k] for k in ("bound", "d_term", "per_prime")]


def test_forced_sharpness_closed_form_failure_replays(corpus, monkeypatch):
    from tensorcond import suites
    real = suites.disc_valuation
    monkeypatch.setattr(suites, "disc_valuation", lambda p, a: real(p, a) + 1)
    for item in _forced_failures(corpus, "sharpness"):
        assert item["detail"]["equal"] and not item["detail"]["disc_closed_form"]


def _patch_statement(monkeypatch, name, mutant):
    """Patch a bound's statement side in `weildeligne` and in every package
    module that imports it by name; a patch of `weildeligne` alone would
    leave the importers calling the original."""
    from tensorcond import weildeligne
    real = getattr(weildeligne, name)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("tensorcond") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, mutant)


def _killed_and_replayed(capsys, tmp_path, suite):
    """`verify` of the suite at its default seeds exits 1, and `replay` of
    its first counterexample exits 1 too."""
    from tensorcond.cli import main
    assert main(["verify", "--suite", suite, "--format", "machine"]) == 1
    items = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    first = next(item for item in items if item.get("ok") is False)
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(first["counterexample"]))
    assert main(["replay", "--input", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_the_sharpness_suite_kills_a_wrong_swan_coefficient(monkeypatch, capsys, tmp_path):
    """The Swan coefficient max(2, p) in place of max(2, p - 1): the
    sharpness family meets the Swan bound with equality, so it fails."""
    _patch_statement(monkeypatch, "improvement_constant",
                     lambda p, *tame_codims: min((max(2, p), *tame_codims)))
    _killed_and_replayed(capsys, tmp_path, "sharpness")


def test_the_global_suite_kills_a_uniform_rule_that_keeps_too_much(monkeypatch, capsys,
                                                                   tmp_path):
    """The uniform bound keeping its degree correction when a(A) a(B) = 1."""
    from tensorcond.filtration import tensor_rhs

    def mutant(dim_a, dim_b, a_a, a_b, correction):
        kept = correction if a_a * a_b >= 1 else 0
        return tensor_rhs(dim_a, dim_b, a_a, a_b, 2, kept), kept
    _patch_statement(monkeypatch, "uniform_rhs", mutant)
    _killed_and_replayed(capsys, tmp_path, "global")


def test_forced_step_failure_off_the_named_level_replays(corpus, monkeypatch):
    from tensorcond import suites
    parse, left, right = suites.SIDES["step-identity"]

    def broken(t1, t2, chain):
        return [rhs + (level == 1) for level, rhs in enumerate(right(t1, t2, chain))]
    monkeypatch.setitem(suites.SIDES, "step-identity", (parse, left, broken))
    for item in _forced_failures(corpus, "step-identity"):
        doc = dict(item["counterexample"], level=0)
        verdict = replay(doc)
        assert verdict["ok"] is False and verdict["lhs"] == verdict["rhs"]


def _off_by_one(value):
    return [x + 1 for x in value] if isinstance(value, list) else value + 1


@pytest.mark.parametrize("name, side", [(name, side) for name in SIDES for side in (1, 2)])
def test_a_patched_side_of_the_registry_fails_its_suite_and_replay(corpus, monkeypatch,
                                                                    name, side):
    """Each identity's check evaluates its registry entry: one side off by
    one (each Swan exponent, for sharpness's discriminant side; J_a's and
    J_p's reports swapped, for its chain side) fails item 0 in a run and in
    replay."""
    from tensorcond import suites
    entry = list(SIDES[name])
    real = entry[side]
    if (name, side) == ("sharpness", 2):
        entry[side] = lambda models: real(models[::-1])
    else:
        entry[side] = lambda *args: _off_by_one(real(*args))
    monkeypatch.setitem(suites.SIDES, name, tuple(entry))
    item, = run_suite_range(name, corpus, 0, 1)
    assert item["ok"] is False
    assert replay(json.loads(json.dumps(item["counterexample"])))["ok"] is False


# -- bilinearity of the identity sides --------------------------------------------
#
# Each side of step-identity, tame-identity and semistable is bilinear in
# the two data, so a proof on a basis of each chain would prove the identity
# there; this property is what such a proof rests on.  A sum of characters
# adds their vectors, a sum of Weil-Deligne representations concatenates
# their blocks.

def _wdrep(draw, model):
    """A `WDRep` of one or two blocks of special sizes 1 to 3."""
    from tensorcond.weildeligne import WDRep
    T = model.table
    blocks = draw(st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=len(T),
                                              max_size=len(T)), st.integers(1, 3)),
                           min_size=1, max_size=2))
    return [(T.assemble(vector), n) for vector, n in blocks]


def _vector_sum(u, v):
    return [a + b for a, b in zip(u, v)]


def _assert_additive(name, draw):
    """Each side of the identity `name` additive in each argument, on random
    nonnegative data over every chain that the suite draws from."""
    from tensorcond.weildeligne import LocalPair, WDRep
    _, left, right = SIDES[name]
    corpus = load_corpus()
    for chain in corpus.all_chains() if name == "step-identity" else corpus.model_chains():
        if name == "step-identity":
            T = chain.table
            x, y, z = (draw(st.lists(st.integers(0, 2), min_size=len(T), max_size=len(T)))
                       for _ in range(3))
            sides = [lambda u, v, side=side: side(T.assemble(u), T.assemble(v), chain)
                     for side in (left, right)]
            add = plus = _vector_sum
        else:
            model = chain.model()
            x, y, z = (_wdrep(draw, model) for _ in range(3))
            sides = [lambda u, v, side=side: side(LocalPair(WDRep(model, u), WDRep(model, v)))
                     for side in (left, right)]
            # blocks concatenate, and each side is a rational
            add = plus = operator.add
        for side in sides:
            assert side(add(x, y), z) == plus(side(x, z), side(y, z)), (chain.label, name)
            assert side(z, add(x, y)) == plus(side(z, x), side(z, y)), (chain.label, name)


BILINEAR = ("step-identity", "tame-identity", "semistable")


@pytest.mark.parametrize("name", BILINEAR)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_each_side_of_an_identity_is_additive_in_each_argument(name, data):
    _assert_additive(name, data.draw)


@pytest.mark.parametrize("name", BILINEAR)
def test_additivity_fails_a_tensor_product_wrong_only_at_multiplicity_two(monkeypatch, name):
    """`tensor_mults` with one more of every irreducible it finds at least
    twice: pairs of basis elements, whose products are often multiplicity
    free, can miss it, but it is not bilinear, and the property sees it."""
    from tensorcond.chars import CharacterTable
    real = CharacterTable.tensor_mults
    monkeypatch.setattr(CharacterTable, "tensor_mults",
                        lambda self, m1, m2: [m + (m >= 2) for m in real(self, m1, m2)])

    @settings(max_examples=3, deadline=None, database=None, derandomize=True,
              phases=[Phase.generate], report_multiple_bugs=False)
    @given(data=st.data())
    def additive(data):
        _assert_additive(name, data.draw)
    with pytest.raises(AssertionError):
        additive()


def test_forced_kernel_degree_failure_fails_tame_identity(corpus, monkeypatch):
    """The tame identity compares the class-average tensor product with the
    kernel: a kernel degree one too large breaks it, in run and in replay.
    (Were both sides on the kernel, the shift would cancel.)"""
    from tensorcond.weildeligne import WDRep
    real = WDRep.degree
    monkeypatch.setattr(WDRep, "degree", lambda self: real(self) + 1)
    assert len(_forced_failures(corpus, "tame-identity")) == 4


def test_forced_class_product_failure_fails_step_identity(corpus, monkeypatch):
    """A class-by-class product with the right dimension and wrong values,
    (d1 d2) times the trivial character, breaks the per-level identity in
    run and in replay: its rhs reads the product's class values, its lhs
    the structure constants.  (Were both sides on class values, the wrong
    product would cancel.)"""
    from tensorcond.chars import ClassFunction

    from oracles import scale
    monkeypatch.setattr(ClassFunction, "__mul__", lambda self, other: scale(
        trivial(self.group), self.dim * other.dim))
    assert len(_forced_failures(corpus, "step-identity", 30)) >= 20


def test_forced_structure_constant_failure_fails_the_filtration_bounds(monkeypatch):
    """One wrong structure constant, trivial x trivial gaining a nontrivial
    irreducible, breaks step-identity against the class-value side, and
    symplectic-bound and pgroup-bound through the product's dimension, in
    run and in replay.  A fresh corpus, so that no table holds a product
    from before the patch."""
    from tensorcond.chars import CharacterTable
    real = CharacterTable.structure_constants

    def bumped(self, i, j):
        t = self.index_of_trivial()
        extra = (((t + 1) % len(self), 1),) if i == j == t else ()
        return real(self, i, j) + extra
    monkeypatch.setattr(CharacterTable, "structure_constants", bumped)
    fresh = load_corpus()
    for name in ("step-identity", "symplectic-bound", "pgroup-bound"):
        _forced_failures(fresh, name, 30)


def test_no_suite_decomposes_a_vector(corpus, monkeypatch):
    """Every suite reads its characters as the vectors it generated: none
    calls CharacterTable.multiplicities."""
    from tensorcond.chars import CharacterTable
    calls = []
    real = CharacterTable.multiplicities

    def counting(self, chi):
        calls.append(1)
        return real(self, chi)
    monkeypatch.setattr(CharacterTable, "multiplicities", counting)
    for name in SUITES:
        run_suite_range(name, corpus, 0, 30, base_seed=0)
        assert not calls, name


def test_pgroup_bound_refuses_a_p_that_does_not_match_the_group(corpus):
    """p = 4 on C4 (not prime), p = 0 and p = 1 (no group is a 1-group)
    are refused as input, never divided by or looped on."""
    from tensorcond.errors import PreconditionError
    inputs, _ = SUITES["pgroup-bound"].generate(corpus, 0, 0)
    assert inputs["chain"]["group"] == {"kind": "cyclic", "n": 4}
    for p in (4, 0, 1):
        with pytest.raises(PreconditionError, match=f"'p' is {p}, but C4 is not a {p}-group"):
            replay({"suite": "pgroup-bound", **inputs, "p": p})


def test_pgroup_gap_refuses_a_p_that_does_not_match_the_group(corpus):
    """The same refusals for pgroup-gap, and p = 7 on C9, whose threshold
    p - 1 = 6 the order-3 characters would fail."""
    from tensorcond.errors import PreconditionError
    inputs, _ = SUITES["pgroup-gap"].generate(corpus, 0, 0)
    assert inputs["chains"][0]["group"] == {"kind": "cyclic", "n": 4}
    c9 = next(c for c in corpus.all_chains() if c.entry_name == "c9")
    for doc in ({**inputs, "p": 4}, {**inputs, "p": 0}, {**inputs, "p": 1},
                {"chains": [c9.ref()], "p": 7, "tau": [0] * 9}):
        with pytest.raises(PreconditionError, match=f"is not a {doc['p']}-group"):
            replay({"suite": "pgroup-gap", **doc})
