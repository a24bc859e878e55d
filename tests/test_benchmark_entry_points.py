"""The benchmark's entry points, run in-process against its own reference.

`perfbench/` drives the package through `cli.main` on a seeded document
set, and through the per-layer calls of `perfbench/layertrace.py`.  These
tests run the seed-0 set and check its input and output digests against
`perfbench/reference.json`, run each verify workload at that seed against
its digest there, and make each layer call once, so that a change to an API
or an output the benchmark uses fails here first.  They only read
`perfbench/`.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def docs():
    """perfbench/docs.py, loaded under a private name without touching
    sys.path."""
    spec = importlib.util.spec_from_file_location("_perfbench_docs", PERFBENCH / "docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, loaded under a private name; it puts its own
    directory on sys.path at import, so sys.path is restored after."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload", ["verify-wd", "verify-filtration", "verify-pool"])
def test_seed0_verify_workloads_match_the_reference_digests(run, workload, capsys,
                                                           monkeypatch):
    """Each verify workload's call at the default seed, in process, prints
    what `reference.json` holds; verify-pool sees two CPUs, so that its
    --workers 2 forks a second process as it does in the benchmark."""
    from tensorcond import cli
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    assert cli.main(run.verify_argv(workload, ref["default_seed"])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ref[workload]


def test_seed0_documents_match_the_reference_digests(docs, monkeypatch):
    from tensorcond import cli
    ref = json.loads((PERFBENCH / "reference.json").read_text())["documents"]
    docset = docs.generate(0)
    assert docs.digest(docset) == ref["inputs_sha256"]
    digest, failed = hashlib.sha256(), []
    for d in docset:
        monkeypatch.setattr(sys, "stdin", io.StringIO(d["stdin"] or ""))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(d["argv"])
        text = out.getvalue()
        digest.update(text.encode())
        if rc != 0 or not docs.verdict_ok(d["kind"], text):
            failed.append(d["label"])
    assert failed == []
    assert digest.hexdigest() == ref["output_sha256"]


def test_layer_calls_run_on_every_corpus_entry(docs):
    """The Weil-Deligne and global calls that layertrace times, with its
    data: every rational (and symplectic) orbit atom summed."""
    from tensorcond import chars, globalbound, weildeligne
    from tensorcond.corpus import load_corpus

    def all_atoms(T, symplectic):
        atoms = [vec for vec, _ in docs.orbit_atoms(T, symplectic)]
        return T.assemble([sum(col) for col in zip(*atoms)])

    corpus = load_corpus()
    for e in corpus.entries:
        T = chars.character_table(e.group)
        model = e.chains[0].model()
        A = weildeligne.AbVarDatum(model, all_atoms(T, True), all_atoms(T, False))
        assert weildeligne.tensor(A.rho, A.rho).artin_conductor() >= 0, e.name
    records = []
    for label, chain in zip((2, 3, 5), [c for c in corpus.integral_model_chains()
                                        if c.entry_name in ("c4", "c9", "heis3")]):
        tau = all_atoms(chars.character_table(chain.filtration.parent), True)
        A = weildeligne.AbVarDatum(chain.model(), tau, tau.scale(0))
        records.append(globalbound.PrimeLocalPair(label, A, A))
    assert len(records) == 3
    dim = max(r.A.dim for r in records) // 2
    report = globalbound.rankin_selberg_bound(globalbound.GlobalDatum(dim, dim, tuple(records)))
    assert report.all_checks_pass()


def test_table_group_jacobian_and_suite_calls_run_on_every_corpus_entry():
    """The other calls that layertrace times: group and chain builds, the
    decomposition of an assembled character, fixed dimensions, the
    filtration conductor, cyclotomic promotion of table values, their
    products and sums in Q(zeta_N), N each corpus exponent, and those of
    rationals in Q(zeta_20), the Jacobian family and one item of each
    suite."""
    from fractions import Fraction

    from tensorcond import chars, filtration, groups, jacobians, suites
    from tensorcond.corpus import load_corpus
    from tensorcond.cyclo import CycloNum

    from oracles import add, rational_value

    corpus = load_corpus()
    for e in corpus.entries:
        G = groups.build_group(e.group.spec)
        for c in e.chains:
            assert len(groups.filtration_from_generators(G, c.generator_lists)) == \
                len(c.filtration), e.name
        T = chars.character_table(e.group)
        chi = T.assemble([1] * len(T))
        assert T.multiplicities(chi) == chi.mults, e.name
        for c in e.chains:
            assert [chars.fixed_dim(chi, H) for H in c.filtration.chain] == c.fixed(chi), e.name
        report = filtration.conductor(chi, e.chains[0].filtration, chi)
        assert report.total >= 0 and report.excess_total >= 0, e.name
        N = e.group.exponent
        for psi in T.irreducibles:
            assert [v.promote(N) for v in psi.values] == list(psi.values), e.name
        assert rational_value(CycloNum.from_rational(Fraction(1, 3), N)) == Fraction(1, 3)
        # class by class, the CycloNum product and sum of two irreducibles'
        # values are the values of their product and sum as class functions
        psi, phi = T.irreducibles[-1], T.irreducibles[len(T) // 2]
        pairs = list(zip((v.promote(N) for v in psi.values), (v.promote(N) for v in phi.values)))
        assert [a * b for a, b in pairs] == list((psi * phi).values), e.name
        assert [a + b for a, b in pairs] == list(add(psi, phi).values), e.name
    thirds = [CycloNum.from_rational(Fraction(k, 3), 20) for k in range(1, 9)]
    assert [rational_value(a * b) for a, b in zip(thirds, thirds[1:])] == \
        [Fraction(k * (k + 1), 9) for k in range(1, 8)]
    assert [rational_value(a + b) for a, b in zip(thirds, thirds[1:])] == \
        [Fraction(2 * k + 1, 3) for k in range(1, 8)]
    for p in (3, 5, 7, 11, 13):
        params = jacobians.validate_params(p, jacobians.smallest_valid_unit(p))
        assert jacobians.verify_sharpness(params).equal, p
    for name in suites.SUITES:
        (result,) = suites.run_suite_range(name, corpus, 0, 1, 0)
        assert result["ok"], name
