import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import tensorcond
from tensorcond.cli import main
from tensorcond.suites import SUITES

BOUND_DOC = {
    "model": {"group": {"kind": "quaternion8"}, "chain": [[4]], "p": 2},
    "A": {"tau": [0, 0, 0, 0, 1], "sigma": [1, 0, 0, 0, 0]},
    "B": {"tau": [2, 0, 0, 0, 0], "sigma": [1, 0, 0, 0, 0]},
}

def make_global_doc():
    """Mixed summary + full modes; vectors follow the printed table order."""
    from tensorcond.chars import character_table
    from tensorcond.groups import cyclic
    T = character_table(cyclic(5))
    triv = T.index_of_trivial()
    sigma_a = [1 if i == triv else 0 for i in range(len(T))]
    tau_b = [0 if i == triv else 1 for i in range(len(T))]
    return {
        "dimA": 1, "dimB": 2,
        "primes": [
            {"p": 3, "mode": "summary", "vA": 1, "vB": 1,
             "degA": 1, "degB": 1, "degAB": 1},
            {"p": 5, "mode": "full",
             "model": {"group": {"kind": "cyclic", "n": 5},
                       "chain": [[1]], "p": 5},
             "A": {"tau": [0] * len(T), "sigma": sigma_a},
             "B": {"tau": tau_b, "sigma": [0] * len(T)}},
        ],
    }


# one bytecode cache, outside the checkout, for every fresh interpreter of a
# test session: the first child compiles the package, the others import it
PYCACHE = tempfile.TemporaryDirectory(prefix="tensorcond-pycache-")


def subprocess_env(**extra):
    """The environment for a fresh interpreter that imports this checkout's
    package, also when the tests put `src` on the path themselves, and
    writes and reads its bytecode in the session's `PYCACHE`."""
    src = str(Path(tensorcond.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="",
                PYTHONPYCACHEPREFIX=PYCACHE.name, **extra)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sharpness_human(capsys):
    code, out, _ = run_cli(capsys, "sharpness", "--p", "3", "--a", "2")
    assert code == 0
    assert "a_tensor=10" in out and "equal=True" in out


def test_sharpness_machine_sweep(capsys):
    code, out, _ = run_cli(capsys, "sharpness", "--max-p", "5", "--format", "machine")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [doc["p"] for doc in lines] == [3, 5]
    assert all(doc["equal"] for doc in lines)


def test_sharpness_rejects_bad_unit(capsys):
    code, _, err = run_cli(capsys, "sharpness", "--p", "3", "--a", "8")
    assert code == 2
    assert "input error" in err


def test_table_machine(capsys):
    code, out, _ = run_cli(capsys, "table", "--group",
                           '{"kind": "cyclic", "n": 6}', "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6
    assert len(doc["irreducibles"]) == 6
    assert all(irr["degree"] == 1 for irr in doc["irreducibles"])


def test_table_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "table", "--group", "{oops")
    assert code == 2


def test_bound_roundtrip(tmp_path, capsys):
    doc = tmp_path / "bound.json"
    doc.write_text(json.dumps(BOUND_DOC))
    code, out, _ = run_cli(capsys, "bound", "--input", str(doc),
                           "--format", "machine")
    assert code == 0
    res = json.loads(out)
    assert res["a_A"] == "7/2"
    assert res["bound_holds"] is True
    assert res["lhs"] == "14"


def test_bound_at_conductor_one_meets_the_semistable_form_not_rhs_main(tmp_path, capsys):
    """a(A) = 1 forces lhs = `semistable_form`, which the main bound's rhs
    may exceed: here lhs 4 against rhs_main 5."""
    from tensorcond.corpus import ChainReader
    from tensorcond.suites import abvar_datum
    from tensorcond.weildeligne import semistable_form
    doc = {"model": {"group": {"kind": "cyclic", "n": 3}, "chain": [], "p": 5},
           "A": {"tau": [0, 0, 0], "sigma": [1, 0, 0]},
           "B": {"tau": [0, 1, 1], "sigma": [0, 0, 0]}}
    code, out, _ = run_cli(capsys, "bound", "--input", _write(tmp_path, doc),
                           "--format", "machine")
    assert code == 0
    res = json.loads(out)
    assert [res[k] for k in ("a_A", "lhs", "rhs_main", "rhs_uniform", "C_p")] == \
        ["1", "4", "5", "4", 1]
    model = ChainReader().model(doc["model"], "model.")
    A, B = (abvar_datum(model, doc[key], key) for key in ("A", "B"))
    assert res["degree_correction"] == 0
    assert res["lhs"] == str(semistable_form(A, B, 0))


def test_bound_builds_the_tensor_product_once(tmp_path, capsys, monkeypatch):
    from tensorcond.weildeligne import WDRep
    real = WDRep.tensor
    calls = []

    def counted(self, other):
        calls.append(1)
        return real(self, other)
    monkeypatch.setattr(WDRep, "tensor", counted)
    doc = tmp_path / "bound.json"
    doc.write_text(json.dumps(BOUND_DOC))
    code, _, _ = run_cli(capsys, "bound", "--input", str(doc), "--format", "machine")
    assert code == 0 and len(calls) == 1


def test_bound_malformed_vector(tmp_path, capsys):
    bad = dict(BOUND_DOC, A={"tau": [1, 2], "sigma": [0, 0, 0, 0, 0]})
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "bound", "--input", str(doc))
    assert code == 2
    assert "multiplicity vector" in err


def test_bound_missing_field(tmp_path, capsys):
    doc = tmp_path / "bad2.json"
    doc.write_text(json.dumps({"model": BOUND_DOC["model"]}))
    code, _, err = run_cli(capsys, "bound", "--input", str(doc))
    assert code == 2
    assert "missing field" in err


def test_global_mixed_modes(tmp_path, capsys):
    doc = tmp_path / "global.json"
    doc.write_text(json.dumps(make_global_doc()))
    code, out, _ = run_cli(capsys, "global", "--input", str(doc),
                           "--format", "machine")
    assert code == 0
    res = json.loads(out)
    assert res["per_prime_check"] == "pass"
    # summary prime: 2*dimB*vA + 2*dimA*vB - 2*min = 4 + 2 - 2
    assert res["bound"]["3"] == 4


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "min-sum",
                           "--seeds", "25")
    assert code == 0
    assert "25 items" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_rejects_negative_seeds(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "min-sum",
                             "--seeds", "-3")
    assert code == 2
    assert "--seeds" in err
    assert out == ""


def test_verify_rejects_unreadable_corpus(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "min-sum",
                             "--seeds", "2", "--corpus", str(missing))
    assert code == 2
    assert "nonexistent.json" in err
    assert out == ""
    for text in ("[]", '{"version": 1, "entries": [[1]]}'):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--suite", "min-sum",
                                 "--seeds", "2", "--corpus", str(malformed))
        assert code == 2
        assert "object" in err


def test_verify_custom_corpus_and_version_refusal(tmp_path, capsys):
    from importlib import resources
    good = tmp_path / "corpus.json"
    good.write_text(resources.files("tensorcond")
                    .joinpath("data/corpus.json").read_text())
    code, out, _ = run_cli(capsys, "verify", "--suite", "min-sum",
                           "--seeds", "3", "--corpus", str(good))
    assert code == 0
    stale = tmp_path / "old.json"
    stale.write_text(json.dumps({"version": 0, "entries": []}))
    code, _, err = run_cli(capsys, "verify", "--suite", "min-sum",
                           "--seeds", "3", "--corpus", str(stale))
    assert code == 2
    assert "version" in err


def test_verify_machine_determinism(capsys):
    args = ["verify", "--suite", "symplectic-parity", "--seeds", "10",
            "--seed", "5", "--format", "machine"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def _cpus(monkeypatch, n):
    """Make this process see `n` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _counted_forks(monkeypatch, limit=None):
    """Wrap os.fork to record each call; past `limit` calls it raises
    instead of forking, so a broken process count starts no processes."""
    forks = []
    real_fork = os.fork

    def fork():
        if limit is not None and len(forks) >= limit:
            raise AssertionError(f"fork call {len(forks) + 1}, limit {limit}")
        forks.append(os.getpid())
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_verify_workers_match_sequential(capsys, monkeypatch):
    """Every suite, split into uneven shares (13 items: 7 + 6 or 5 + 5 + 3)
    or left whole (9 items at 3 workers), prints what the serial run does."""
    _cpus(monkeypatch, 8)
    forks = _counted_forks(monkeypatch)
    for seeds in (9, 13):
        for fmt in ("machine", "human"):
            base = ["verify", "--suite", "all", "--seeds", str(seeds), "--format", fmt]
            _, seq, _ = run_cli(capsys, *base, "--workers", "1")
            for workers in (2, 3):
                forks.clear()
                _, par, _ = run_cli(capsys, *base, "--workers", str(workers))
                assert par == seq
                assert len(forks) == (workers - 1 if seeds >= 4 * workers else 0)


def test_verify_emits_replayable_counterexample_on_failure(tmp_path, capsys,
                                                           monkeypatch):
    """Force a failing suite item and check the exit-1 contract: the dump is
    printed and replays to the recorded verdict."""
    from tensorcond import suites as suites_mod
    from tensorcond.chars import CharacterTable, character_table
    from tensorcond.corpus import load_corpus
    from tensorcond.suites import replay

    from oracles import corpus_entry

    corpus = load_corpus()
    entry = corpus_entry(corpus, "c9")
    T = character_table(entry.group)
    # every fixed dimension one too small: the trivial character shows gap
    # 1 on every subgroup, below the p = 3 threshold of 2
    real = CharacterTable.fixed_dims
    monkeypatch.setattr(CharacterTable, "fixed_dims",
                        lambda self, H: tuple(f - 1 for f in real(self, H)))
    inputs = {"chains": [c.ref() for c in entry.chains], "p": 3,
              "tau": [int(i == T.index_of_trivial()) for i in range(len(T))]}
    gaps = [1] * len({H.elements for c in entry.chains for H in c.filtration.chain})
    ce = {"suite": "pgroup-gap", **inputs, "gaps": gaps}

    real_suite = suites_mod.SUITES["pgroup-gap"]
    broken = suites_mod.Suite(lambda corpus, base_seed, i: (inputs, {"entry": "c9"}),
                              real_suite.check, real_suite.seeds,
                              real_suite.checks, real_suite.show)
    monkeypatch.setitem(suites_mod.SUITES, "pgroup-gap", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "pgroup-gap",
                           "--seeds", "2")
    assert code == 1
    dumped = [json.loads(line) for line in out.splitlines()
              if line.startswith("{")]
    assert dumped and dumped[0] == ce
    verdict = replay(dumped[0])
    assert verdict["ok"] is False


def test_replay_subcommand(tmp_path, capsys):
    from tensorcond.chars import character_table
    from tensorcond.corpus import load_corpus
    from tensorcond.filtration import step_class_side, step_kernel_side

    from oracles import gen_character
    corpus = load_corpus()
    chain = corpus.all_chains()[2]
    G = chain.filtration.parent
    T = character_table(G)
    t1 = gen_character(G, "cli:r1", 6)
    t2 = gen_character(G, "cli:r2", 6)
    lhs, rhs = step_kernel_side(t1, t2, chain)[0], step_class_side(t1, t2, chain)[0]
    doc = {"suite": "step-identity", "chain": chain.ref(),
           "tau1": list(T.multiplicities(t1)),
           "tau2": list(T.multiplicities(t2)), "level": 0,
           "lhs": str(lhs), "rhs": str(rhs)}
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "replay", "--input", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["ok"] and verdict["lhs"] == str(lhs)


@pytest.mark.parametrize("short", [0, 1], ids=["kernel-side", "class-side"])
def test_a_step_identity_side_short_of_levels_fails_and_replays(tmp_path, capsys, monkeypatch,
                                                                 short):
    """A side that drops the chain's last two levels is not compared on the
    shared prefix alone: every item fails, its detail shows both sides
    padded with null, and its counterexample replays to exit 1."""
    from tensorcond import suites
    sides = list(suites.SIDES["step-identity"])
    side = sides[1 + short]
    sides[1 + short] = lambda *args: side(*args)[:-2]
    monkeypatch.setitem(suites.SIDES, "step-identity", tuple(sides))
    code, out, err = run_cli(capsys, "verify", "--suite", "step-identity", "--seeds", "20",
                             "--format", "machine")
    assert code == 1 and "Traceback" not in err
    items = [json.loads(line) for line in out.splitlines()]
    summary = items.pop()
    assert summary["failures"] == summary["items"] == 20
    for item in items:
        rows = item["detail"]["sides"]
        assert item["checks"] == len(rows) >= 2
        assert [row[short] for row in rows[-2:]] == [None, None]
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, items[0]["counterexample"]))
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["ok"] is False


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tensorcond.cli", "sharpness", "--p", "5"],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert "equal=True" in proc.stdout


def test_machine_output_identical_across_processes():
    """Fresh interpreters with different hash seeds must agree byte for byte."""
    outs = []
    for hash_seed in ("0", "424242"):
        env = subprocess_env(PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "tensorcond.cli", "verify",
             "--suite", "global", "--seeds", "4", "--format", "machine"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def _write(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _step_document():
    from tensorcond.corpus import load_corpus
    from tensorcond.suites import SUITES
    inputs, _ = SUITES["step-identity"].generate(load_corpus(), 0, 0)
    return {"suite": "step-identity", **inputs}


def test_replay_rejects_a_json_array(tmp_path, capsys):
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, [1, 2]))
    assert code == 2 and out == ""
    assert "JSON object" in err


def test_replay_rejects_an_unknown_suite(tmp_path, capsys):
    doc = dict(_step_document(), suite="no-such-suite")
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "'suite'" in err and "no-such-suite" in err


def test_replay_rejects_a_level_beyond_the_chain(tmp_path, capsys):
    doc = dict(_step_document(), level=7)
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "'level'" in err and "7" in err


def test_bound_rejects_a_chain_of_integers(tmp_path, capsys):
    doc = dict(BOUND_DOC, model=dict(BOUND_DOC["model"], chain=[5]))
    code, out, err = run_cli(capsys, "bound", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "model.chain" in err


def test_global_rejects_a_non_integer_summary_field(tmp_path, capsys):
    doc = make_global_doc()
    doc["primes"][0]["vA"] = "x"
    code, out, err = run_cli(capsys, "global", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "primes[0].vA" in err


def test_bound_rejects_a_wild_level_that_is_not_a_p_group(tmp_path, capsys):
    from tensorcond.errors import TensorCondError
    from tensorcond.groups import cyclic
    from oracles import chain_on
    with pytest.raises(TensorCondError):
        chain_on(cyclic(4), [[1]], 3)
    doc = dict(BOUND_DOC, model={"group": {"kind": "cyclic", "n": 4},
                                 "chain": [[1]], "p": 3},
               A={"tau": [0] * 4, "sigma": [0] * 4},
               B={"tau": [0] * 4, "sigma": [0] * 4})
    code, out, err = run_cli(capsys, "bound", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "model.p" in err


@pytest.mark.parametrize("spec, message", [
    ('{"kind": "cyclic"}', "missing the integer field 'n'"),
    ('{"kind": "cyclic", "n": "x"}', "'n' must be an integer"),
    ('{"kind": "cyclic", "n": 2100}', "exceeds cap"),
])
def test_table_rejects_a_bad_group_parameter(capsys, spec, message):
    code, out, err = run_cli(capsys, "table", "--group", spec)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_bound_names_a_bad_group_parameter(tmp_path, capsys):
    doc = dict(BOUND_DOC, model=dict(BOUND_DOC["model"], group={"kind": "cyclic"}))
    code, out, err = run_cli(capsys, "bound", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "model.group" in err and "'n'" in err


def test_replay_names_a_bad_group_parameter_in_a_chain_reference(tmp_path, capsys):
    doc = _step_document()
    doc["chain"] = dict(doc["chain"], group={"kind": "cyclic", "n": "x"})
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "chain" in err and "'n'" in err


def test_verify_names_the_corpus_entry_with_a_bad_group_parameter(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"version": 1, "entries": [
        {"name": "bad", "group": {"kind": "cyclic", "n": "x"},
         "chains": [{"name": "c", "subgroups": [[1]]}]}]}))
    code, out, err = run_cli(capsys, "verify", "--suite", "min-sum",
                             "--seeds", "2", "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert "'bad'" in err and "'n'" in err


@pytest.mark.parametrize("field, value", [
    ("model_p", "2"), ("subgroups", [[True]]), ("name", None)])
def test_verify_names_the_malformed_corpus_field(tmp_path, capsys, field, value):
    """A chain field of the wrong type, or a missing chain name (value
    None), exits 2 naming the field and its entry."""
    from importlib import resources
    doc = json.loads(resources.files("tensorcond").joinpath("data/corpus.json").read_text())
    chain = doc["entries"][0]["chains"][0]
    if value is None:
        del chain[field]
    else:
        chain[field] = value
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--suite", "step-identity",
                             "--seeds", "2", "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert f"'entries[0].chains[0].{field}'" in err and "'c4'" in err


def test_verify_machine_output_digest(capsys):
    """The machine output of every suite, 30 items each at seed 0, which
    covers every model chain of the corpus.  The digest was recorded from
    the class-value filtration suites; a change that alters any verdict,
    detail or check count changes it."""
    import hashlib
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "machine",
                           "--seeds", "30", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ecabfbb3d8792373cb61ed6e4a220b1f88a40550f710bb2d4eda7316df103e9f"


def test_verify_forks_once_per_extra_process(capsys, monkeypatch):
    """Every split suite reuses the same forked workers: one fork per
    process beyond the calling one, per call."""
    base = ["verify", "--suite", "pgroup-gap", "--suite", "min-sum",
            "--suite", "symplectic-parity", "--seeds", "16", "--format", "machine"]
    _, seq, _ = run_cli(capsys, *base)
    _cpus(monkeypatch, 4)
    forks = _counted_forks(monkeypatch)
    for workers in (2, 3, 4):
        forks.clear()
        code, par, _ = run_cli(capsys, *base, "--workers", str(workers))
        assert code == 0 and par == seq
        assert forks == [os.getpid()] * (workers - 1)


def test_verify_workers_take_the_loaded_corpus(capsys, monkeypatch):
    """The corpus is read once per call, in the calling process; each forked
    worker receives that same corpus object and reads no file."""
    from tensorcond import cli
    pid, loads = os.getpid(), []
    real_load, real_init = cli.load_corpus, cli._pool_init

    def counted_load(path):
        if os.getpid() != pid:
            raise AssertionError("a worker loaded the corpus")
        loads.append(real_load(path))
        return loads[-1]

    def checked_init(corpus):
        if corpus is not loads[0]:
            raise AssertionError("a worker received another corpus")
        real_init(corpus)

    monkeypatch.setattr(cli, "load_corpus", counted_load)
    monkeypatch.setattr(cli, "_pool_init", checked_init)
    _cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", "--suite", "min-sum", "--seeds", "8",
                         "--workers", "2", "--format", "machine")
    assert code == 0
    assert len(loads) == 1 and loads[0].entries
    assert len(forks) == 1


def test_verify_holds_the_process_count_to_the_cpus(capsys, monkeypatch):
    """--workers 64 on 2 CPUs runs 2 processes; a third fork would raise
    here instead of starting a process."""
    base = ["verify", "--suite", "symplectic-parity", "--seeds", "256",
            "--format", "machine"]
    _, seq, _ = run_cli(capsys, *base)
    _cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch, limit=1)
    code, par, err = run_cli(capsys, *base, "--workers", "64")
    assert (code, err) == (0, "") and par == seq
    assert len(forks) == 1


def test_verify_runs_one_process_without_fork(capsys, monkeypatch):
    base = ["verify", "--suite", "min-sum", "--seeds", "12", "--format", "machine"]
    _, seq, _ = run_cli(capsys, *base)
    _cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, *base, "--workers", "4") == (0, seq, "")


def _fail_in_share_one(monkeypatch, failure):
    """Make min-sum's check call failure() on item 5, which is in share 1 of
    8 items at two workers."""
    from tensorcond import suites as suites_mod
    from tensorcond.corpus import load_corpus
    suite = suites_mod.SUITES["min-sum"]
    target, _ = suite.generate(load_corpus(), 0, 5)

    def check(doc, reader):
        if doc == target:
            failure()
        return suite.check(doc, reader)
    monkeypatch.setitem(suites_mod.SUITES, "min-sum", suites_mod.Suite(
        suite.generate, check, suite.seeds, suite.checks, suite.show))


@pytest.mark.parametrize("kind", ["InputError", "PreconditionError", "CorpusError",
                                  "TableComputationError"])
def test_verify_worker_error_matches_the_serial_run(capsys, monkeypatch, kind):
    """A TensorCondError of each kind that `errors` defines, raised in a
    worker's share, ends the call as the serial run does: same exit code,
    stdout and stderr; no child is left.  The parent rebuilds the error from
    its class name, so a name it cannot find would end in a RuntimeError."""
    from tensorcond import errors

    def fail():
        raise getattr(errors, kind)("forced failure of item 5")
    _fail_in_share_one(monkeypatch, fail)
    base = ["verify", "--suite", "symplectic-parity", "--suite", "min-sum",
            "--seeds", "8", "--format", "machine"]
    seq = run_cli(capsys, *base, "--workers", "1")
    assert seq[0] == 2 and seq[1] and "forced failure of item 5" in seq[2]
    _cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    assert run_cli(capsys, *base, "--workers", "2") == seq
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure, message", [
    (lambda: 1 // 0, "verify worker 1 failed in suite min-sum: ZeroDivisionError"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "verify worker 1 ended before its share of suite min-sum"),
], ids=["exception", "signal"])
def test_verify_names_a_worker_that_fails_otherwise(capsys, monkeypatch, failure, message):
    """Any other failure in a worker, an exception or a signal, raises in the
    calling process naming the worker and the suite; no child is left."""
    pid = os.getpid()
    _fail_in_share_one(monkeypatch, lambda: os.getpid() != pid and failure())
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=message):
        main(["verify", "--suite", "min-sum", "--seeds", "8", "--workers", "2"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_workers_import_no_process_pool():
    """A --workers 2 run that forks imports neither multiprocessing nor
    concurrent.futures, and the records are NamedTuples or plain classes,
    so neither dataclasses nor inspect (with the ast, dis and tokenize it
    pulls in) is imported either: each would add to every process's
    start-up."""
    script = ("import os, sys\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from tensorcond.cli import main\n"
              "code = main(['verify', '--suite', 'min-sum', '--seeds', '8',\n"
              "             '--workers', '2', '--format', 'machine'])\n"
              "print(code, sorted(m for m in ('multiprocessing', 'concurrent.futures',\n"
              "                               'dataclasses', 'inspect')\n"
              "                   if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


CLOSED_STDOUT_SCRIPT = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
forks, real_fork = [], os.fork

def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
from tensorcond.cli import main
code = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child is left"
except ChildProcessError:
    left = "no child left"
print(len(forks), left, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_stops_cleanly_when_stdout_is_closed(workers):
    """A reader that takes one line of a step-identity run (140 KB of
    machine output, more than a pipe holds) and closes the pipe: the run
    exits with the documented code, prints no traceback and leaves no
    worker behind."""
    from tensorcond.cli import EXIT_CLOSED_STDOUT
    proc = subprocess.Popen(
        [sys.executable, "-c", CLOSED_STDOUT_SCRIPT, "verify", "--suite", "step-identity",
         "--format", "machine", "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=subprocess_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_CLOSED_STDOUT == 141, err
    assert json.loads(first)["suite"] == "step-identity"
    assert "Traceback" not in err
    assert err.splitlines() == [f"{workers - 1} no child left"]


def test_sharpness_refuses_a_prime_above_the_order_cap_before_computing(capsys,
                                                                        monkeypatch):
    from tensorcond import groups, jacobians

    def never(*args):
        raise AssertionError("computed before the order cap was checked")
    monkeypatch.setattr(groups, "affine", never)
    monkeypatch.setattr(jacobians, "disc_valuation", never)
    code, out, err = run_cli(capsys, "sharpness", "--p", "1009")
    assert code == 2 and out == ""
    assert "--p" in err and "above the cap" in err
    code, out, err = run_cli(capsys, "sharpness", "--max-p", "1009")
    assert code == 2 and out == ""
    assert "--max-p" in err and "Aff(47)" in err


def test_verify_sharpness_builds_each_affine_group_once(capsys, monkeypatch):
    """16 sharpness items cycle p = 3, 5, 7, 11, 13: the corpus brings
    Aff(5), and the run builds each of the other four once."""
    from tensorcond import groups
    built, real_affine = [], groups.affine

    def counting_affine(p):
        built.append(p)
        return real_affine(p)
    monkeypatch.setattr(groups, "affine", counting_affine)
    code, out, _ = run_cli(capsys, "verify", "--suite", "sharpness", "--seeds", "16",
                           "--format", "machine")
    assert code == 0 and len(out.splitlines()) == 17
    assert built == [5, 3, 7, 11, 13]


def test_sharpness_refuses_a_sweep_without_an_odd_prime(capsys):
    code, out, err = run_cli(capsys, "sharpness", "--max-p", "2")
    assert code == 2 and out == ""
    assert "--max-p" in err and "no odd prime" in err


def test_sharpness_refuses_a_unit_for_a_sweep_of_several_primes(capsys):
    code, out, err = run_cli(capsys, "sharpness", "--max-p", "7", "--a", "10")
    assert code == 2 and out == ""
    assert "--a 10" in err and "--max-p 7" in err
    # a sweep of one prime takes the unit
    code, out, _ = run_cli(capsys, "sharpness", "--max-p", "3", "--a", "2")
    assert code == 0
    assert "p=3 a=2:" in out


def test_sharpness_refuses_a_prime_together_with_a_sweep(capsys):
    code, out, err = run_cli(capsys, "sharpness", "--p", "5", "--max-p", "7")
    assert code == 2 and out == ""
    assert "--p 5" in err and "--max-p 7" in err


@pytest.mark.parametrize("workers", ["-3", "0"])
def test_verify_refuses_a_worker_count_below_one(capsys, workers):
    code, out, err = run_cli(capsys, "verify", "--suite", "min-sum", "--seeds", "2",
                             "--workers", workers)
    assert code == 2 and out == ""
    assert f"--workers must be at least 1, not {workers}" in err


@pytest.mark.parametrize("chain, message", [
    ([[99]], "generator index 99 out of range"),
    ([[4], [1]], "chain is not descending"),
])
def test_bound_and_global_name_a_malformed_chain(tmp_path, capsys, chain, message):
    doc = dict(BOUND_DOC, model=dict(BOUND_DOC["model"], chain=chain))
    code, out, err = run_cli(capsys, "bound", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "model.chain: " + message in err
    doc = make_global_doc()
    doc["primes"][1]["model"]["chain"] = [[99]] if chain == [[99]] else [[0], [1]]
    code, out, err = run_cli(capsys, "global", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "primes[1].model.chain: " in err


@pytest.mark.parametrize("suite", ["pgroup-gap", "pgroup-bound", "global"])
def test_verify_names_the_chain_kind_a_corpus_lacks(tmp_path, capsys, suite):
    """A corpus of the aff5 entry alone has no chain on a p-group and no
    model chain of integral shape: the suites that draw from those exit 2
    naming themselves and the missing kind."""
    from importlib import resources
    doc = json.loads(resources.files("tensorcond").joinpath("data/corpus.json").read_text())
    doc["entries"] = [e for e in doc["entries"] if e["name"] == "aff5"]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--seeds", "2", "--corpus", str(corpus))
    assert code == 2 and out == ""
    kind = "model_p" if suite == "global" else "chain on a p-group"
    assert f"suite {suite}: the corpus has no" in err and kind in err


# one-entry corpora that leave some suites without a pool they can draw from
SMALL_CORPORA = {
    "c1-model": {"name": "c1", "group": {"kind": "cyclic", "n": 1},
                 "chains": [{"name": "t", "subgroups": [], "model_p": 2}]},
    "c6-no-model": {"name": "c6", "group": {"kind": "cyclic", "n": 6},
                    "chains": [{"name": "w", "subgroups": [[2]]}]},
    "c2-tame-at-3": {"name": "c2", "group": {"kind": "cyclic", "n": 2},
                     "chains": [{"name": "t", "subgroups": [], "model_p": 3}]},
}


@pytest.mark.parametrize("corpus", list(SMALL_CORPORA))
@pytest.mark.parametrize("suite", list(SUITES))
def test_every_suite_runs_or_refuses_on_a_small_corpus(tmp_path, capsys, suite, corpus):
    """Every suite on a corpus of one entry: a model chain on the trivial
    group, a C6 chain with no model_p, or a tame model on C2 at p = 3.  A
    suite exits 0, or exits 2 with one stderr line that names it, and no
    run ends in a traceback: the trivial group has no ramified datum, so
    tame-identity refuses a corpus whose model chains are all on it."""
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"version": 1, "entries": [SMALL_CORPORA[corpus]]}))
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seeds", "2",
                             "--corpus", str(path))
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and f"suite {suite}: " in err, err
    else:
        assert code == 0 and err == "", err


def test_replay_refuses_a_pgroup_gap_prime_that_does_not_match_the_group(tmp_path,
                                                                         capsys):
    from tensorcond.corpus import load_corpus

    from oracles import corpus_entry
    entry = corpus_entry(load_corpus(), "c9")
    doc = {"suite": "pgroup-gap", "chains": [c.ref() for c in entry.chains],
           "p": 4, "tau": [1] + [0] * 8}
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert "not a 4-group" in err


@pytest.mark.parametrize("p", [4, -7])
def test_replay_refuses_a_pgroup_bound_prime_on_the_trivial_group(tmp_path, capsys, p):
    """pgroup-bound checks `p` as pgroup-gap does, and as the suites' pool
    is drawn: the trivial group is a p-group for no p, so neither a
    composite p nor a negative one (coefficient p - 1 < 0) replays."""
    doc = {"suite": "pgroup-bound",
           "chain": {"group": {"kind": "cyclic", "n": 1}, "subgroups": []},
           "tau1": [1], "tau2": [1], "p": p}
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert f"'p' is {p}, but C1 is not a {p}-group" in err


@pytest.mark.parametrize("suite, field", [
    ("min-sum", "d"), ("min-sum", "a"), ("min-sum", "b"),
    ("symplectic-bound", "tau1"), ("symplectic-bound", "tau2"), ("pgroup-bound", "p"),
    ("semistable", "A"), ("tame-identity", "A"), ("tame-identity", "B"),
    ("symplectic-parity", "tau"), ("pgroup-gap", "tau"),
])
def test_replay_names_the_field_outside_the_suite_hypotheses(tmp_path, capsys, suite, field):
    """A suite's item 0, changed so that `field` breaks a hypothesis of the
    suite, is malformed input and not a violation: exit 2, and one line on
    stderr that names the field."""
    from tensorcond.chars import character_table
    from tensorcond.corpus import load_corpus
    from tensorcond.groups import cyclic
    from tensorcond.suites import SUITES

    from oracles import corpus_entry
    corpus = load_corpus()
    doc, _ = SUITES[suite].generate(corpus, 0, 0)  # on C4, but for min-sum
    doc["suite"] = suite
    T = character_table(cyclic(4))
    triv = T.index_of_trivial()
    # a faithful linear character of C4: neither symplectic nor rational
    linear = [int(i == T.fs_indicators.index(0)) for i in range(len(T))]
    if suite == "min-sum":
        doc.update(M="2", a=["2", "0"], b=["4", "2"], d=["1", "1"])
        doc[field] = ["1", "0"] if field == "d" else ["0", "2"]
    elif suite == "pgroup-bound":
        doc["p"] = 3
    elif suite == "semistable":
        doc["A"] = SUITES["tame-identity"].generate(corpus, 0, 0)[0]["A"]
    elif suite == "tame-identity":  # good reduction: conductor exponent 0
        doc[field] = {"tau": [2 * (i == triv) for i in range(len(T))], "sigma": [0] * len(T)}
    elif suite == "pgroup-gap":
        T9 = character_table(cyclic(9))
        faithful = max(T9.galois_orbits, key=len)[0]
        doc.update(chains=[c.ref() for c in corpus_entry(corpus, "c9").chains], p=3,
                   tau=[int(i == faithful) for i in range(len(T9))])
    else:
        doc[field] = linear
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, doc))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"'{field}'" in err, err


@pytest.mark.parametrize("spelling", ["absent", "null"])
@pytest.mark.parametrize("suite", ["semistable", "swan-bound", "tame-identity",
                                   "conductor-bound", "uniform-bound", "degree-gap"])
def test_replay_names_a_missing_model_p_in_a_chain_reference(tmp_path, capsys, suite,
                                                             spelling):
    """A Weil-Deligne suite's item 0 whose chain reference carries no
    residue characteristic: exit 2, and one stderr line that names the field
    `chain.model_p` and no label of the reader's own."""
    from tensorcond.corpus import load_corpus
    from tensorcond.suites import SUITES
    doc, _ = SUITES[suite].generate(load_corpus(), 0, 0)
    doc["suite"] = suite
    doc["chain"] = {k: v for k, v in doc["chain"].items() if k != "model_p"}
    if spelling == "null":
        doc["chain"]["model_p"] = None
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, doc))
    _refused_naming(code, out, err, "'chain.model_p'")
    assert "document/" not in err, err


def _global_suite_doc():
    """Item 5 of the global suite at seed 0: a `global` document with three
    full prime records, dimA 1 and dimB 2, that `replay` reads too."""
    from tensorcond.corpus import load_corpus
    from tensorcond.suites import SUITES
    doc, _ = SUITES["global"].generate(load_corpus(), 0, 5)
    assert len(doc["primes"]) == 3 and (doc["dimA"], doc["dimB"]) == (1, 2)
    return {"suite": "global", **doc}


def _global_and_replay(names: str, cases: list):
    """Parametrize `command` and `names` over the cases, each sent to
    `global` under its plain id and to `replay` under 'replay-' and that id."""
    params = []
    for case in cases:
        case_id = "-".join(map(str, case))
        params += [pytest.param("global", *case, id=case_id),
                   pytest.param("replay", *case, id=f"replay-{case_id}")]
    return pytest.mark.parametrize(f"command, {names}", params)


@_global_and_replay("j, p", [(0, 4), (0, 1), (0, 0), (0, -3), (1, 4)])
def test_global_refuses_a_prime_record_whose_p_is_not_a_prime(tmp_path, capsys, command,
                                                              j, p):
    doc = _global_suite_doc()
    assert run_cli(capsys, command, "--input", _write(tmp_path, doc))[0] == 0
    doc["primes"][j]["p"] = p
    _refused_naming(*run_cli(capsys, command, "--input", _write(tmp_path, doc)),
                    f"'primes[{j}].p' must be a prime, not {p}")


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--suite", "all"],
     "6c8780a1222593b1904b78c9ca37902bb63a8392a8d8e32ba231744c786ae9ca"),
    (["verify", "--suite", "all", "--seed", "3", "--seeds", "40"],
     "105fb16c73a55e0885e5b9996fe8d8dba2887f24b3c9f27c7cdc3de5026882b7"),
    (["verify", "--suite", "global"],
     "c0420dfe2a4012c8cac014cea3f8c423548d0717dcb74065f395bf094c86c5bf"),
    (["sharpness", "--max-p", "13"],
     "aac6a796ade7f34c207c6eb89d78a90618adf3a3813f4ce1187116a8c6cfcc55"),
    # every prime up to the order cap: Aff(43) has order 1806
    (["sharpness", "--max-p", "43"],
     "5ddbe4b38239b6092c70ed48d5675963d8b8d533cc5c6a071b9103071cc2d074"),
])
def test_machine_output_digests_at_default_seeds(capsys, argv, digest):
    """Machine output of the default suite runs and the sharpness sweep;
    any change to a verdict, a detail, a check count or a seeded input
    changes a digest."""
    import hashlib
    code, out, _ = run_cli(capsys, *argv, "--format", "machine")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_global_human_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "global", "--input", _write(tmp_path, make_global_doc()))
    assert code == 0
    assert out.splitlines() == [
        "bound: 3^4 * 5^18",
        "d_term: 1",
        "per-prime check: pass",
        "  p=3: bound exponent 4",
        "  p=5: bound exponent 18, a(tensor) = 16",
    ]


def test_global_human_output_with_good_reduction_everywhere(tmp_path, capsys):
    doc = {"dimA": 1, "dimB": 2, "primes": [
        {"p": 7, "mode": "summary", "vA": 0, "vB": 0, "degA": 2, "degB": 4, "degAB": 8}]}
    code, out, _ = run_cli(capsys, "global", "--input", _write(tmp_path, doc))
    assert code == 0
    assert out.splitlines() == ["bound: 1", "d_term: 1", "per-prime check: pass",
                                "  p=7: bound exponent 0"]


@_global_and_replay("key", [("dimA",), ("dimB",)])
def test_global_refuses_a_dimension_below_one(tmp_path, capsys, command, key):
    doc = _global_suite_doc()
    assert run_cli(capsys, command, "--input", _write(tmp_path, doc))[0] == 0
    doc[key] = 0
    _refused_naming(*run_cli(capsys, command, "--input", _write(tmp_path, doc)),
                    f"'{key}' must be at least 1, not 0")


@pytest.mark.parametrize("command", ["global", "replay"])
def test_global_refuses_a_repeated_prime(tmp_path, capsys, command):
    doc = _global_suite_doc()
    doc["primes"][1]["p"] = doc["primes"][0]["p"]
    _refused_naming(*run_cli(capsys, command, "--input", _write(tmp_path, doc)),
                    f"'primes[1].p' repeats the prime {doc['primes'][0]['p']}")


def test_global_refuses_a_negative_correction_before_a_negative_exponent(tmp_path, capsys):
    """Record 0's bound exponent is negative, record 1's degree correction:
    every record's correction is checked before any exponent."""
    doc = {"dimA": 1, "dimB": 1, "primes": [
        {"p": 3, "mode": "summary", "vA": 2, "vB": 2, "degA": 0, "degB": 0, "degAB": 5},
        {"p": 5, "mode": "summary", "vA": 2, "vB": 2, "degA": 2, "degB": 2, "degAB": 0}]}
    code, out, err = run_cli(capsys, "global", "--input", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["input error: primes: degree correction -4 < 0 at prime 5: "
                                "inconsistent input"]


@_global_and_replay("key, part, dim", [("dimA", "A", 2), ("dimB", "B", 1), ("dimB", "B", 3)])
def test_global_refuses_a_full_record_of_the_wrong_dimension(tmp_path, capsys, command, key,
                                                             part, dim):
    """At the suite's dimensions the document reads; one more or one less
    is malformed input, not a violation or a looser bound."""
    doc = _global_suite_doc()
    assert run_cli(capsys, command, "--input", _write(tmp_path, doc))[0] == 0
    old, doc[key] = doc[key], dim
    _refused_naming(*run_cli(capsys, command, "--input", _write(tmp_path, doc)),
                    f"'primes[0].{part}' has dimension {2 * old}, not 2 * '{key}' = {2 * dim}")


def test_global_suite_documents_refuse_a_summary_record(tmp_path, capsys):
    """The suite's self-tensor check needs A itself, so `replay` refuses a
    summary record by its mode, where `global` reads the same document."""
    doc = _global_suite_doc()
    doc["primes"][0] = {"p": doc["primes"][0]["p"], "mode": "summary",
                        "vA": 1, "vB": 1, "degA": 1, "degB": 1, "degAB": 1}
    assert run_cli(capsys, "global", "--input", _write(tmp_path, doc))[0] == 0
    _refused_naming(*run_cli(capsys, "replay", "--input", _write(tmp_path, doc)),
                    "'primes[0].mode' must be full")


# on D4 with G_1 = <4> of order 2, this A has Artin conductor 11/2
FRACTIONAL_RECORD = {"p": 3, "A": {"tau": [0, 0, 0, 0, 0], "sigma": [1, 0, 1, 1, 0]},
                     "B": {"tau": [0, 0, 0, 0, 0], "sigma": [1, 0, 1, 0, 0]}}


def test_a_full_record_with_a_fractional_conductor_is_malformed_input(tmp_path, capsys):
    """Global data need integer conductor exponents: replay and global both
    exit 2 naming the record's field, not 1 as a violation of the bound."""
    doc = {"suite": "global", "dimA": 3, "dimB": 2, "primes": [
        {**FRACTIONAL_RECORD, "mode": "full",
         "model": {"group": {"kind": "dihedral", "n": 4}, "chain": [[4]], "p": 2}}]}
    for command in ("replay", "global"):
        code, out, err = run_cli(capsys, command, "--input", _write(tmp_path, doc))
        assert code == 2 and out == "", command
        assert "'primes[0].A' has conductor exponent 11/2, not an integer" in err, command


# two entries on one group spec, whose chain "x" has the same reference
SHARED_SPEC_CORPUS = {"version": 1, "entries": [
    {"name": "a", "group": {"kind": "cyclic", "n": 4}, "chains": [
        {"name": "x", "subgroups": [[2]], "model_p": 2},
        {"name": "y", "subgroups": [[1], [2]], "model_p": 2}]},
    {"name": "b", "group": {"kind": "cyclic", "n": 4}, "chains": [
        {"name": "x", "subgroups": [[2]], "model_p": 2},
        {"name": "tame", "subgroups": [], "model_p": 2}]}]}


@pytest.mark.parametrize("extra", [{}, {"note": "a key that cyclic does not read"}])
def test_entries_with_one_group_spec_share_the_group(tmp_path, capsys, extra):
    """Every suite runs on a corpus whose entries repeat a group spec (up to
    keys the kind does not read) and a chain: the entries share one group,
    so a reference resolves to a chain on the group of every other chain
    it is listed with."""
    from tensorcond.corpus import load_corpus
    from tensorcond.suites import SUITES
    doc = json.loads(json.dumps(SHARED_SPEC_CORPUS))
    doc["entries"][1]["group"].update(extra)
    path = _write(tmp_path, doc)
    a, b = load_corpus(path).entries
    assert a.group is b.group
    for suite in SUITES:
        code, _, err = run_cli(capsys, "verify", "--suite", suite, "--seeds", "3",
                               "--corpus", path)
        assert code == 0, (suite, err)


@pytest.mark.parametrize("model_p, message", [
    (3, "wild inertia level G_1 must be a 3-group"),
    (4, "residue characteristic 4 is not prime")])
def test_a_corpus_chain_with_a_bad_model_p_is_refused_at_load(tmp_path, capsys, model_p,
                                                              message):
    """model_p is checked when the corpus loads, so a suite that builds no
    model refuses the corpus too, naming the entry and the field."""
    corpus = {"version": 1, "entries": [{"name": "c4", "group": {"kind": "cyclic", "n": 4},
                                         "chains": [{"name": "std", "subgroups": [[2]],
                                                     "model_p": model_p}]}]}
    code, out, err = run_cli(capsys, "verify", "--suite", "min-sum", "--seeds", "2",
                             "--corpus", _write(tmp_path, corpus))
    assert code == 2 and out == ""
    assert f"malformed corpus: entry 'c4': entries[0].chains[0].model_p: {message}" in err


@pytest.mark.parametrize("names, field", [
    ([("a", ["std"]), ("a", ["std"])], "entries[1].name"),
    ([("a", ["x", "x"])], "entries[0].chains[1].name"),
    ([("", ["std"])], "entries[0].name"),
    ([("a", [""])], "entries[0].chains[0].name"),
    ([("a/b", ["std"])], "entries[0].name"),
    ([("a", ["x/y"])], "entries[0].chains[0].name"),
], ids=["entry-twice", "chain-twice", "empty-entry", "empty-chain", "slash-entry",
        "slash-chain"])
def test_a_corpus_label_naming_no_single_chain_is_refused_at_load(tmp_path, capsys, names,
                                                                  field):
    """Entry names are unique, chain names unique within their entry, and
    none is empty or holds '/', so that a label entry/chain names one chain;
    each (entry, chain names) list here reuses the builtin entries' groups
    and first chains."""
    from importlib import resources
    builtin = json.loads(resources.files("tensorcond").joinpath("data/corpus.json").read_text())
    entries = [dict(e, name=name, chains=[dict(e["chains"][0], name=c) for c in chains])
               for e, (name, chains) in zip(builtin["entries"], names)]
    code, out, err = run_cli(capsys, "verify", "--suite", "semistable", "--corpus",
                             _write(tmp_path, {"version": 1, "entries": entries}))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed corpus: ") and f"'{field}'" in err


def test_main_builds_its_parser_once_and_reuses_it(tmp_path, capsys, monkeypatch):
    """Mixed subcommands back to back in one process print and return the
    same as with a parser built afresh for each call, and build one."""
    from tensorcond import cli
    path = _write(tmp_path, make_global_doc())
    argvs = [
        ["sharpness", "--p", "5"],
        ["verify", "--suite", "min-sum", "--suite", "pgroup-gap", "--seeds", "3",
         "--format", "machine"],
        ["table", "--group", '{"kind": "dihedral", "n": 3}'],
        ["global", "--input", path, "--format", "machine"],
        ["verify", "--suite", "symplectic-parity", "--seeds", "2"],
        ["table", "--group", "{not json"],
        ["sharpness", "--max-p", "7", "--format", "machine"],
        ["global", "--input", path],
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(capsys, *argv) for argv in argvs]
    built = []
    real = cli.build_parser

    def counting_build():
        built.append(real())
        return built[-1]
    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in argvs] == fresh
    assert len(built) == 1
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 2, 0, 0]


class _Expired(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise _Expired inside the block once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise _Expired(f"took over {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _summary_doc(p: int) -> dict:
    return {"dimA": 1, "dimB": 1, "primes": [
        {"p": p, "mode": "summary", "vA": 0, "vB": 0, "degA": 0, "degB": 0, "degAB": 0}]}


def _tame_bound_doc(p: int) -> dict:
    """A bound document on C4 with no wild level, so that any prime p fits."""
    return {"model": {"group": {"kind": "cyclic", "n": 4}, "chain": [], "p": p},
            "A": {"tau": [0, 0, 0, 0], "sigma": [1, 0, 0, 0]},
            "B": {"tau": [0, 0, 0, 0], "sigma": [1, 0, 0, 0]}}


def test_a_61_bit_prime_field_is_decided_at_once(tmp_path, capsys):
    p = 2 ** 61 - 1
    with time_limit(5):
        assert run_cli(capsys, "global", "--input", _write(tmp_path, _summary_doc(p)))[0] == 0
        assert run_cli(capsys, "bound", "--input", _write(tmp_path, _tame_bound_doc(p)))[0] == 0
        code, out, err = run_cli(capsys, "sharpness", "--p", str(p))
    assert code == 2 and out == "" and "above the cap 2048" in err


def test_a_61_bit_composite_field_is_refused_as_not_a_prime(tmp_path, capsys):
    p = 2 ** 61 + 1  # = 3 * 768614336404564651
    with time_limit(5):
        code, out, err = run_cli(capsys, "global", "--input", _write(tmp_path, _summary_doc(p)))
        assert code == 2 and out == ""
        assert f"'primes[0].p' must be a prime, not {p}" in err
        code, out, err = run_cli(capsys, "bound", "--input", _write(tmp_path, _tame_bound_doc(p)))
        assert code == 2 and out == ""
        assert f"model.p: residue characteristic {p} is not prime" in err


@pytest.mark.parametrize("p", [34 * 10 ** 23 + 1, 3317044064679887385961981])
def test_a_prime_field_beyond_the_primality_limit_is_refused(tmp_path, capsys, p):
    with time_limit(5):
        code, out, err = run_cli(capsys, "global", "--input", _write(tmp_path, _summary_doc(p)))
        assert code == 2 and out == "" and f"'primes[0].p': {p} is too large" in err
        code, out, err = run_cli(capsys, "bound", "--input", _write(tmp_path, _tame_bound_doc(p)))
        assert code == 2 and out == "" and f"model.p: {p} is too large" in err
        # the order cap of Aff(p) is checked before primality
        code, out, err = run_cli(capsys, "sharpness", "--p", str(p))
        assert code == 2 and out == "" and "above the cap 2048" in err


def _deep_array(tmp_path) -> str:
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    return str(path)


@pytest.mark.parametrize("command", ["bound", "global", "replay"])
def test_an_input_document_nested_too_deeply_exits_2(tmp_path, capsys, command):
    code, out, err = run_cli(capsys, command, "--input", _deep_array(tmp_path))
    assert code == 2 and out == ""
    assert "cannot read input document: maximum recursion depth" in err


def test_a_group_spec_nested_too_deeply_exits_2(capsys):
    spec = '{"kind": "cyclic", "n": 1}'
    for _ in range(900):
        spec = '{"kind": "direct_product", "factors": [' + spec + ']}'
    code, out, err = run_cli(capsys, "table", "--group", spec)
    assert code == 2 and out == ""
    assert "cannot read the group spec as JSON: maximum recursion depth" in err


def test_a_corpus_nested_too_deeply_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "min-sum", "--corpus",
                             _deep_array(tmp_path))
    assert code == 2 and out == ""
    assert "cannot read the corpus as JSON: maximum recursion depth" in err


NOT_UTF8 = b'{"a": "\xff\xfe"}'
LONG_INTEGER = b'{"a": ' + b"1" * 5000 + b"}"  # past Python's 4300-digit limit


@pytest.mark.parametrize("data", [NOT_UTF8, LONG_INTEGER], ids=["not-utf8", "long-int"])
@pytest.mark.parametrize("command", ["bound", "global", "replay"])
def test_an_unreadable_input_document_exits_2(tmp_path, capsys, command, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error: cannot read input document: ")


@pytest.mark.parametrize("data", [NOT_UTF8, LONG_INTEGER], ids=["not-utf8", "long-int"])
def test_an_unreadable_corpus_exits_2(tmp_path, capsys, data):
    path = tmp_path / "corpus.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "verify", "--suite", "min-sum", "--corpus", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read the corpus as JSON: ")


def test_a_group_spec_with_a_long_integer_exits_2(capsys):
    code, out, err = run_cli(capsys, "table", "--group",
                             '{"kind": "cyclic", "n": ' + "1" * 5000 + "}")
    assert code == 2 and out == ""
    assert "cannot read the group spec as JSON: Exceeds the limit" in err


def _nested_c2(levels: int) -> str:
    """C2 inside one-factor direct products, as JSON text: too deep for
    `json.dumps` to write under a test runner's stack."""
    return ('{"kind": "direct_product", "factors": [' * levels + '{"kind": "cyclic", "n": 2}'
            + "]}" * levels)


def test_a_deeply_nested_model_group_exits_2(tmp_path):
    """In a fresh interpreter, whose stack is shallow enough for `json` to
    decode 492 levels, as a test runner's is not."""
    text = json.dumps({**BOUND_DOC, "model": {"group": None, "chain": [[1]], "p": 2}})
    path = tmp_path / "doc.json"
    path.write_text(text.replace("null", _nested_c2(492)))
    proc = subprocess.run([sys.executable, "-m", "tensorcond.cli", "bound", "--input", str(path)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == \
        "input error: model.group: group spec nests direct products more than 32 deep\n"


def test_group_specs_nest_at_most_32_deep(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", _nested_c2(32))
    assert code == 0 and out.startswith("C2: order 2")
    for levels in (33, 400):
        code, out, err = run_cli(capsys, "table", "--group", _nested_c2(levels))
        assert code == 2 and out == ""
        assert err == "input error: --group: group spec nests direct products more than 32 deep\n"


def test_a_product_of_many_factors_is_refused_at_the_cap(capsys):
    """The running order stops at the first factor past the cap, so it is
    never printed with more digits than Python converts."""
    spec = {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2000}] * 1500}
    code, out, err = run_cli(capsys, "table", "--group", json.dumps(spec))
    assert code == 2 and out == ""
    assert err == "input error: --group: order 4000000 exceeds cap 2048\n"


def test_a_global_document_builds_one_table_per_group(tmp_path, capsys, monkeypatch):
    """Three full records on one model group share one group and so one
    character table; each record still gets its own answer."""
    from tensorcond import chars
    doc = make_global_doc()
    doc["primes"] = [dict(doc["primes"][1], p=p) for p in (2, 3, 5)]
    path = _write(tmp_path, doc)
    builds = []
    real = chars._lift_table

    def counting_lift(*args):
        builds.append(args[0])
        return real(*args)
    monkeypatch.setattr(chars, "_lift_table", counting_lift)
    code, out, _ = run_cli(capsys, "global", "--input", path, "--format", "machine")
    assert code == 0 and len(builds) == 1
    assert [rec["p"] for rec in json.loads(out)["per_prime"]] == [2, 3, 5]


def test_a_global_document_builds_one_model_per_model_object(tmp_path, capsys, monkeypatch):
    """A reader builds one model, a chain, per model object: two records
    that name one model share it, and the global suite's items, 208 full
    records in all, use the corpus's own chains and build none."""
    from tensorcond.corpus import CorpusChain, load_corpus
    from tensorcond.suites import run_suite_range
    built = []
    real = CorpusChain.__init__

    def counting_init(self, *args):
        built.append(args)
        real(self, *args)
    monkeypatch.setattr(CorpusChain, "__init__", counting_init)
    doc = make_global_doc()
    doc["primes"] = [dict(doc["primes"][1], p=p) for p in (2, 5)]
    assert run_cli(capsys, "global", "--input", _write(tmp_path, doc))[0] == 0
    assert len(built) == 1
    corpus = load_corpus()
    built.clear()
    assert run_cli(capsys, "verify", "--suite", "global")[0] == 0
    # the corpus's chains, built as it loads, and no other
    assert len(built) == len(corpus.all_chains())
    # a model object names a corpus chain, which the other suites use
    built.clear()
    assert all(item["ok"] for item in run_suite_range("global", corpus, 0, 100))
    assert built == []


# parameters far above the order cap, yet short enough for `json` to read:
# each is refused before an order (or p(p - 1)) is formed from it, and no
# message repeats it
HUGE_2000, HUGE_2500 = int("1" * 2000), int("1" * 2500)
HUGE_HEISENBERG = {"kind": "heisenberg", "p": HUGE_2000}


def _refused_naming(code, out, err, name):
    """Exit 2 with one stderr line that names the field or flag."""
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(("input error: ", "error: ")), err
    assert name in lines[0] and "1" * 50 not in lines[0], err


@pytest.mark.parametrize("spec", [
    HUGE_HEISENBERG,
    {"kind": "affine", "p": HUGE_2500},
    {"kind": "elementary_abelian", "p": HUGE_2000, "k": 3},
], ids=["heisenberg", "affine", "elementary_abelian"])
def test_table_refuses_a_huge_group_parameter(capsys, spec):
    _refused_naming(*run_cli(capsys, "table", "--group", json.dumps(spec)), "--group: 'p'")


def test_bound_refuses_a_huge_model_group_parameter(tmp_path, capsys):
    doc = dict(BOUND_DOC, model=dict(BOUND_DOC["model"], group=HUGE_HEISENBERG))
    _refused_naming(*run_cli(capsys, "bound", "--input", _write(tmp_path, doc)),
                    "model.group: 'p'")


def test_verify_refuses_a_corpus_group_with_a_huge_parameter(tmp_path, capsys):
    from importlib import resources
    doc = json.loads(resources.files("tensorcond").joinpath("data/corpus.json").read_text())
    doc["entries"] = [dict(e, group=HUGE_HEISENBERG) for e in doc["entries"]
                      if e["name"] == "c4"]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    _refused_naming(*run_cli(capsys, "verify", "--suite", "min-sum", "--seeds", "1",
                             "--corpus", str(path)),
                    "entry 'c4': entries[0].group: 'p'")


def test_sharpness_refuses_a_huge_p(capsys):
    _refused_naming(*run_cli(capsys, "sharpness", "--p", str(HUGE_2500)), "--p: p ")


def test_replay_refuses_a_sharpness_document_with_a_huge_p(tmp_path, capsys):
    doc = {"suite": "sharpness", "p": HUGE_2500, "a": 2}
    _refused_naming(*run_cli(capsys, "replay", "--input", _write(tmp_path, doc)),
                    "cannot replay document: p ")


def _one_short_line(code, out, err, name, limit=200):
    """Exit 2 with one stderr line of under `limit` characters naming the
    field or flag: no long value is echoed."""
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < limit and name in lines[0], err


LONG_TEXT, LONG_LIST = "x" * 5000, list(range(3000))


def _with_long_value(tmp_path, case) -> list:
    """The argv of a run that refuses a long value, for each case of
    `test_a_refused_value_is_shown_at_bounded_length`."""
    glob, corpus = make_global_doc(), {"version": 1, "entries": [
        {"name": "c4", "group": {"kind": "cyclic", "n": 4}, "chains": [
            {"name": "std", "subgroups": [[2]], "model_p": 2}]}]}
    if case == "table-kind":
        return ["table", "--group", json.dumps({"kind": LONG_TEXT})]
    if case == "table-param":
        return ["table", "--group", json.dumps({"kind": "cyclic", "n": LONG_TEXT})]
    if case == "verify-suite":
        return ["verify", "--suite", LONG_TEXT]
    if case == "verify-seeds":
        return ["verify", "--suite", "min-sum", "--seeds", "-" + "9" * 4000]
    if case == "replay-suite":
        return ["replay", "--input", _write(tmp_path, {"suite": LONG_TEXT})]
    if case.startswith("corpus-"):
        if case == "corpus-version":
            corpus["version"] = LONG_TEXT
        else:
            corpus["entries"][0]["name"] = LONG_LIST
        return ["verify", "--suite", "min-sum", "--corpus", _write(tmp_path, corpus)]
    if case == "global-dimA-list":
        glob["dimA"] = LONG_LIST
    elif case == "global-dimA-text":
        glob["dimA"] = LONG_TEXT
    elif case == "global-mode":
        glob["primes"][0]["mode"] = LONG_TEXT
    else:
        glob["primes"][1]["model"]["chain"] = LONG_LIST
    return ["global", "--input", _write(tmp_path, glob)]


LONG_VALUE_CASES = [
    ("global-dimA-list", "'dimA' must be an integer, not <list of 3000 items>"),
    ("global-dimA-text", "'dimA' must be an integer, not <string of 5000 characters>"),
    ("global-mode", "'primes[0].mode'"),
    ("global-chain", "'primes[1].model.chain'"),
    ("table-kind", "--group: unknown group kind <string of 5000 characters>"),
    ("table-param", "--group: 'n'"),
    ("verify-suite", "unknown suite <string of 5000 characters>"),
    ("verify-seeds", "--seeds must be nonnegative, not -<4000 digits>"),
    ("replay-suite", "'suite'"),
    ("corpus-version", "unknown corpus version <string of 5000 characters>"),
    ("corpus-name", "'entries[0].name'"),
]


@pytest.mark.parametrize("case, name", LONG_VALUE_CASES, ids=[c for c, _ in LONG_VALUE_CASES])
def test_a_refused_value_is_shown_at_bounded_length(tmp_path, capsys, case, name):
    """A document or flag value of any size is shown through
    `errors.shown`: one stderr line under 400 characters names the field."""
    _one_short_line(*run_cli(capsys, *_with_long_value(tmp_path, case)), name, limit=400)


def test_document_integers_beyond_the_size_policy_are_refused(tmp_path, capsys):
    """Integers longer than MAX_INT_BITS bits are refused where they are
    read, before any result too long to print is formed from them."""
    from tensorcond.errors import MAX_INT_BITS
    doc = _summary_doc(3)
    doc["dimA"] = 10 ** 4200
    doc["primes"][0]["vB"] = 10 ** 200
    _one_short_line(*run_cli(capsys, "global", "--input", _write(tmp_path, doc)), "dimA")
    doc = _tame_bound_doc(5)
    for part in "AB":
        doc[part]["sigma"] = [2 * 10 ** 2200, 0, 0, 0]
    _one_short_line(*run_cli(capsys, "bound", "--input", _write(tmp_path, doc)), "A.sigma")
    # the first oversized entry is named, after entries within the policy
    doc = _tame_bound_doc(5)
    doc["A"]["sigma"] = [1, 0, 2 ** MAX_INT_BITS, 0]
    _one_short_line(*run_cli(capsys, "bound", "--input", _write(tmp_path, doc)), "A.sigma[2]")
    # the largest integer the policy admits is read as any other
    doc = _summary_doc(3)
    doc["primes"][0]["vA"] = doc["primes"][0]["degA"] = 2 ** MAX_INT_BITS - 1
    assert "bits" not in run_cli(capsys, "global", "--input", _write(tmp_path, doc))[2]


def test_min_sum_rationals_beyond_the_size_policy_are_refused(tmp_path, capsys):
    """A min-sum rational, as a JSON integer or as a "p" or "p/q" string,
    has a numerator and a denominator of at most MAX_INT_BITS bits; a longer
    one is refused with its length, not echoed, and nothing else is read as
    a rational.  The sequences are held to MAX_SUM_BITS bits together, as
    a sum's denominator is up to the lcm of its terms'."""
    from tensorcond.errors import MAX_INT_BITS
    from tensorcond.suites import MAX_SUM_BITS
    doc = {"suite": "min-sum", "M": "2", "a": ["2", "0"], "b": ["4", "2"], "d": ["1", "2"]}
    for a0 in ["1" * 5000, "9" * 4000 + "/7", "1/" + "3" * 100, 10 ** 2200, 2 ** MAX_INT_BITS]:
        bad = dict(doc, a=[a0, "0"])
        _one_short_line(*run_cli(capsys, "replay", "--input", _write(tmp_path, bad)), "a[0]")
    for a0 in ["1e5", "1.5", "3/0", "x" * 5000]:
        bad = dict(doc, a=[a0, "0"])
        code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, bad))
        _one_short_line(code, out, err, "a[0]")
        assert "exact rational" in err
    # the largest numerator and denominator the policy admits, and leading zeros
    top = str(2 ** MAX_INT_BITS - 1)
    for a0 in [top, f"{top}/{top}", "0" * 5000 + "4", " -0/0001 "]:
        code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, dict(doc, a=[a0, "0"])))
        assert "bits" not in err and "exact rational" not in err, err
    # 80 distinct weights of 256 bits: lhs would have about 6000 digits
    n = 80
    long_d = dict(doc, M="2", a=["2"] * n, b=["2"] * n, d=[str(2 ** 255 + i) for i in range(n)])
    code, out, err = run_cli(capsys, "replay", "--input", _write(tmp_path, long_d))
    _one_short_line(code, out, err, "'d'")
    assert f"more than {MAX_SUM_BITS}" in err
    # 16 of them fit: both sides print
    fit = MAX_SUM_BITS // (2 * MAX_INT_BITS)
    code, out, err = run_cli(capsys, "replay", "--input", _write(
        tmp_path, dict(long_d, a=["2"] * fit, b=["2"] * fit, d=long_d["d"][:fit])))
    assert code == 0 and err == "" and json.loads(out)["ok"], err


def test_a_refused_integer_is_shown_as_its_digit_count(tmp_path, capsys):
    minus_ones = "-" + "1" * 4000
    _one_short_line(*run_cli(capsys, "table", "--group",
                             '{"kind": "cyclic", "n": %s}' % minus_ones), "'n'")
    _one_short_line(*run_cli(capsys, "sharpness", "--p", "3", "--a", "3" * 4000), "--a")
    # a valid unit mod 13 is refused by its size alone, before it is validated
    _one_short_line(*run_cli(capsys, "sharpness", "--p", "13", "--a", "1" + "0" * 4000),
                    "--a")
    doc = dict(_tame_bound_doc(2), model={"group": {"kind": "cyclic", "n": 4},
                                          "chain": [[int("7" * 4000)]], "p": 2})
    _one_short_line(*run_cli(capsys, "bound", "--input", _write(tmp_path, doc)),
                    "model.chain")
    assert "-<4000 digits>" in run_cli(capsys, "sharpness", "--p", minus_ones)[2]
