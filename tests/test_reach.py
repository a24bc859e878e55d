"""Every function in `src/tensorcond` is reached by some command, or is on
a short allow-list with its reason.

The calls below run in process under `sys.setprofile`, which records the
code object of every Python call.  Each `def` that `ast` finds in the
package's modules is matched, by module and qualified name, against the
code objects reached.  The unreached set must *equal* the allow-list: a
function that no command runs fails the test until it is deleted, moved to
`tests/oracles.py` or listed here with its reason, and an entry that a
command comes to reach, or whose function is deleted, must leave the list.

The imports are held the same way: no module imports another module's
private name, only a corpus chain and the `table` command build a
character table, and a fresh interpreter that imports one module, or loads
the corpus and its tables, compiles only the modules named here.  So are
the exception types: only `errors` defines one, and it defines five.
"""

import ast
import builtins
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorcond
from tensorcond.cli import main
from tensorcond.corpus import load_corpus
from tensorcond.suites import SIDES, SUITES

from test_cli import BOUND_DOC, make_global_doc, subprocess_env

SRC = Path(tensorcond.__file__).resolve().parent

Q8_BY_C3 = json.dumps({"kind": "direct_product",
                       "factors": [{"kind": "quaternion8"}, {"kind": "cyclic", "n": 3}]})

ALLOWED = {
    # run while the package is imported, before any command
    "suites._gen_pair": "builds suite generators for SUITES at import",
    "suites._gen_gap": "builds suite generators for SUITES at import",
    "suites._gen_wd": "builds suite generators for SUITES at import",
    # run only in a forked `verify --workers` process, which the profile
    # of this one does not see
    "cli._share_worker": "the forked worker's body",
    "cli._pool_init": "called by the forked worker; perfbench/layertrace.py wraps it in a span",
    "cli._pool_eval": "called by the forked worker; perfbench/layertrace.py wraps it in a span",
    "cyclo._coefficient": "canonical Fraction coefficients; no command makes a non-int one",
    "chars._rng": "seeds the stall switch's combination, which no corpus table reaches",
    # timed by perfbench/layertrace.py until its layer metrics are restated
    "cyclo.CycloNum.from_rational": "_cyclo_us: the rational operands",
    "cyclo.CycloNum.promote": "_cyclo_us: v.promote(N) on table values",
    "cyclo.CycloNum._pair": "_cyclo_us: the common conductor of a timed add or mul",
    "cyclo.CycloNum.is_rational": "_cyclo_us: the rational shortcut of a timed mul",
    "cyclo.CycloNum.scale": "_cyclo_us: a timed mul by a rational",
    "cyclo.CycloNum.__add__": "_cyclo_us: the timed add (__radd__ is the same function)",
    "cyclo.CycloNum.__mul__": "_cyclo_us: the timed mul (__rmul__ is the same function)",
    "chars.Character.scale": "layers(): tau.scale(0)",
    "chars.CharacterTable.multiplicities": "layers(): T.multiplicities(chi)",
    "weildeligne.tensor": "layers(): tensor(A.rho, A.rho)",
    "weildeligne.AbVarDatum.rho": "layers(): tensor(A.rho, A.rho)",
    # value equality: without it == is identity, and a test comparing two
    # equal values would pass or fail for the wrong reason
    "cyclo.CycloNum.__eq__": "value equality",
    "chars.ClassFunction.__eq__": "value equality",
    "chars.Character.__eq__": "value equality",
    "chars.ClassFunction.values": "the `CycloNum`s that __eq__ and __repr__ compare",
    "weildeligne.WDRep.__eq__": "value equality",
    "groups.Subgroup.__eq__": "value equality",
    "groups.Subgroup.__hash__": "hash consistent with __eq__",
    # what an assertion that fails prints
    "cyclo.CycloNum.__repr__": "what a failing assertion prints",
    "chars.ClassFunction.__repr__": "what a failing assertion prints",
    "weildeligne.WDRep.__repr__": "what a failing assertion prints",
    "groups.FiniteGroup.__repr__": "what a failing assertion prints",
    "groups.Subgroup.__repr__": "what a failing assertion prints",
    "groups.Filtration.__repr__": "what a failing assertion prints",
    # public checked constructors, and the Jacobian model that realisable
    # chains are to use
    "groups.FiniteGroup.__init__": "a group from a hand-written table, checked",
    "groups.Subgroup.__init__": "a subgroup from a given set, certified closed",
    "jacobians.jacobian_inertia_model": "J_alpha as a one-block WDRep, for realisable models",
}


def _defined() -> set:
    """(module, qualified name) of every def in the package."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    out.add((module, name))
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _calls(tmp_path) -> list:
    """The command lines to trace, with the exit code each must give."""
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    # the global document has one full and one summary record
    bound, glob = write("bound.json", BOUND_DOC), write("global.json", make_global_doc())
    calls = []
    for fmt in ("human", "machine"):
        calls += [(argv + ["--format", fmt], 0) for argv in (
            ["verify", "--suite", "all", "--seeds", "29"],
            ["table", "--group", Q8_BY_C3],
            ["bound", "--input", bound],
            ["global", "--input", glob],
            ["sharpness", "--max-p", "7"])]
    calls.append((["verify", "--suite", "semistable", "--seeds", "9", "--workers", "2"], 0))
    # a passing item's output carries no input document, so each suite's
    # replay document is its generator's item 0, as a counterexample holds it
    corpus = load_corpus()
    for name, suite in SUITES.items():
        doc, _ = suite.generate(corpus, 0, 0)
        calls.append((["replay", "--input", write(f"replay-{name}.json",
                                                  {"suite": name, **doc})], 0))
    calls += [
        (["verify", "--suite", "all", "--bogus"], 2),           # _Parser.error
        (["verify", "--suite", "min-sum", "--workers", "0"], 2),  # errors.shown
    ]
    return calls


def _clear_caches():
    """Empty the package's function caches (`lru_cache`, `functools.cache`),
    so that a body whose cache an earlier test filled runs again."""
    for name, module in list(sys.modules.items()):
        if name.startswith("tensorcond."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _profiled(run) -> set:
    """(module, qualified name) of every package function that `run()` calls."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(path.stem, c.co_qualname) for c in codes
            if (path := Path(c.co_filename).resolve()).parent == SRC}


def _reached(calls, capsys) -> set:
    _clear_caches()

    def run():
        for argv, want in calls:
            code = main(argv)
            capsys.readouterr()
            assert code == want, argv
    return _profiled(run)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_every_function_is_reached_or_allowed(tmp_path, capsys, monkeypatch):
    # two usable CPUs, so that `--workers 2` forks on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reached = _reached(_calls(tmp_path), capsys)
    unreached = {f"{m}.{q}" for m, q in _defined() - reached}
    assert unreached == set(ALLOWED), {
        "reached by no command and not allowed": sorted(unreached - set(ALLOWED)),
        "allowed but reached, or no longer defined": sorted(set(ALLOWED) - unreached)}


# -- the two sides of each identity suite -----------------------------------------
#
# An identity suite compares two computations of one quantity, and a function
# that both reach could make the identity true by construction.  The sides
# are `suites.SIDES`, the registry that each identity's check evaluates, so
# the profile covers what `verify` and `replay` run.  For items 0-19 each side
# runs under the profile on the input that the entry's `parse` read, with
# both sides run once before, so that table construction and the caches it
# fills are shared inputs, not shared paths.  The per-input caches (a chain's
# `kernel_rows`, a pair's product and degree correction, the factors' `form`)
# are dropped before each side, so that the side that reads them reaches
# them.  Code nested in a function counts as that function.

CLEBSCH_GORDAN = ("the blocks of sp(n) x sp(m), which both tensor products expand: "
                  "a fact of sp, not of either side")

SHARED = {
    "step-identity": {
        "corpus.CorpusChain.fixed": "dim t^{G_i} of each factor, which both arrangements read "
                                    "as an input: the identity is about the product",
        "corpus.CorpusChain.kernel_rows": "the chain's per-level f_i(G_l) that "
                                          "`CorpusChain.fixed` dots each factor with",
        "chars.CharacterTable.fixed_dims": "the table's f_i(H) that `kernel_rows` reads per level",
        "chars.CharacterTable.own": "`CorpusChain.fixed`'s check that a factor is a Character "
                                    "of the chain's table",
        "chars.Character.dim": "|t1| and |t2|, which both arrangements read as an input",
    },
    "semistable": {"weildeligne.clebsch_gordan": CLEBSCH_GORDAN},
    "tame-identity": {"weildeligne.clebsch_gordan": CLEBSCH_GORDAN},
    "sharpness": {},
}


def _side(run) -> set:
    """The package functions `run()` calls, nested code named by its function."""
    return {f"{m}.{q.split('.<locals>.')[0]}" for m, q in _profiled(run)}


def _drop_caches(value):
    """Drop the per-input caches that `value`, a side's argument, holds."""
    from tensorcond.chars import Character
    from tensorcond.corpus import CorpusChain
    from tensorcond.weildeligne import LocalPair, WDRep
    if isinstance(value, (list, tuple)):
        for x in value:
            _drop_caches(x)
    elif isinstance(value, LocalPair):
        value.__dict__.pop("product", None)
        value.__dict__.pop("degree_correction", None)
        _drop_caches([value.model, value.A, value.B])
    elif isinstance(value, WDRep):
        _drop_caches([sigma for sigma, _ in value.blocks])
    elif isinstance(value, Character):
        value.__dict__.pop("form", None)
    elif isinstance(value, CorpusChain):
        value.__dict__.pop("kernel_rows", None)


def _shared(name) -> set:
    """The package functions that both sides of some item 0-19 reach."""
    corpus = load_corpus()
    parse, left, right = SIDES[name]
    shared = set()
    for i in range(20):
        doc, _ = SUITES[name].generate(corpus, 0, i)
        args = parse(doc, corpus.reader)
        left(*args), right(*args)

        def fresh(side):
            _drop_caches(args)
            return _side(lambda: side(*args))
        shared |= fresh(left) & fresh(right)
    return shared


def test_every_identity_suite_has_its_sides_in_the_registry():
    assert set(SHARED) == set(SIDES) <= set(SUITES)
    assert all(reason for reasons in SHARED.values() for reason in reasons.values())


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
@pytest.mark.parametrize("name", sorted(SHARED))
def test_the_sides_of_an_identity_share_only_what_is_allowed(name):
    assert _shared(name) == set(SHARED[name])


def _through_the_kernel(model, blocks):
    """The class-average blocks, decomposed and read as a `WDRep`."""
    from tensorcond.weildeligne import WDRep
    T = model.table
    return WDRep(model, [(T.assemble(T.multiplicities(s)), n) for s, n in blocks])


def _route(monkeypatch, name):
    """Route one side of an identity through a function of the other side,
    with the same values: the suite still passes, since the identity is then
    one computation, and only the profile of the sides shows it.  Returns
    the function that both sides then reach."""
    from tensorcond import suites, weildeligne as wd
    from tensorcond.chars import Character
    from tensorcond.corpus import ChainReader
    from tensorcond.jacobians import swan_jacobian
    if name == "semistable":
        monkeypatch.setattr(wd, "class_artin", lambda model, blocks:
                            _through_the_kernel(model, blocks).artin_conductor())
        return "weildeligne.WDRep.artin_conductor"
    if name == "tame-identity":
        monkeypatch.setattr(wd, "class_degree", lambda model, blocks:
                            _through_the_kernel(model, blocks).degree())
        return "weildeligne.WDRep.degree"
    if name == "step-identity":
        # the class-by-class product by the structure constants
        monkeypatch.setattr(Character, "__mul__", lambda self, other: self.table.assemble(
            self.table.tensor_mults(self.mults, other.mults)), raising=False)
        return "chars.CharacterTable.tensor_mults"
    # each chain rebuilt with the resultant's count of translation levels
    parse, left, right = SIDES["sharpness"]

    def by_resultant(p, alpha):
        return ChainReader()({"group": {"kind": "affine", "p": p}, "model_p": p,
                              "subgroups": [[1]] * swan_jacobian(p, alpha)}, "the model")
    monkeypatch.setitem(suites.SIDES, "sharpness", (parse, left, lambda models: right(
        [(alpha, by_resultant(chain.model_p, alpha)) for alpha, chain in models])))
    return "jacobians.swan_jacobian"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
@pytest.mark.parametrize("name", sorted(SHARED))
def test_a_side_routed_through_the_other_is_seen(monkeypatch, name):
    from tensorcond.suites import run_suite_range
    reached = _route(monkeypatch, name)
    assert all(item["ok"] for item in run_suite_range(name, load_corpus(), 0, 20))
    assert reached in _shared(name) - set(SHARED[name])


# -- imports -----------------------------------------------------------------------


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.stem}: from {'.' * node.level}{node.module or ''} "
                            f"import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_only_a_chain_and_the_table_command_call_character_table():
    """A corpus chain holds its group's table (`CorpusChain.table`), so code
    that has a chain reads the table from it.  `character_table` is called
    there and by the `table` command, which has a group and no chain, and
    nowhere else; `filtration` and `suites` import neither it nor
    `FiniteGroup`."""
    callers, imported = set(), set()
    for path in sorted(SRC.glob("*.py")):
        def visit(node, qualname):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{qualname}.{child.name}")
                    continue
                if isinstance(child, ast.Call) and "character_table" in (
                        getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                    callers.add(qualname)
                elif isinstance(child, ast.ImportFrom):
                    imported.update((path.stem, alias.name) for alias in child.names)
                visit(child, qualname)
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == {"corpus.CorpusChain.table", "cli._run_table"}
    assert {(m, n) for m in ("filtration", "suites")
            for n in ("character_table", "FiniteGroup")} & imported == set()


def test_only_the_cli_writes_json():
    """JSON is written only as output: no module but `cli` calls `json.dumps`
    or `json.dump`, so nothing re-encodes a document it has decoded (which
    needs more stack than decoding it took) to tell its values apart."""
    writers = set()
    for path in sorted(SRC.glob("*.py")):
        def visit(node, qualname):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{qualname}.{child.name}")
                    continue
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                        and getattr(child.func.value, "id", None) == "json" \
                        and child.func.attr in ("dumps", "dump") \
                        or isinstance(child, ast.ImportFrom) and child.module == "json" \
                        and any(alias.name in ("dumps", "dump") for alias in child.names):
                    writers.add(qualname)
                visit(child, qualname)
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert {w for w in writers if w.split(".")[0] != "cli"} == set()
    # the guard sees the output the cli writes
    assert {"cli._run_verify", "cli._run_table"} <= writers


def _resolve(node, namespace):
    """The object a class base names (`Name` or dotted `Attribute`), or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def test_only_errors_defines_exception_classes():
    """A refusal's kind is told by its message, never by its class, so the
    package keeps one exception type per way a caller handles it: the base,
    malformed input, a broken precondition, a bad corpus file and a table
    defect.  A class is an exception type if one of its bases is."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "tensorcond" if path.stem == "__init__" else f"tensorcond.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, type) and issubclass(base, BaseException)
                    for base in (_resolve(b, vars(module)) for b in node.bases)):
                found.add((path.stem, node.name))
    assert found == {("errors", name) for name in (
        "TensorCondError", "InputError", "PreconditionError", "CorpusError",
        "TableComputationError")}


def _cache_decorator(node) -> bool:
    """Whether a decorator is `lru_cache` or `cache` of `functools`, called
    or not, imported by name or read off the module."""
    node = node.func if isinstance(node, ast.Call) else node
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "functools" \
            and node.attr in ("lru_cache", "cache")
    return isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")


def test_module_caches_are_keyed_by_integers_only():
    """A function cache keeps every argument it was called with alive for
    the life of the process, so it may decorate only a function of no
    parameters, or of parameters all annotated `int`: a cache keyed by a
    table, a group or a corpus would keep it after its owner is dropped
    (a table holds what it derives from itself instead)."""
    cached, keyed = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(map(_cache_decorator, node.decorator_list)):
                cached.add(f"{path.stem}.{node.name}")
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                params += [p for p in (a.vararg, a.kwarg) if p]
                keyed += [f"{path.stem}.{node.name}({p.arg})" for p in params
                          if not (isinstance(p.annotation, ast.Name) and p.annotation.id == "int")]
    assert keyed == []
    # the guard sees each form of decorator the package uses
    assert {"chars._primitive_root_of_unity", "cyclo.cyclotomic_coeffs", "cyclo.euler_phi",
            "cyclo._reduction_rows", "cli._parser"} <= cached


def test_no_class_derives_attributes_in_a_getattr_hook():
    """A fact derived when first read and kept is a `functools.cached_property`,
    never a `__getattr__` that computes what a missing attribute names."""
    hooks = [f"{path.stem}.{cls.name}.{node.name}"
             for path in sorted(SRC.glob("*.py"))
             for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(cls, ast.ClassDef)
             for node in cls.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "__getattr__"]
    assert hooks == []


SET_UP = ("import tensorcond.chars, tensorcond.corpus\n"
          "for e in tensorcond.corpus.load_corpus().entries:\n"
          "    tensorcond.chars.character_table(e.group)\n")


@pytest.mark.parametrize("script, modules", [
    ("import tensorcond", []),
    ("import tensorcond.groups", ["errors", "groups"]),
    # a corpus chain holds its table, but no filtration or Weil-Deligne code
    ("import tensorcond.corpus", ["chars", "corpus", "cyclo", "errors", "groups"]),
    # the benchmark's set-up loads no Weil-Deligne code
    (SET_UP, ["chars", "corpus", "cyclo", "errors", "groups"]),
], ids=["root", "groups", "corpus", "set-up"])
def test_a_fresh_interpreter_loads_only_the_modules_it_imports(script, modules):
    script += ("\nimport json, sys\n"
               "print(json.dumps(sorted(m.partition('.')[2] for m in sys.modules\n"
               "                        if m.startswith('tensorcond.'))))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == modules
