"""Malformed `bound`, `global` and `replay` documents, and corpus files,
exit 2 with a message; a mutated document of any suite replays to 0, 1 or 2.

Each example takes a valid document on a small group (order at most 9),
deletes one field or replaces one value (at any depth, the whole document
included) with one that no field accepts, and runs the command in process:
it must return 2, print nothing on stdout and one `input error:` or
`error:` line on stderr, and raise nothing.  Documents are passed as text
on stdin, and as raw bytes in a file given with `--input PATH`: bytes that
are not UTF-8, integers longer than Python converts, and nesting deeper
than `json` decodes or a group spec may have, and group parameters of
1000 to 4300 digits.  A last property gives every subcommand a valid input
with one numeric field or flag replaced by an integer of up to 5000 digits:
it must exit 0, 1 or 2 with at most one line on stderr and no traceback.
Documents holding an array just shallower than `json` decodes run in fresh
interpreters instead, at the default recursion limit, over a fixed range.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from tensorcond.cli import main
from tensorcond.corpus import load_corpus
from tensorcond.errors import is_int
from tensorcond.suites import SUITES

from test_cli import BOUND_DOC, make_global_doc, subprocess_env

# values no field accepts: not an integer, not a vector, not a chain
BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3), st.just({}), st.just([[99]]), st.just([-1]),
    st.just([None]), st.just({"kind": "cyclic"}))


def _paths(doc, prefix=()):
    """Every place in a JSON document: the root, and each key and index."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, delete, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run(command, doc):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", "-", "--format", "machine"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _run_file(command, data: bytes):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", path, "--format", "machine"])
    return code, out.getvalue(), err.getvalue()


def _replay_documents():
    corpus = load_corpus()
    docs = []
    for name, index in (("conductor-bound", 0), ("semistable", 1), ("global", 0)):
        inputs, _ = SUITES[name].generate(corpus, 0, index)
        docs.append({"suite": name, **inputs})
    return docs


BASES = {"bound": [BOUND_DOC], "global": [make_global_doc()],
         "replay": _replay_documents()}

# the seed-0 item 0 of every suite, as a replay document
SUITE_DOCUMENTS = [{"suite": name, **suite.generate(load_corpus(), 0, 0)[0]}
                   for name, suite in SUITES.items()]


@st.composite
def malformed(draw, command, bases=BASES):
    doc = draw(st.sampled_from(bases[command]))
    path = draw(st.sampled_from(list(_paths(doc))))
    return _mutated(doc, path, draw(st.booleans()), draw(BAD_VALUES))


_RAW = "\x00raw"


def _with_raw(doc, path, text: str) -> bytes:
    """The document as UTF-8 JSON, with the value at path written as text."""
    return json.dumps(_mutated(doc, path, False, _RAW)).replace(json.dumps(_RAW), text).encode()


def _nested_groups(levels: int) -> str:
    return ('{"kind": "direct_product", "factors": [' * levels + '{"kind": "quaternion8"}'
            + "]}" * levels)


@st.composite
def unreadable(draw, command):
    """A base document's bytes with a byte that is never UTF-8 inserted, or
    one value replaced by a run of more than 4300 digits, by arrays nested
    past `json`'s depth, by a group spec nested past 32 direct products, or
    by a group spec whose p has 1000 to 4300 digits."""
    doc = draw(st.sampled_from(BASES[command]))
    kind = draw(st.sampled_from(["not-utf8", "long-int", "deep-array", "deep-group",
                                 "huge-param"]))
    if kind == "not-utf8":
        data = json.dumps(doc).encode()
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + draw(st.binary(max_size=8)) + data[at:]
    if kind in ("deep-group", "huge-param"):
        path = draw(st.sampled_from([p for p in _paths(doc) if p and p[-1] == "group"]))
        if kind == "deep-group":
            return _with_raw(doc, path, _nested_groups(draw(st.integers(33, 400))))
        group = draw(st.sampled_from(["heisenberg", "affine", "elementary_abelian"]))
        p = draw(st.sampled_from("123456789")) * draw(st.integers(1000, 4300))
        k = ', "k": 3' if group == "elementary_abelian" else ""
        return _with_raw(doc, path, f'{{"kind": "{group}", "p": {p}{k}}}')
    path = draw(st.sampled_from(list(_paths(doc))))
    if kind == "long-int":
        text = draw(st.sampled_from(["", "-"])) + \
            draw(st.sampled_from("123456789")) * draw(st.integers(4301, 9000))
    else:
        depth = draw(st.integers(1000, 5000))
        text = "[" * depth + "]" * depth
    return _with_raw(doc, path, text)


def _assert_refused(command, doc):
    _assert_exit_2(*_run(command, doc), doc)


def _assert_exit_2(code, out, err, doc):
    assert code == 2, (doc, out, err)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(("input error: ", "error: ")), err


def test_the_base_documents_are_valid():
    for command, docs in BASES.items():
        for doc in docs:
            assert _run(command, doc)[0] == 0, (command, doc)


@settings(max_examples=150, deadline=None)
@given(malformed("bound"))
def test_malformed_bound_documents_exit_2(doc):
    _assert_refused("bound", doc)


@settings(max_examples=150, deadline=None)
@given(malformed("global"))
def test_malformed_global_documents_exit_2(doc):
    _assert_refused("global", doc)


@settings(max_examples=150, deadline=None)
@given(malformed("replay"))
def test_malformed_replay_documents_exit_2(doc):
    _assert_refused("replay", doc)


@settings(max_examples=300, deadline=None)
@given(malformed("replay", {"replay": SUITE_DOCUMENTS}))
def test_mutated_suite_documents_replay_without_raising(doc):
    """Deleting an optional field (`chain.model_p`, `level`) can leave a
    valid document, so 0 and 1 are allowed besides 2."""
    code, out, err = _run("replay", doc)
    assert code in (0, 1, 2), (doc, out, err)
    if code == 2:
        _assert_exit_2(code, out, err, doc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BASES)).flatmap(
    lambda command: st.tuples(st.just(command), unreadable(command))))
def test_unreadable_document_files_exit_2(case):
    command, data = case
    _assert_exit_2(*_run_file(command, data), data[:200])


def _small_corpus():
    """The packaged corpus cut to its C4 and C5 entries."""
    doc = json.loads(resources.files("tensorcond").joinpath("data/corpus.json").read_text())
    doc["entries"] = [e for e in doc["entries"] if e["name"] in ("c4", "c5")]
    return doc


CORPUS = _small_corpus()


def _keeps_the_corpus_valid(path, delete, value):
    """A chain's model_p is optional, and a name may be any nonempty string
    without '/' that no other entry, or other chain of its entry, has."""
    key = path[-1] if path else None
    if key == "name" and not delete and isinstance(value, str):
        level = CORPUS
        for k in path[:-2]:
            level = level[k]
        return value != "" and "/" not in value and all(
            other["name"] != value for i, other in enumerate(level) if i != path[-2])
    return key == "model_p" and (delete or value is None)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_paths(CORPUS))), st.booleans(), BAD_VALUES)
def test_malformed_corpus_files_exit_2(path, delete, value):
    doc = _mutated(CORPUS, path, delete, value)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.json")
        with open(corpus, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--suite", "step-identity", "--seeds", "2",
                         "--corpus", corpus])
    if _keeps_the_corpus_valid(path, delete, value):
        assert code == 0, (doc, err.getvalue())
    else:
        _assert_exit_2(code, out.getvalue(), err.getvalue(), doc)


# -- arrays nested as deep as `json` decodes, each run in a fresh interpreter ---
#
# Hypothesis raises the recursion limit while it runs a test, and a test
# runner's stack is deeper than a fresh process's, so these run the command
# in a fresh interpreter at the default limit.  For each case, d_max is the
# deepest array at which its document still decodes there, found by
# bisection below the depth that `json.loads` reaches in a bare
# interpreter; every depth from d_max - 10 to d_max is run.  An unread key
# holding such an array changes nothing, and a group spec that is such an
# array is refused.

@pytest.fixture(scope="module")
def json_depth_limit():
    """The deepest array `json.loads` accepts in a fresh interpreter."""
    script = ("import json\nd = 1\nwhile True:\n    try:\n"
              "        json.loads('[' * d + ']' * d)\n    except RecursionError:\n"
              "        break\n    d += 1\nprint(d - 1)")
    return int(subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, check=True).stdout)


C4 = next(j for j, e in enumerate(CORPUS["entries"]) if e["name"] == "c4")
# argv up to the input file's path, the document, where the array goes,
# and whether the document stays valid
DEEP_CASES = {
    "replay-note": (["replay", "--input"], BASES["replay"][0], ("chain", "group", "note"), True),
    "bound-note": (["bound", "--input"], BOUND_DOC, ("model", "group", "note"), True),
    "corpus-note": (["verify", "--suite", "min-sum", "--seeds", "1", "--corpus"], CORPUS,
                    ("entries", C4, "group", "note"), True),
    "replay-group": (["replay", "--input"], BASES["replay"][0], ("chain", "group"), False),
}


def _run_fresh(argv, text: str, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "tensorcond.cli", *argv, str(path),
                           "--format", "machine"],
                          capture_output=True, text=True, env=subprocess_env())
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("case", sorted(DEEP_CASES))
def test_arrays_nested_as_deep_as_json_decodes(case, json_depth_limit, tmp_path):
    argv, doc, path, valid = DEEP_CASES[case]
    runs = {}

    def run(depth):
        if depth not in runs:
            text = _with_raw(doc, path, "[" * depth + "]" * depth).decode()
            runs[depth] = _run_fresh(argv, text, tmp_path)
        return runs[depth]

    def decodes(depth):
        return "while decoding" not in run(depth)[2]

    low, high = json_depth_limit - 40, json_depth_limit + 1
    assert decodes(low), run(low)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if decodes(mid) else (low, mid)
    plain = _run_fresh(argv, json.dumps(doc), tmp_path)
    assert plain[0] == 0
    for depth in range(low - 10, low + 1):
        code, out, err = run(depth)
        if valid:
            assert (code, out, err) == plain, (depth, err[-300:])
        else:
            assert code == 2 and out == "", (depth, err[-300:])
            assert err.startswith("input error: ") and "Traceback" not in err, (depth, err)


# -- every subcommand: integers up to 10^5000 in any numeric field or flag --------

# Decimal texts (an int of over 4300 digits has no repr): small values, and
# values of 20 to 5000 digits, past every cap and past the size policy's 256
# bits, and its edges.  Values in between are left out: a --seeds of 10^6,
# or a group order just under the cap, is valid input that asks for much
# work, and the property is about exits, not about work.
INTS = st.one_of(
    st.integers(-3, 16).map(str),
    st.builds(lambda sign, digit, n: sign + digit * n,
              st.sampled_from(["", "-"]), st.sampled_from("123456789"), st.integers(20, 5000)),
    st.sampled_from([str(2 ** 256 - 1), str(2 ** 256), str(-2 ** 256), "1" + "0" * 5000]))

# a --seeds as large as the other flags asks for that many items: only
# the refused ones are drawn, negative or too long to read
SEEDS = st.one_of(
    st.integers(-3, 16).map(str),
    st.builds(lambda digit, n: "-" + digit * n, st.sampled_from("123456789"),
              st.integers(20, 5000)),
    st.builds(lambda digit, n: digit * n, st.sampled_from("123456789"),
              st.integers(4301, 5000)))

TABLE_SPECS = [{"kind": "cyclic", "n": 6}, {"kind": "dihedral", "n": 4},
               {"kind": "elementary_abelian", "p": 3, "k": 2}, {"kind": "heisenberg", "p": 3},
               {"kind": "affine", "p": 5},
               {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2},
                                                      {"kind": "quaternion8"}]}]

_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _numeric_paths(doc):
    """The places of a document holding an integer (not a boolean) or a
    rational written as a string, such as min-sum's "3/2"."""
    return [path for path in _paths(doc) if path and (
        is_int(_at(doc, path)) or isinstance(_at(doc, path), str)
        and _RATIONAL_TEXT.fullmatch(_at(doc, path)))]


@st.composite
def huge_numbers(draw):
    """(argv, stdin text or None): one subcommand's valid input with one
    numeric field or flag replaced by a drawn integer, written as a JSON
    number, or (in a rational's string) as a JSON string."""
    command = draw(st.sampled_from(["verify", "bound", "global", "sharpness", "table",
                                    "replay"]))
    if command in ("bound", "global", "replay", "table"):
        docs = TABLE_SPECS if command == "table" else \
            BASES[command] + (SUITE_DOCUMENTS if command == "replay" else [])
        doc = draw(st.sampled_from(docs))
        path = draw(st.sampled_from(_numeric_paths(doc)))
        text = draw(INTS)
        if isinstance(_at(doc, path), str) and draw(st.booleans()):
            text = json.dumps(text)
        data = _with_raw(doc, path, text).decode()
        if command == "table":
            return ["table", "--group", data], None
        return [command, "--input", "-"], data
    if command == "sharpness":
        flags = draw(st.sampled_from([["--p"], ["--a"], ["--max-p"], ["--p", "--a"]]))
        argv = ["sharpness"]
        for flag in flags:
            argv += [flag, draw(INTS)]
        return argv, None
    flag = draw(st.sampled_from(["--seed", "--workers", "--seeds"]))
    argv = ["verify", "--suite", draw(st.sampled_from(sorted(SUITES))), flag,
            draw(SEEDS if flag == "--seeds" else INTS)]
    return argv + (["--seeds", "2"] if flag != "--seeds" else []), None


def _run_argv(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", "machine"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(huge_numbers())
def test_huge_integers_in_every_subcommand_exit_0_1_or_2(case):
    """Exit 0, 1 or 2, at most one line on stderr, and no traceback."""
    argv, text = case
    code, out, err = _run_argv(argv, text)
    shown = ([a[:80] for a in argv], (text or "")[:300], err[:300])
    assert code in (0, 1, 2), shown
    assert len(err.splitlines()) <= 1, shown
    assert "Traceback" not in out + err, shown
