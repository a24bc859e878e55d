"""Command-line entry point.

Subcommands: verify (property suites over the corpus), bound (one local
pair), global (factored global bounds), sharpness (the Jacobian family),
table (character table), replay (re-run a counterexample document).

Exit codes: 0 all checks pass, 1 violation (a counterexample document is
emitted), 2 malformed input, 141 stdout closed early (as by `| head`).
Machine output is a line-delimited JSON stream; exact rationals are
serialized as "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from typing import List, Optional

from . import errors
from .chars import character_table, power_basis
from .corpus import ChainReader, load_corpus
from .cyclo import CycloNum
from .errors import InputError, TensorCondError, reading, require, shown, sized
from .globalbound import exponents_str, rankin_selberg_bound
from .groups import build_group, is_prime
from .jacobians import (smallest_valid_unit, validate_params, verify_sharpness)
from .suites import SUITES, abvar_datum, read_global, replay, run_suite_range
from .weildeligne import LocalPair, conductor_bound, uniform_bound


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise InputError(f"cannot read input document: {err}") from None


# -- subcommand: verify -----------------------------------------------------------


def _process_count(workers: int) -> int:
    """Processes for `--workers`: at most one per CPU this process may run
    on, and one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(workers, cpus)


def _shares(seeds: int, processes: int) -> List[tuple]:
    """A suite's items as contiguous (start, count) shares, one per process;
    one share when the suite is too small to be worth splitting."""
    if processes == 1 or seeds < 4 * processes:
        return [(0, seeds)]
    chunk = (seeds + processes - 1) // processes
    return [(lo, min(chunk, seeds - lo)) for lo in range(0, seeds, chunk)]


_POOL_STATE = {}


def _pool_init(corpus):
    _POOL_STATE["corpus"] = corpus


def _pool_eval(job):
    name, start, count, base_seed = job
    return run_suite_range(name, _POOL_STATE["corpus"], start, count, base_seed)


def _share_worker(k: int, plan, corpus, base_seed: int, fd: int):
    """The body of forked worker k: share k of each suite, in suite order,
    written to `fd` as one JSON line per share.  An error is written as
    {"error": class name, "message": text} and ends the worker.  It never
    returns: it leaves by os._exit, so that nothing inherited from the
    parent runs (atexit handlers, buffered stdout, a test runner's teardown).
    `_pool_init` and `_pool_eval` are called through the module globals."""
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            try:
                _pool_init(corpus)
                for name, shares in plan:
                    if k < len(shares):
                        out.write(json.dumps(_pool_eval((name, *shares[k], base_seed))) + "\n")
                        out.flush()
            except Exception as err:
                if not isinstance(err, TensorCondError):
                    import traceback  # only a fault in the program needs it
                    traceback.print_exc()
                out.write(json.dumps({"error": type(err).__name__, "message": str(err)}) + "\n")
    finally:
        os._exit(0)


def _read_share(reader, k: int, name: str) -> list:
    """Worker k's share of suite `name`: its item documents, or the worker's
    error raised again, as the serial run would have raised it."""
    line = reader.readline()
    if not line:
        raise RuntimeError(f"verify worker {k} ended before its share of suite {name}")
    docs = json.loads(line)
    if isinstance(docs, dict):
        kind = getattr(errors, docs["error"], None)
        if isinstance(kind, type) and issubclass(kind, TensorCondError):
            raise kind(docs["message"])
        raise RuntimeError(f"verify worker {k} failed in suite {name}: "
                           f"{docs['error']}: {docs['message']}")
    return docs


def _run_verify(args, machine: bool) -> int:
    names = list(SUITES) if "all" in args.suite else args.suite
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {shown(name)}; choose from "
                             f"{', '.join(sorted(SUITES))} or all")
    if args.seeds is not None and args.seeds < 0:
        raise InputError(f"--seeds must be nonnegative, not {shown(args.seeds)}")
    if args.workers < 1:
        raise InputError(f"--workers must be at least 1, not {shown(args.workers)}")
    processes = _process_count(args.workers)
    corpus = load_corpus(args.corpus)
    plan = [(name, _shares(args.seeds if args.seeds is not None else SUITES[name].seeds,
                           processes)) for name in names]
    failures = 0
    # worker k (k >= 1) computes share k of every suite, forked once with
    # this call's corpus and every table built so far; this process computes
    # share 0 and reads the others in order, so the items stay in index order
    workers = []
    try:
        for k in range(1, max(len(shares) for _, shares in plan)):
            fd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _share_worker(k, plan, corpus, args.seed, wfd)
            os.close(wfd)
            workers.append((pid, os.fdopen(fd, encoding="utf-8")))
        for name, shares in plan:
            start, count = shares[0]
            docs = run_suite_range(name, corpus, start, count, args.seed)
            for k in range(1, len(shares)):
                docs += _read_share(workers[k - 1][1], k, name)
            bad = [d for d in docs if not d["ok"]]
            checks = sum(d["checks"] for d in docs)
            if machine:
                for d in docs:
                    print(json.dumps(d, sort_keys=True))
                print(json.dumps({"suite": name, "summary": True, "items": len(docs),
                                  "checks": checks, "failures": len(bad)},
                                 sort_keys=True))
            else:
                verdict = "ok" if not bad else f"{len(bad)} FAILURES"
                print(f"{name}: {len(docs)} items, {checks} checks, {verdict}")
                for d in bad:
                    print(json.dumps(d["counterexample"], sort_keys=True))
            failures += len(bad)
    finally:
        # on success every worker has sent its last share, so the kill only
        # hurries its exit; on an error it stops work nobody will read
        for pid, reader in workers:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return 1 if failures else 0


# -- subcommand: bound ------------------------------------------------------------


def _run_bound(args, machine: bool) -> int:
    doc = _load_document(args.input)
    model = ChainReader().model(require(doc, "model"), "model.")
    A, B = (abvar_datum(model, require(doc, key), key) for key in ("A", "B"))
    pair = LocalPair(A, B)
    lhs, rhs_main, c_p = conductor_bound(pair)
    _, rhs_uniform, _ = uniform_bound(pair)
    out = {
        "a_A": str(A.artin_conductor()), "a_B": str(B.artin_conductor()),
        "sw_A": str(A.swan_conductor()), "sw_B": str(B.swan_conductor()),
        "dim_A": A.dim, "dim_B": B.dim,
        "deg_A": A.degree(), "deg_B": B.degree(), "deg_tensor": pair.product.degree(),
        "degree_correction": pair.degree_correction,
        "lhs": str(lhs), "rhs_main": str(rhs_main),
        "rhs_uniform": str(rhs_uniform), "C_p": c_p,
        "sw_tensor": str(pair.product.swan_conductor()),
        "bound_holds": lhs <= rhs_main,
    }
    if machine:
        print(json.dumps(out, sort_keys=True))
    else:
        for k, v in out.items():
            print(f"{k:18s} {v}")
    return 0 if out["bound_holds"] else 1


# -- subcommand: global -----------------------------------------------------------


def _run_global(args, machine: bool) -> int:
    datum = read_global(_load_document(args.input), ChainReader())
    with reading("primes"):
        report = rankin_selberg_bound(datum)
    ok = report.all_checks_pass()
    out = {**report.to_json(), "per_prime_check": "pass" if ok else "fail"}
    if machine:
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"bound: {exponents_str(report.bound)}")
        print(f"d_term: {exponents_str(report.d)}")
        print(f"per-prime check: {out['per_prime_check']}")
        for rec in report.per_prime:
            print(f"  p={rec['p']}: bound exponent {rec['bound_exp']}"
                  + (f", a(tensor) = {rec['a_tensor']}" if "a_tensor" in rec else ""))
    return 0 if ok else 1


# -- subcommand: sharpness ---------------------------------------------------------


def _sharpness_family(args) -> list:
    """The validated parameters of every prime asked for, all checked (the
    order cap included) before any is computed.  A sweep is scanned lazily,
    so that a huge --max-p stops at the first prime above the cap."""
    if args.max_p is None:
        flag, primes = "--p", [3 if args.p is None else args.p]
    elif args.p is not None:
        raise InputError(f"--p {shown(args.p)} and --max-p {shown(args.max_p)} exclude each other")
    else:
        flag, primes = "--max-p", (p for p in range(3, args.max_p + 1) if is_prime(p))
    with reading(flag):
        family = [validate_params(p, smallest_valid_unit(p)) for p in primes]
    if not family:
        raise InputError(f"--max-p {shown(args.max_p)}: there is no odd prime up to it")
    if args.a is not None:
        if len(family) > 1:
            raise InputError(f"--a {shown(args.a)} needs a single prime, but --max-p "
                             f"{shown(args.max_p)} sweeps {len(family)}")
        a = sized(args.a, "--a")
        with reading("--a"):
            family = [validate_params(family[0][0], a)]
    return family


def _run_sharpness(args, machine: bool) -> int:
    family = _sharpness_family(args)
    reader = ChainReader()
    all_equal = True
    for p, a in family:
        report = verify_sharpness((p, a), reader)
        all_equal = all_equal and report.equal
        if machine:
            print(json.dumps(report.to_json(), sort_keys=True))
        else:
            print(f"p={p} a={a}: Sw_a={report.sw_a} Sw_p={report.sw_p} "
                  f"Sw_tensor={report.sw_tensor} a_tensor={report.a_tensor} "
                  f"thm_rhs={report.conductor_rhs} equal={report.equal}")
    return 0 if all_equal else 1


# -- subcommand: table -------------------------------------------------------------


def _run_table(args, machine: bool) -> int:
    try:
        spec = json.loads(args.group)
    except (ValueError, RecursionError) as err:
        raise InputError(f"cannot read the group spec as JSON: {err}") from None
    with reading("--group"):
        G = build_group(spec)
    T = character_table(G)
    # each distinct (class order, terms) of the eigenvalue forms is read once,
    # as its power-basis coefficients over Q(zeta_N)
    text = {}
    for key in {key for form in T.forms for key in zip(G.class_orders, form)}:
        n, coeffs = power_basis(G.exponent, *key)
        text[key] = ({"N": n, "coeffs": [str(c) for c in coeffs]} if machine
                     else str(CycloNum(n, coeffs)))
    rows = [[text[key] for key in zip(G.class_orders, form)] for form in T.forms]
    if machine:
        doc = {"group": G.spec, "order": G.order, "exponent": G.exponent,
               "classes": [{"size": s, "rep": r, "rep_order": n}
                           for s, r, n in zip(G.class_sizes, G.class_reps, G.class_orders)],
               "irreducibles": [{"degree": d, "values": row}
                                for d, row in zip(T.degrees, rows)]}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"{G.name}: order {G.order}, {len(G.classes)} classes, "
              f"exponent {G.exponent}")
        print("class sizes: " + " ".join(str(s) for s in G.class_sizes))
        for i, (d, row) in enumerate(zip(T.degrees, rows)):
            print(f"chi_{i} (dim {d}): " + "  ".join(row))
    return 0


# -- subcommand: replay --------------------------------------------------------------


def _run_replay(args, machine: bool) -> int:
    doc = _load_document(args.input)
    with reading("cannot replay document"):
        verdict = replay(doc)
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are InputErrors: one line on
    stderr and exit 2, as for a malformed document."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _int_flag(text: str) -> int:
    """An integer flag; int() refuses more than 4300 digits."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer of at most 4300 digits: {shown(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"), default="human",
                        help="machine prints line-delimited JSON")
    parser = _Parser(
        prog="tensorcond",
        description="Exact conductor exponents for group filtrations and "
                    "Weil-Deligne block data, with verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run property suites over the corpus")
    p_verify.add_argument("--suite", action="append", required=True,
                          help="suite name or 'all' (repeatable)")
    p_verify.add_argument("--seeds", type=_int_flag, default=None,
                          help="items per suite (default: per-suite)")
    p_verify.add_argument("--seed", type=_int_flag, default=0, help="base seed")
    p_verify.add_argument("--corpus", default=None, help="corpus JSON path")
    p_verify.add_argument("--workers", type=_int_flag, default=1,
                          help="processes, at most one per usable CPU")

    p_bound = sub.add_parser("bound", parents=[common], help="conductor bounds for one local pair")
    p_bound.add_argument("--input", required=True, help="JSON document or - for stdin")

    p_global = sub.add_parser("global", parents=[common], help="global factored conductor bound")
    p_global.add_argument("--input", required=True, help="JSON document or - for stdin")

    p_sharp = sub.add_parser("sharpness", parents=[common], help="Jacobian family equalities")
    p_sharp.add_argument("--p", type=_int_flag, default=None, help="odd prime (default: 3)")
    p_sharp.add_argument("--a", type=_int_flag, default=None,
                         help="unit representative (default: smallest valid)")
    p_sharp.add_argument("--max-p", type=_int_flag, default=None,
                         help="sweep every odd prime up to this bound")

    p_table = sub.add_parser("table", parents=[common], help="print a character table")
    p_table.add_argument("--group", required=True,
                         help='group spec JSON, e.g. {"kind": "affine", "p": 5}')

    p_replay = sub.add_parser("replay", parents=[common], help="re-run a counterexample document")
    p_replay.add_argument("--input", required=True, help="JSON document or - for stdin")

    return parser


_RUNNERS = {
    "verify": _run_verify,
    "bound": _run_bound,
    "global": _run_global,
    "sharpness": _run_sharpness,
    "table": _run_table,
    "replay": _run_replay,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first `main` call of a process; parsing
    leaves it as it was, so later calls reuse it."""
    return build_parser()


EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = _RUNNERS[args.command](args, args.format == "machine")
        sys.stdout.flush()  # a reader that left shows here at the latest
        return code
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except TensorCondError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe: the interpreter's
        # last flush writes to devnull (verify's workers are reaped already)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
