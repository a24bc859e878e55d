"""Per-layer measurements of tensorcond, taken from outside the package.

    python3 perfbench/layertrace.py layers <cyclo counts as JSON>
    python3 perfbench/layertrace.py trace verify <tensorcond verify arguments...>
    python3 perfbench/layertrace.py trace documents <documents.json>

`trace` wraps, by setattr, the public functions and the methods of the
public classes of every layer module, and rebinds each wrapped function in
every module (and module-level dict) that holds it, since `from .x import
y` copies the name.  Each call records a span (name, layer, start, end,
parent) in memory; the spans are written out at the end and give each
layer's self time: a span's duration minus the part its child spans cover.
`cyclo` is counted, not spanned: its operations are too many and too small
for spans, so its time is computed as counts times the micro-timings of
`layers`, and it stays inside its callers' self times.  Pool workers
(fork) inherit the wrappers and hand their spans back through files.

`layers` times each layer's public calls on every corpus entry, untraced,
as medians of repeated calls on warm tables (cold where the name says so),
and prices the traced run's cyclo counts with the same micro-timings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import random
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

LAYERS = ("groups", "corpus", "cyclo", "chars", "filtration", "weildeligne",
          "globalbound", "jacobians", "suites", "cli")
CYCLO_N = (3, 4, 5, 8, 9, 20, 25)
SHARPNESS_PRIMES = (3, 5, 7, 11, 13)
SUITE_NAMES = ("step-identity", "min-sum", "symplectic-bound", "pgroup-bound",
               "symplectic-parity", "pgroup-gap", "semistable", "swan-bound",
               "tame-identity", "conductor-bound", "uniform-bound", "degree-gap",
               "global", "sharpness")
# suite indices timed per suite: small and mid-sized chains of every shape
SUITE_ITEMS = (0, 3, 6, 9, 14, 20)
# methods called so often, for so little work each, that a span would
# cost more than the call; their time stays with the caller
UNSPANNED = {"FiniteGroup.mul", "FiniteGroup.inv", "FiniteGroup.power",
             "FiniteGroup.conjugate", "FiniteGroup.class_power",
             "FiniteGroup.elements", "Subgroup.__eq__", "Subgroup.__hash__",
             "Subgroup.contains", "Filtration.__len__", "Filtration.__getitem__"}
CYCLO_OPS = {"__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul"}
SKIPPED_DUNDERS = {"__repr__", "__str__", "__hash__", "__getattribute__",
                   "__setattr__", "__delattr__", "__getattr__", "__init_subclass__"}


class Tracer:
    """Spans and cyclo counts of one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []          # [name, layer, start, end, parent index]
        self.stack = []
        self.cyclo = Counter()   # "op:N" -> calls
        self.pools = []          # ProcessPoolExecutor creation times

    def reset_after_fork(self):
        if os.getpid() != self.pid:
            self.__init__()

    def span(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            rec = [name, layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer.stack.pop()
        return traced

    def counted(self, op: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(a, b):
            n = a.N if not hasattr(b, "N") or b.N == a.N else math.lcm(a.N, b.N)
            tracer.cyclo[f"{op}:{n}"] += 1
            return fn(a, b)
        return traced


def _rebind(modules, orig, new):
    """Point every module attribute and module-level dict entry that holds
    `orig` at `new`."""
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is orig:
                        val[k] = new


def install(tracer: Tracer):
    """Wrap every layer's public functions and class methods."""
    import concurrent.futures
    mods = {name: importlib.import_module(f"tensorcond.{name}") for name in LAYERS}
    modules = list(mods.values())
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    qual = f"{name}.{attr}"
                    if not inspect.isfunction(fn) or qual in UNSPANNED \
                            or attr in SKIPPED_DUNDERS \
                            or (attr.startswith("_") and not attr.endswith("__")):
                        continue
                    if layer == "cyclo":
                        if attr in CYCLO_OPS:
                            setattr(obj, attr, tracer.counted(CYCLO_OPS[attr], fn))
                        continue
                    setattr(obj, attr, tracer.span(layer, qual, fn))
            elif inspect.isfunction(obj) and layer != "cyclo":
                _rebind(modules, obj, tracer.span(layer, name, obj))

    cli = mods["cli"]
    pool_eval = tracer.span("cli", "_pool_eval", cli._pool_eval)
    pool_init = tracer.span("cli", "_pool_init", cli._pool_init)

    def traced_pool_init(*args):
        tracer.reset_after_fork()
        return pool_init(*args)

    def traced_pool_eval(job):
        try:
            return pool_eval(job)
        finally:
            _dump_worker(tracer)
    for fn, orig in ((traced_pool_init, cli._pool_init), (traced_pool_eval, cli._pool_eval)):
        fn.__module__, fn.__qualname__ = orig.__module__, orig.__qualname__
        setattr(cli, orig.__name__, fn)

    base = concurrent.futures.ProcessPoolExecutor

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            tracer.pools.append(time.perf_counter())
            super().__init__(*args, **kwargs)
    concurrent.futures.ProcessPoolExecutor = TracedPool


WORKER_DIR_ENV = "PERFBENCH_WORKER_DIR"


def _dump_worker(tracer: Tracer):
    path = Path(os.environ[WORKER_DIR_ENV]) / f"worker-{os.getpid()}-{time.perf_counter_ns()}.json"
    path.write_text(json.dumps({"spans": tracer.spans, "cyclo": tracer.cyclo}))
    tracer.spans, tracer.stack, tracer.cyclo = [], [], Counter()


def self_times(spans) -> dict:
    """Self seconds per layer: duration minus the children's durations."""
    child = [0.0] * len(spans)
    for name, layer, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = Counter()
    for (name, layer, t0, t1, parent), c in zip(spans, child):
        out[layer] += (t1 - t0) - c
    return out


def _table_builds(spans) -> int:
    """character_table calls that built a table: a cached call has no
    child span, a build constructs class functions (the next span)."""
    return sum(1 for i, s in enumerate(spans[:-1])
               if s[0] == "character_table" and spans[i + 1][4] == i)


def summarise(main_spans, workers, cyclo: Counter, pools) -> dict:
    """Layer self times, counts and pool timings from all processes."""
    parts = [main_spans] + [w["spans"] for w in workers]
    selfs = Counter()
    for part in parts:
        selfs.update(self_times(part))
    for w in workers:
        cyclo.update(w["cyclo"])
    spans = [s for part in parts for s in part]
    chunks = sorted(s[2:4] for s in spans if s[0] == "_pool_eval")
    setup = 0.0
    for n, created in enumerate(pools):
        ends = pools[n + 1] if n + 1 < len(pools) else math.inf
        starts = [t0 for t0, _ in chunks if created <= t0 < ends]
        if starts:
            setup += min(starts) - created
    return {"self_s": dict(selfs), "cyclo": dict(cyclo),
            "table_builds": sum(_table_builds(part) for part in parts),
            "multiplicities": sum(1 for s in spans if s[0] == "CharacterTable.multiplicities"),
            "chunk_s": [t1 - t0 for t0, t1 in chunks], "pool_setup_s": setup,
            "spans": len(spans)}


def trace_main(kind: str, rest) -> dict:
    """Run one workload unit under the tracer, write its spans out and
    summarise them."""
    import child
    tracer = Tracer()
    install(tracer)
    # no speed probe: its samples would land in the spans' self times
    res = child.verify(rest, False) if kind == "verify" else child.documents(rest[0], False)
    wdir = Path(os.environ[WORKER_DIR_ENV])
    workers = [json.loads(p.read_text()) for p in sorted(wdir.glob("worker-*.json"))]
    (wdir / "spans.json").write_text(json.dumps(
        {"fields": ["name", "layer", "start", "end", "parent"], "main": tracer.spans,
         "workers": [w["spans"] for w in workers]}))
    return {"unit": res, **summarise(tracer.spans, workers, tracer.cyclo, tracer.pools)}


# -- micro-timings -------------------------------------------------------------


def _time(fn, min_reps: int = 3, budget_s: float = 0.05) -> float:
    """Median seconds of one call, over at least min_reps calls."""
    times = []
    while len(times) < min_reps or (sum(times) < budget_s and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cold_table_s(spec, min_reps: int = 1, budget_s: float = 0.3) -> float:
    """Median seconds of character_table on a freshly built group, over at
    least min_reps calls; the group build is outside the timed call."""
    from tensorcond.chars import character_table
    from tensorcond.groups import build_group
    times = []
    while len(times) < min_reps or (sum(times) < budget_s and len(times) < 200):
        G = build_group(spec)
        t0 = time.perf_counter()
        character_table(G)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cyclo_us(C, N: int, op: str) -> float:
    """One add or mul on character values in Q(zeta_N): every value of
    every irreducible of the first corpus group of exponent N (rational
    numbers when N is no group's exponent), paired in a fixed shuffle."""
    from tensorcond.chars import character_table
    from tensorcond.cyclo import CycloNum
    groups = [e.group for e in C.entries if e.group.exponent == N]
    if groups:
        values = [v.promote(N) for ch in character_table(groups[0]).irreducibles
                  for v in ch.values]
    else:
        values = [CycloNum.from_rational(Fraction(k, 3), N) for k in range(1, 9)]
    shuffled = values[:]
    random.Random(f"cyclo:{N}").shuffle(shuffled)
    pairs = list(zip(values, shuffled))

    def batch():
        for a, b in pairs:
            (a * b) if op == "mul" else (a + b)
    return 1e6 * _time(batch, 5, 0.05) / len(pairs)


def _all_atoms(T, symplectic: bool):
    """The sum of every rational (and, if asked, symplectic) orbit atom:
    a valid tau, or a valid sigma, on any corpus group."""
    import docs
    atoms = [vec for vec, _ in docs.orbit_atoms(T, symplectic)]
    return T.assemble([sum(col) for col in zip(*atoms)])


def layers(cyclo_counts: dict) -> dict:
    """Untraced micro-timings of every layer on every corpus entry, and the
    computed cyclo time of a traced run's counts (op:N -> calls)."""
    from tensorcond import chars, corpus, filtration, globalbound, groups
    from tensorcond import jacobians, suites, weildeligne

    m = {"corpus.load_ms": 1e3 * _time(corpus.load_corpus, 5)}
    C = corpus.load_corpus()
    for e in C.entries:
        spec = e.group.spec
        gens = [c.generator_lists for c in e.chains]

        def build():
            G = groups.build_group(spec)
            for g in gens:
                groups.filtration_from_generators(G, g)
        m[f"groups.build_ms.{e.name}"] = 1e3 * _time(build, 3, 0.02)
        m[f"chars.table_ms.{e.name}"] = 1e3 * _cold_table_s(spec)
    for e in C.entries:
        T = chars.character_table(e.group)
        chi = T.assemble([1] * len(T))
        m[f"chars.multiplicities_us.{e.name}"] = 1e6 * _time(lambda: T.multiplicities(chi))
        subs = {H.elements: H for c in e.chains for H in c.filtration.chain}
        m[f"chars.fixed_dim_us.{e.name}"] = 1e6 * _time(
            lambda: [chars.fixed_dim(chi, H) for H in subs.values()]) / len(subs)
        chain = e.chains[0]
        m[f"filtration.conductor_us.{e.name}"] = 1e6 * _time(
            lambda: filtration.conductor(chi, chain.filtration, chi))
        tau, sigma = _all_atoms(T, True), _all_atoms(T, False)
        model = chain.model()
        m[f"weildeligne.abvar_us.{e.name}"] = 1e6 * _time(
            lambda: weildeligne.AbVarDatum(model, tau, sigma))
        A = weildeligne.AbVarDatum(model, tau, sigma)
        m[f"weildeligne.tensor_artin_us.{e.name}"] = 1e6 * _time(
            lambda: weildeligne.tensor(A.rho, A.rho).artin_conductor())
    records = []
    for label, chain in zip((2, 3, 5), [c for c in C.integral_model_chains()
                                        if c.entry_name in ("c4", "c9", "heis3")]):
        tau = _all_atoms(chars.character_table(chain.filtration.parent), True)
        A = weildeligne.AbVarDatum(chain.model(), tau, tau.scale(0))
        records.append(globalbound.PrimeLocalPair(label, A, A))
    dim = max(r.A.dim for r in records) // 2
    datum = globalbound.GlobalDatum(dim, dim, tuple(records))
    m["globalbound.rankin_selberg_ms"] = 1e3 * _time(
        lambda: globalbound.rankin_selberg_bound(datum))
    for p in SHARPNESS_PRIMES:
        params = jacobians.validate_params(p, jacobians.smallest_valid_unit(p))
        m[f"jacobians.sharpness_ms.p{p}"] = 1e3 * _time(
            lambda: jacobians.verify_sharpness(params))
    for n in CYCLO_N:
        m[f"cyclo.mul_us.N{n}"] = _cyclo_us(C, n, "mul")
        m[f"cyclo.add_us.N{n}"] = _cyclo_us(C, n, "add")
    cyclo_s = 0.0
    for key, calls in cyclo_counts.items():
        op, n = key.split(":")
        cyclo_s += calls * _cyclo_us(C, int(n), op) / 1e6
    m["cyclo.self_s"] = cyclo_s
    for name in SUITE_NAMES:
        m[f"suites.item_ms.{name}"] = 1e3 * statistics.median(
            _time(lambda: suites.run_suite_range(name, C, i, 1, 0), 1, 0)
            for i in SUITE_ITEMS)
    return m


def main(argv) -> int:
    if argv[0] == "layers":
        res = layers(json.loads(argv[1]))
    elif argv[0] == "trace":
        res = trace_main(argv[1], argv[2:])
    else:
        print(f"unknown mode {argv[0]!r}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
