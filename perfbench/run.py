"""tensorcond benchmark: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload verify-wd --seed 3 --seconds 15 --trace 0

Run it from the root of a tensorcond checkout; the package is imported
from `src/`.  With --trace 0 it measures the end-to-end metrics untraced;
with --trace 1 it runs the workload once untraced and once with every
module's public functions wrapped (layertrace.py), and reports per-layer
metrics.  End-to-end times are calibrated seconds: wall seconds scaled
to a reference machine speed by child.SpeedProbe.  The last stdout line
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it give every metric by name and unit, the
error rate and the run's metadata.  Raw measurements
and trace spans go to `perfbench-out/`.  Exit code 0 means every output was
correct; 1 means a verdict, exit code or digest was wrong; 2 means the
benchmark could not run here.  README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

DEFAULT_SEED = 0
# set-up samples per run, spread evenly between the workload's units
SETUP_REPS = 3
# a run repeats its workload's unit (one verify call, or one pass over the
# document set) round(--seconds / unit_s) times, at least MIN_UNITS: the
# count depends on --seconds only, never on how fast the code under test
# is, so both commits measure the same work.
# unit_s is a unit's wall time on the seed commit on 2 vCPUs, slow state.
MIN_UNITS = 2
CHILD_TIMEOUT_S = 150
WD_SUITES = ("semistable", "swan-bound", "tame-identity", "conductor-bound",
             "uniform-bound", "degree-gap")
FILTRATION_SUITES = ("step-identity", "min-sum", "symplectic-bound", "pgroup-bound",
                     "symplectic-parity", "pgroup-gap", "sharpness")
# items per suite for one verify call; see README.md for the sizing
WORKLOADS = {
    "verify-wd": {"suites": WD_SUITES, "seeds": 11, "workers": 1, "unit_s": 2.5},
    "verify-filtration": {"suites": FILTRATION_SUITES, "seeds": 16, "workers": 1,
                          "unit_s": 6.5},
    "verify-pool": {"suites": WD_SUITES, "seeds": 11, "workers": 2, "unit_s": 2.5},
    "documents": {"unit_s": 12},
}
# the end-to-end metrics of BENCHMARK.json
UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class Unrunnable(Exception):
    """The benchmark cannot run in this directory."""


def verify_argv(workload: str, seed: int) -> list:
    spec = WORKLOADS[workload]
    argv = ["verify"]
    for suite in spec["suites"]:
        argv += ["--suite", suite]
    argv += ["--seeds", str(spec["seeds"]), "--seed", str(seed), "--format", "machine"]
    if spec["workers"] > 1:
        argv += ["--workers", str(spec["workers"])]
    return argv


def units(workload: str, seconds: float) -> int:
    return max(MIN_UNITS, round(seconds / WORKLOADS[workload]["unit_s"]))


def interleaved(work, n: int, env: dict, setups: int) -> tuple:
    """(results of `n` calls of work(), set-up seconds of `setups` fresh
    set-up children), the set-ups spread evenly between the calls so that
    both sample the same stretch of the machine's time."""
    steps = sorted([(i / n, 0) for i in range(n)]
                   + [((j + 0.5) / setups, 1) for j in range(setups)])
    results, setup_s = [], []
    for _, is_setup in steps:
        if is_setup:
            setup_s.append(child(env, "setup")["setup_s"])
        else:
            results.append(work())
    return results, setup_s


def child(env: dict, *args: str, script: str = "child.py") -> dict:
    """Run a perfbench script in a fresh interpreter; return its JSON result.
    On timeout the child's whole process group (pool workers included) is
    killed and reaped."""
    proc = subprocess.Popen([sys.executable, str(HERE / script), *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """The q-quantile, interpolated linearly between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check_calls(workload: str, seed: int, calls, ref) -> tuple:
    """(attempted, failed, problems) over verify calls: exit code 0, every
    verdict ok, the same output on every call and, at the default seed,
    the reference digest.  A call with a wrong exit code or digest fails
    all of its items."""
    expected = ref.get(workload) if seed == DEFAULT_SEED else None
    want = expected or calls[0].get("sha256")
    per_call = WORKLOADS[workload]["seeds"] * len(WORKLOADS[workload]["suites"])
    failed, problems = 0, []
    for n, call in enumerate(calls):
        if call.get("rc") != 0 or "error" in call or call.get("items") != per_call:
            problems.append(f"call {n}: exit {call.get('rc')} {call.get('error', '')}")
            failed += per_call
        elif call["sha256"] != want:
            problems.append(f"call {n}: output digest {call['sha256'][:16]} differs "
                            f"from {want[:16]}")
            failed += per_call
        else:
            failed += call["bad"]
    return per_call * len(calls), failed, problems


def check_passes(docset, inputs: str, seed: int, passes, ref) -> tuple:
    """(attempted, failed, problems) over passes of the document set: exit
    code 0 and a holding verdict per document, the same output on every
    pass and, at the default seed, the reference input and output digests."""
    expected = ref.get("documents") if seed == DEFAULT_SEED else None
    want = expected["output_sha256"] if expected else passes[0]["sha256"]
    problems = []
    bad_inputs = bool(expected) and inputs != expected["inputs_sha256"]
    if bad_inputs:
        problems.append(f"document set digest {inputs[:16]} differs from the reference")
    failed = 0
    for n, p in enumerate(passes):
        if p["sha256"] != want or bad_inputs:
            problems.append(f"pass {n}: output digest {p['sha256'][:16]} differs "
                            f"from {want[:16]}")
            failed += len(docset)
        else:
            failed += len(p["failed"])
            problems += [f"pass {n}: {docset[j]['label']} failed" for j in p["failed"][:3]]
    return len(docset) * len(passes), failed, problems


def run_verify(workload: str, seed: int, seconds: float, env: dict, ref,
               setups: int = 0) -> dict:
    """Closed loop, one client: units(workload, seconds) fresh-interpreter
    verify calls, with `setups` set-up samples between them."""
    argv = verify_argv(workload, seed)
    calls, setup_s = interleaved(lambda: child(env, "verify", *argv),
                                 units(workload, seconds), env, setups)
    attempted, failed, problems = check_calls(workload, seed, calls, ref)
    suites = len(WORKLOADS[workload]["suites"])
    good = [c for c in calls if len(c.get("blocks", ())) == suites]
    if not good:
        raise RuntimeError("; ".join(problems) or "no verify call completed")
    workers = WORKLOADS[workload]["workers"]
    metrics = {
        # calibrated seconds: child.SpeedProbe and README.md, Metadata, say why
        "items_per_s": sum(c["items"] for c in good) / sum(
            b[3] for c in good for b in c["blocks"]),
        "peak_rss_mb": max(c["rss_self_kb"] + workers * c["rss_child_kb"]
                           for c in calls) / 1024,
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "setup_samples_s": setup_s,
            "samples": {"calls": len(calls), "setups": len(setup_s)}, "raw": calls}


def document_set(seed: int, tmp: Path) -> tuple:
    import docs
    docset = docs.generate(seed)
    path = tmp / "documents.json"
    path.write_text(json.dumps(docset))
    return docset, docs.digest(docset), path


def run_documents(seed: int, seconds: float, env: dict, ref, tmp: Path,
                  setups: int = 0) -> dict:
    """Closed loop, one client: units("documents", seconds) passes over the
    seeded set, each pass in a fresh interpreter with every document
    through cli.main, and `setups` set-up samples between them."""
    docset, inputs, path = document_set(seed, tmp)
    passes, setup_s = interleaved(lambda: child(env, "documents", str(path)),
                                  units("documents", seconds), env, setups)
    attempted, failed, problems = check_passes(docset, inputs, seed, passes, ref)
    problems += [f"exception: {e}" for p in passes for e in p["errors"]]
    doc_ms = [1000 * s for p in passes for s in p["lat_s"]]
    metrics = {
        "items_per_s": len(docset) * len(passes) / sum(sum(p["cal_s"]) for p in passes),
        "peak_rss_mb": max(p["rss_self_kb"] for p in passes) / 1024,
    }
    # printed with the metrics, not gated (README.md says why)
    latency = {"doc_ms.p50": statistics.median(doc_ms),
               "doc_ms.p90": quantile(doc_ms, 0.9)}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "latency_ms": latency, "setup_samples_s": setup_s,
            "samples": {"passes": len(passes), "doc_ms": len(doc_ms),
                        "setups": len(setup_s)},
            "raw": passes, "inputs_sha256": inputs, "output_sha256": passes[0]["sha256"]}


def run_traced(workload: str, seed: int, env: dict, ref, tmp: Path) -> dict:
    """The workload's unit (one verify call, or one pass over the document
    set) untraced and then traced, plus the layer micro-timings."""
    import layertrace
    workers = tmp / "workers"
    workers.mkdir()
    tenv = dict(env, **{layertrace.WORKER_DIR_ENV: str(workers)})
    if workload == "documents":
        docset, inputs, path = document_set(seed, tmp)
        plain = child(env, "documents", str(path))
        traced = child(tenv, "trace", "documents", str(path), script="layertrace.py")
        passes = [plain, traced["unit"]]
        attempted, failed, problems = check_passes(docset, inputs, seed, passes, ref)
        plain_s, traced_s = (sum(p["lat_s"]) for p in passes)
        items = len(docset)
    else:
        argv = verify_argv(workload, seed)
        plain = child(env, "verify", *argv)
        traced = child(tenv, "trace", "verify", *argv, script="layertrace.py")
        attempted, failed, problems = check_calls(workload, seed, [plain, traced["unit"]], ref)
        plain_s, traced_s = plain["wall_s"], traced["unit"]["wall_s"]
        items = plain["items"]
    m = child(env, "layers", json.dumps(traced["cyclo"]), script="layertrace.py")
    for layer in layertrace.LAYERS:
        m.setdefault(f"{layer}.self_s", traced["self_s"].get(layer, 0.0))
    for op in ("mul", "add"):
        m[f"cyclo.{op}_per_item"] = sum(
            n for key, n in traced["cyclo"].items() if key.startswith(op)) / items
    m["chars.table_builds"] = traced["table_builds"]
    m["chars.multiplicities_per_item"] = traced["multiplicities"] / items
    chunks = traced["chunk_s"]
    m["cli.pool_setup_s"] = traced["pool_setup_s"]
    m["cli.chunk_s.max"] = max(chunks, default=0.0)
    m["cli.chunk_s.min"] = min(chunks, default=0.0)
    m["trace.overhead_ratio"] = traced_s / plain_s
    shutil.copyfile(workers / "spans.json", tmp.parent / f"{workload}-seed{seed}-spans.json")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": m, "units": {k: unit_of(k) for k in m},
            "samples": {"spans": traced["spans"], "untraced_s": plain_s,
                        "traced_s": traced_s},
            "raw": {k: v for k, v in traced.items() if k != "unit"}}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the token that names it."""
    for token in name.split("."):
        for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s")):
            if token.endswith(suffix):
                return unit
    return "ratio" if name.endswith("ratio") else "count"


def metadata(root: Path, seed: int) -> dict:
    src = sorted((root / "src" / "tensorcond").glob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for f in src:
        data = f.read_bytes()
        tree.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "src_sha256": tree.hexdigest(), "src_lines": lines,
            "seed": seed, "loadavg": list(os.getloadavg())}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-reference", action="store_true",
                    help="print the default seed's digests for reference.json and exit")
    return ap.parse_args(argv)


def child_env(root: Path) -> dict:
    if not (root / "src" / "tensorcond" / "cli.py").is_file():
        raise Unrunnable(f"no tensorcond source tree under {root / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def print_reference(env: dict, tmp: Path) -> dict:
    ref = {"default_seed": DEFAULT_SEED}
    for name in WORKLOADS:
        if name == "documents":
            res = run_documents(DEFAULT_SEED, 0, env, {}, tmp)
            ref[name] = {"inputs_sha256": res["inputs_sha256"],
                         "output_sha256": res["output_sha256"]}
        else:
            call = child(env, "verify", *verify_argv(name, DEFAULT_SEED))
            ref[name] = call["sha256"]
    return ref


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        env = child_env(root)
        ref = {} if args.print_reference else json.loads(
            (HERE / "reference.json").read_text())
    except (Unrunnable, OSError, ValueError) as err:
        print(f"perfbench: cannot run here: {err}", file=sys.stderr)
        return 2
    out_dir = root / "perfbench-out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(root / "src"))
    try:
        if args.print_reference:
            print(json.dumps(print_reference(env, tmp), indent=2))
            return 0
        meta = metadata(root, args.seed)
        if args.trace:
            res = run_traced(args.workload, args.seed, env, ref, tmp)
        else:
            if args.workload == "documents":
                res = run_documents(args.seed, args.seconds, env, ref, tmp, SETUP_REPS)
            else:
                res = run_verify(args.workload, args.seed, args.seconds, env, ref,
                                 SETUP_REPS)
            res["metrics"]["setup_s"] = statistics.median(res["setup_samples_s"])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    raw = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"meta": meta, **res}, indent=1))
    correct = res["failed"] == 0 and not res["problems"]
    units = res.get("units", UNITS)
    for name in sorted(res["metrics"]):
        note = " (docs_per_s: an item is a document)" \
            if args.workload == "documents" and name == "items_per_s" else ""
        print(f"{name:40s} {res['metrics'][name]:.6g} {units[name]}{note}")
    for name, value in res.get("latency_ms", {}).items():
        print(f"{name:40s} {value:.6g} ms (reported, not gated)")
    print(f"{'error_rate':40s} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} failed)")
    print(f"samples: {json.dumps(res['samples'])}")
    if "inputs_sha256" in res:
        print(f"document set sha256: {res['inputs_sha256']}")
    for problem in res["problems"][:20]:
        print(f"problem: {problem}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
