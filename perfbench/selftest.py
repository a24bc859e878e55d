"""Self-test of the benchmark, at the smallest run length.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that
  * every workload prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric;
  * the default seed's outputs match reference.json, and a corrupted
    reference digest makes the command fail;
  * another seed changes the generated inputs and their digests;
  * the per-suite pool rebuild shows in chars.table_builds;
  * without a source tree the command fails without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / "perfbench-out" / "selftest"
FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple:
    """(exit code, result object or None, stdout) of one run.py call."""
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if result is not None and "correct" not in result:
        result = None
    return proc.returncode, result, proc.stdout


def raw(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / "perfbench-out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        rc, res, out = bench("--workload", w, "--seed", "0", "--seconds", "1", "--trace", "0")
        got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
        check(rc == 0 and res is not None and res["correct"] and res["failed"] == 0,
              f"{w}: default seed matches the reference, error_rate 0")
        check(got == e2e, f"{w}: every end-to-end metric with its unit")
        names = list(e2e) + ["error_rate"]
        if w == "documents":
            names += ["doc_ms.p50", "doc_ms.p90"]
        printed = all(f"\n{name} " in "\n" + out for name in names)
        if w == "documents":
            names.append("docs_per_s")
            printed = printed and "(docs_per_s" in out
        check(printed, f"{w}: {', '.join(names)} printed by name")

    builds = {}
    for w in ("verify-wd", "verify-pool"):
        rc, res, _ = bench("--workload", w, "--seed", "0", "--trace", "1")
        got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
        check(rc == 0 and got == layer, f"{w}: every per-layer metric with its unit")
        builds[w] = got and res["metrics"]["chars.table_builds"]["value"]
    check(builds["verify-pool"] > 2 * builds["verify-wd"],
          f"pool rebuilds tables: {builds['verify-pool']} builds against "
          f"{builds['verify-wd']} serially")

    # a copy of the checkout: first with a corrupted reference digest,
    # then without its source tree
    copy = OUT / "copy"
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    for tree in (HERE, ROOT / "src"):
        shutil.copytree(tree, copy / tree.name, ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = copy / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["verify-wd"] = "0" * 64
    ref_path.write_text(json.dumps(ref))
    rc, res, _ = bench("--workload", "verify-wd", "--seed", "0", "--seconds", "1", cwd=copy)
    check(rc == 1 and res is not None and not res["correct"] and res["failed"] > 0,
          "a corrupted reference digest fails the command")

    rc, res, _ = bench("--workload", "verify-wd", "--seed", "1", "--seconds", "1")
    check(rc == 0 and res is not None and res["correct"], "another seed runs correctly")
    digests = [raw("verify-wd", s, 0)["raw"][0]["sha256"] for s in (0, 1)]
    check(digests[0] != digests[1], "another seed changes the verify outputs")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import docs
    check(docs.digest(docs.generate(0)) != docs.digest(docs.generate(1)),
          "another seed changes the document set and its digest")

    shutil.rmtree(copy / "src")
    shutil.rmtree(copy / "perfbench-out", ignore_errors=True)
    rc, res, _ = bench("--workload", "verify-wd", "--seed", "1", "--seconds", "1", cwd=copy)
    check(rc != 0 and res is None, "without a source tree: non-zero exit, no result")
    shutil.rmtree(copy)

    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
