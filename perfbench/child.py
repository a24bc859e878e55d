"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/child.py setup
    python3 perfbench/child.py verify <tensorcond verify arguments...>
    python3 perfbench/child.py documents <documents.json>

Each mode drives tensorcond only through `tensorcond.cli.main` (setup uses
the public load_corpus and character_table) and prints one JSON object of
raw measurements as its last stdout line; run.py turns them into metrics.
The package comes from the checkout's `src/` via PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

# The speed probe: a fixed pure-Python loop, timed in thread CPU seconds
# every PROBE_EVERY_S seconds.  PROBE_REF_S is the loop's time at the
# reference speed, so a calibrated second is a wall second at that speed.
PROBE_EVERY_S = 0.1
PROBE_LOOPS = 15000
PROBE_REF_S = 0.003
# probes within this many seconds of a piece of work price its speed
PROBE_NEAR_S = 0.3


def _rss_kb() -> dict:
    return {"rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "rss_child_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def _probe_loop() -> int:
    s, d = 0, {}
    for i in range(PROBE_LOOPS):
        s += (i * i) % 7
        d[i & 1023] = s
    return s


class SpeedProbe:
    """Samples the machine's speed from inside the measured process.

    A SIGALRM handler runs the probe loop every PROBE_EVERY_S seconds, so
    the samples come from the same process and CPU as the work they
    interrupt.  calibrated_s(t0, t1) is busy_s(t0, t1) scaled by
    PROBE_REF_S over the median probe time near [t0, t1].  The machine
    this was built on moves between speed states about 1.7x apart that
    last seconds to minutes; work and probe slow down together, so
    calibrated times hold still where wall times do not.  With `enabled`
    false it takes no samples and returns wall times.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples = []  # (wall start, wall end, probe CPU seconds)

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.thread_time()
        _probe_loop()
        c1 = time.thread_time()
        self.samples.append((w0, time.perf_counter(), c1 - c0))

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy_s(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] less the probes inside it."""
        return t1 - t0 - sum(w1 - w0 for w0, w1, _ in self.samples
                             if t0 <= w0 and w1 <= t1)

    def calibrated_s(self, t0: float, t1: float) -> float:
        if not self.samples:
            return t1 - t0
        near = [c for w0, w1, c in self.samples
                if t0 - PROBE_NEAR_S <= w0 and w1 <= t1 + PROBE_NEAR_S]
        if len(near) < 3:
            by_distance = sorted(self.samples,
                                 key=lambda s: max(t0 - s[1], s[0] - t1, 0.0))
            near = [c for _, _, c in by_distance[:3]]
        return self.busy_s(t0, t1) * PROBE_REF_S / statistics.median(near)


def setup() -> dict:
    """Import, load the corpus and build every corpus group's table."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        from tensorcond.chars import character_table
        from tensorcond.corpus import load_corpus
        for entry in load_corpus().entries:
            character_table(entry.group)
        end = time.perf_counter()
    return {"wall_s": probe.busy_s(start, end), "setup_s": probe.calibrated_s(start, end)}


class _BlockClock(io.StringIO):
    """Captured stdout that notes when each suite's summary line arrives;
    `verify` prints a suite's items and summary once the suite is done."""

    def __init__(self):
        super().__init__()
        self.marks = []

    def write(self, s):
        if '"summary": true' in s:
            self.marks.append(time.perf_counter())
        return super().write(s)


def check_verify_output(out: str) -> dict:
    """Items, failed items and suite blocks of a `verify --format machine`
    stream.  An item fails when its verdict is not ok or its suite's
    summary reports failures."""
    items, bad, blocks = 0, 0, []
    for line in out.splitlines():
        doc = json.loads(line)
        if doc.get("summary"):
            blocks.append([doc["suite"], doc["items"]])
            bad += doc["failures"]
        else:
            items += 1
            bad += doc.get("ok") is not True
    return {"items": items, "bad": min(bad, items), "blocks": blocks}


def verify(argv, probed: bool = True) -> dict:
    """One `verify` call; each suite block's wall and calibrated seconds."""
    from tensorcond import cli
    out = _BlockClock()
    try:
        with SpeedProbe(probed) as probe, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            rc = cli.main(argv)
            end = time.perf_counter()
    except Exception as err:  # an exception is a failure, not a crash of the run
        return {"rc": None, "error": repr(err), **_rss_kb()}
    wall = probe.busy_s(start, end)
    text = out.getvalue()
    res = {"rc": rc, "wall_s": wall,
           "sha256": hashlib.sha256(text.encode()).hexdigest(), **_rss_kb()}
    try:
        res.update(check_verify_output(text))
    except (ValueError, KeyError) as err:
        res["error"] = f"unparsable verify output: {err!r}"
        return res
    edges = [start] + out.marks
    for block, t0, t1 in zip(res["blocks"], edges, edges[1:]):
        block += [probe.busy_s(t0, t1), probe.calibrated_s(t0, t1)]
    res["probes"] = len(probe.samples)
    return res


def documents(path: str, probed: bool = True) -> dict:
    """One pass over the document set: each document's wall and calibrated
    latency, the indices of the failed ones and the digest of all their
    output."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from docs import verdict_ok
    from tensorcond import cli
    with open(path, encoding="utf-8") as fh:
        docs = json.load(fh)
    spans, digest, failed, errors = [], hashlib.sha256(), [], []
    with SpeedProbe(probed) as probe:
        for j, d in enumerate(docs):
            out = io.StringIO()
            sys.stdin = io.StringIO(d["stdin"] or "")
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(d["argv"])
            except Exception as err:  # counted as a failed document
                rc = None
                errors.append(f"{d['label']}: {err!r}")
            spans.append((t0, time.perf_counter()))
            text = out.getvalue()
            digest.update(text.encode())
            if rc != 0 or not verdict_ok(d["kind"], text):
                failed.append(j)
    sys.stdin = sys.__stdin__
    return {"lat_s": [probe.busy_s(t0, t1) for t0, t1 in spans],
            "cal_s": [probe.calibrated_s(t0, t1) for t0, t1 in spans],
            "probes": len(probe.samples), "sha256": digest.hexdigest(),
            "failed": failed, "errors": errors[:5], **_rss_kb()}


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        res = setup()
    elif mode == "verify":
        res = verify(rest)
    elif mode == "documents":
        res = documents(rest[0])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
