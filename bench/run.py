"""gblink benchmark: one seeded workload per process, closed loop, one caller.

    python3 bench/run.py --workload link-clean --seed 1 --seconds 30 --trace 0

Run from the repository root.  `--trace 0` measures the end-to-end metrics
with nothing wrapped; `--trace 1` runs the same operations untraced and then
traced, and reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the full record (environment,
simulated statistics and their digest) goes to bench/results/, and traced
runs also write their spans there as gzipped JSON lines.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

if not (SRC / "gblink" / "__init__.py").is_file():
    sys.exit(f"bench: no gblink sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the source check above)
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_EVERY_S = 1.5
SETUP_ARGS = ["run", "--frames", "1", "--channel", "bsc", "--p", "0"]


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup_once(seed: int) -> float:
    """Wall time of a fresh process doing the smallest `gblink run`.

    Covers interpreter start, import (GF tables included), argument parsing
    and a one-frame noiseless link run through the CLI entry point, whose CSV
    row is checked.  Raises RuntimeError when the run fails.
    """
    cmd = [sys.executable, "-m", "gblink.cli", *SETUP_ARGS, "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError("setup run did not finish within 60 s") from exc
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup run exited {proc.returncode}: {proc.stderr.strip()}")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    try:
        clean = len(rows) == 1 and all(float(rows[0][k]) == 0.0
                                       for k in ("raw_ber", "coded_ber", "fer", "sync_losses"))
    except (KeyError, ValueError):
        clean = False
    if not clean:
        raise RuntimeError(f"setup run printed {proc.stdout!r}, expected one error-free row")
    return dt


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_lines": src_lines}


class Run:
    """Executes operations, checks them, and keeps the failure tally."""

    def __init__(self, rounds: list[list]):
        self.rounds = rounds
        self.reference: dict[tuple[int, int], dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, r: int, i: int, op) -> tuple[float, int] | None:
        """Run op i of round r; returns (seconds, simulated units) or None on failure."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = W.call(op)
            dt = time.perf_counter() - t0
            stats, units = W.check(op, result)
        except Exception as exc:  # any failure of the program counts, the run goes on
            self._fail(f"round {r} op {i}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, W.CheckFailed):
                self.errors.append(traceback.format_exc())
            return None
        ref = self.reference.setdefault((r, i), stats)
        if ref != stats:
            self._fail(f"round {r} op {i}: statistics differ from the first run with the "
                       f"same inputs: {stats} vs {ref}")
            return None
        return dt, units

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)

    def first_block_stats(self) -> list[dict]:
        return [self.reference.get((r, i)) for r in range(len(self.rounds))
                for i in range(len(self.rounds[r]))]


def run_untraced(run: Run, seconds: float, seed: int) -> dict[str, list[float]]:
    """Closed loop over the rounds until `seconds` pass; samples per metric.

    Set-up samples are taken between rounds, one every SETUP_EVERY_S, so that
    they see the same host conditions as the calls.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    next_setup = 0.0
    try:
        setup_once(seed)  # untimed: lets the interpreter write its bytecode cache
    except RuntimeError as exc:
        run.errors.append(str(exc))
        next_setup = math.inf
    for i, op in enumerate(run.rounds[0]):  # warm-up, also records round 0's reference
        run.execute(0, i, op)
    deadline = time.perf_counter() + seconds
    n = 0
    while n < len(run.rounds) or time.perf_counter() < deadline:
        r = n % len(run.rounds)
        for i, op in enumerate(run.rounds[r]):
            timed = run.execute(r, i, op)
            if timed is not None:
                samples[op.metric].append(timed[1] / timed[0] / 1e6)
        n += 1
        if time.perf_counter() >= next_setup:
            try:
                samples["setup_s"].append(setup_once(seed))
                next_setup = time.perf_counter() + SETUP_EVERY_S
            except RuntimeError as exc:
                run.errors.append(str(exc))
                next_setup = math.inf
    return samples


def run_traced(run: Run, seconds: float) -> tuple[dict[str, float], list[str], T.Tracer]:
    """Blocks of all rounds, each operation untraced then traced; per-block metrics."""
    tracer = T.Tracer(W.TARGETS)
    run_of: list[tuple[int, object]] = []  # tracer run id -> (block, op)
    untraced_link_s = 0.0
    deadline = time.perf_counter() + seconds
    blocks = 0
    while blocks == 0 or time.perf_counter() < deadline:
        for r, ops in enumerate(run.rounds):
            for i, op in enumerate(ops):
                timed = run.execute(r, i, op)
                if timed is not None and isinstance(op, W.LinkOp):
                    untraced_link_s += timed[0]
                tracer.run, tracer.context = len(run_of), op
                run_of.append((blocks, op))
                with tracer:
                    run.execute(r, i, op)
        blocks += 1

    per_block: dict[str, list[float]] = defaultdict(lambda: [0.0] * blocks)
    for (run_id, name), s in tracer.self_times(key=lambda s: (s.run, s.name)).items():
        block, op = run_of[run_id]
        per_block[name + ".self_s"][block] += s
        if name == "elastic.simulate_fifo":
            per_block[f"elastic.{op.regime}.busy_s"][block] += s
    traced_link_s = 0.0
    for s in tracer.spans:
        if s.name == "harness.run_link":
            dur = (s.end_ns - s.start_ns) / 1e9
            per_block["harness.run_link.s"][run_of[s.run][0]] += dur
            traced_link_s += dur

    values = {k: statistics.median(v) for k, v in per_block.items()}
    values.update({k: v / blocks for k, v in tracer.counters.items()})
    values["harness.self_s"] = values.pop("harness.run_link.self_s", 0.0)
    c = tracer.counters
    calls = c.get("rs.rs_decode.calls", 0)
    values["rs.clean_block_ratio"] = c.get("rs.clean_blocks", 0) / calls if calls else 0.0
    frames = c.get("sync.frames", 0)
    values["sync.true_lock_ratio"] = c.get("sync.true_locks", 0) / frames if frames else 0.0
    values["trace_overhead_ratio"] = (traced_link_s / untraced_link_s
                                      if untraced_link_s else 0.0)
    values["trace_blocks"] = blocks
    return values, tracer.absent, tracer


def write_spans(path: Path, tracer: T.Tracer) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start_ns, s.end_ns, s.parent, s.run]) + "\n")


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    run = Run(W.make_rounds(args.workload, args.seed))
    absent: list[str] = []
    samples: dict[str, list[float]] = {}
    if args.trace:
        values, absent, tracer = run_traced(run, args.seconds)
        wanted = spec["per_layer"]
    else:
        samples = run_untraced(run, args.seconds, args.seed)
        # Rates report the run's fastest call.  Other tenants of the host take
        # half of its core for seconds at a time, so per-call rates split into
        # a fast and a 2x slower mode; on a 2-core host run medians spread by
        # 13-39% over ten runs, the fastest call by 2-17%.
        values = {k: max(v) for k, v in samples.items() if v}
        if samples["setup_s"]:
            values["setup_s"] = statistics.median(samples["setup_s"])
        values.update({k + ".median": statistics.median(v) for k, v in samples.items() if v})
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    stats = run.first_block_stats()
    # a traced metric is missing when its layer did no work (or is absent); an
    # end-to-end metric is missing only when every sample of it failed
    correct = run.failed == 0 and not run.errors and (bool(args.trace) or not missing)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(), "digest": W.digest(stats),
        "stats": stats, "absent": absent, "zero_filled": missing, "errors": run.errors,
        "attempted": run.attempted, "failed": run.failed, "metrics": metrics,
        "extra": {k: v for k, v in values.items() if k not in metrics},
        "samples": samples,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        write_spans(RESULTS / f"{stem}.spans.jsonl.gz", tracer)

    for err in run.errors:
        print(err, file=sys.stderr)
    print(f"digest {record['digest']} absent {absent} zero_filled {missing} "
          f"record {RESULTS.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
