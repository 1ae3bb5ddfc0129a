#!/usr/bin/env python3
"""qsym benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --record-digests

Run it from the root of a checkout; it imports qsym from that checkout's
`src/`.  Workloads (see workloads.py for why each was chosen): sweep, expand,
schur_series.

The loop is closed, single-process and single-threaded: each item starts only
after the previous one returned.  Every pass runs in a fresh interpreter
(worker.py) with QSYM_MAX_TERMS, PYTHONPATH and PYTHONDONTWRITEBYTECODE unset
and PYTHONHASHSEED=0.  The seed permutes the order of the items.

--trace 0 first times SETUP_RUNS set-ups, each in a fresh interpreter, then
runs whole passes: at least one, and no further pass that would end after
--seconds of pass time, in reference seconds, at the mean pass time.  Counting
in reference seconds keeps the number of passes the same when the host slows
down.  It reports
  setup_s       median set-up time (import qsym, build the items, load digests)
  wall_s        median seconds per pass, outputs checked
  item_p50_ms   median item latency, each item taken at its median over passes
  item_tail_ms  the highest percentile of those that has at least ten items
                beyond it; the details line names the percentile and count
  peak_rss_mb   largest peak resident memory of a pass
  ok_frac       items that passed over items attempted; an item fails if its
                routes disagree, if its output digest differs from the
                recorded one (digests.json), or if it raises
All times but the route seconds in the details are in reference seconds:
measured wall time scaled by a speed probe (see speed.py), as the speed of a
shared virtual machine wanders by up to 2x.  The details line also gives them
as measured, unscaled.

--trace 1 runs one untraced pass and then one traced pass (tracer.py), and
reports the per-layer metrics of the traced pass, the tracing overhead, and
whether the two passes' output digests agree.  The spans go to
perfbench/out/spans-<workload>-seed<n>.jsonl.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the details and the environment,
also written to perfbench/out/.  The exit code is 0 whenever a result is
printed, and nonzero, without a result, when qsym is missing or a pass does
not complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep", "expand", "schur_series")
SETUP_RUNS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s

# ROADMAP Baseline, seconds per route over the 654-case sweep (Python 3.11.7, 2 cores)
BASELINE_SWEEP_S = {
    "definition": 0.67,
    "tableau": 19.1,
    "branch": 0.83,
    "pfaffian": 0.68,
    "lgv": 15.4,
}


class RunFailed(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QSYM_MAX_TERMS", None)  # read on every LaurentPoly construction
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads qsym's cached bytecode
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("time budget spent before the pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"pass {args} did not end within the time budget") from exc
    if proc.returncode != 0:
        raise RunFailed(f"pass {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and which
    percentile that is; the maximum when there are ten values or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    src = ROOT / "src" / "qsym"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "qsym_commit": commit,
        "qsym_source_sha256": h.hexdigest(),
        "pythonhashseed": worker_env()["PYTHONHASHSEED"],
    }


def measure(workload: str, seed: int, seconds: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [run_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_RUNS)]
    passes = []
    spent = 0.0
    while True:
        passes.append(run_worker(common, deadline))
        spent += passes[-1]["wall_ref_s"]
        if spent + spent / len(passes) > seconds:
            break

    def timings(suffix):
        per_item = {
            iid: statistics.median(p["item" + suffix][iid] for p in passes)
            for iid in passes[0]["item_s"]
        }
        tail_s, tail_pct = tail(list(per_item.values()))
        return {
            "wall_s": statistics.median(p["wall" + suffix] for p in passes),
            "item_p50_ms": 1000 * statistics.median(per_item.values()),
            "item_tail_ms": 1000 * tail_s,
        }, tail_pct, len(per_item)

    ref, tail_pct, n_items = timings("_ref_s")
    measured, _, _ = timings("_s")
    attempted = sum(len(p["item_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {
        "setup_s": statistics.median(p["setup_ref_s"] for p in setups + passes),
        **ref,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }
    routes = {
        r: statistics.median(p["route_s"].get(r, 0.0) for p in passes)
        for r in passes[0]["route_s"]
    }
    details = {
        "passes": len(passes),
        "measured": measured,
        "pass_wall_ref_s": [p["wall_ref_s"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "probe_median_s": [p["probe_median_s"] for p in passes],
        "setup_samples_s": [p["setup_s"] for p in setups + passes],
        "setup_samples_ref_s": [p["setup_ref_s"] for p in setups + passes],
        "items": n_items,
        "item_tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "failures": _first_failures(passes),
        "route_s": routes,
    }
    if workload == "sweep":
        details["route_vs_baseline"] = {
            r: {
                "measured_s": routes.get(r, 0.0),
                "baseline_s": b,
                "ratio": routes.get(r, 0.0) / b,
                "within_20pct": abs(routes.get(r, 0.0) / b - 1) <= 0.2,
            }
            for r, b in BASELINE_SWEEP_S.items()
        }
    return metrics, attempted, failed, details


def measure_traced(workload: str, seed: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    plain = run_worker(common, deadline)
    traced = run_worker(common + ["--trace"], deadline)
    mismatched = sorted(
        iid for iid in plain["item_s"] if plain["digests"].get(iid) != traced["digests"].get(iid)
    )
    metrics = dict(traced["layers"])
    metrics["trace.untraced_wall_s"] = plain["wall_ref_s"]
    metrics["trace.traced_wall_s"] = traced["wall_ref_s"]
    metrics["trace.overhead_s"] = traced["wall_ref_s"] - plain["wall_ref_s"]
    metrics["trace.overhead_frac"] = traced["wall_ref_s"] / plain["wall_ref_s"] - 1
    metrics["trace.spans"] = traced["spans"]
    attempted = len(plain["item_s"]) + len(traced["item_s"])
    failed = len(plain["failures"]) + len(set(traced["failures"]) | set(mismatched))
    details = {
        "spans_file": traced["spans_file"],
        "traced_digests_equal_untraced": not mismatched,
        "digest_mismatches": mismatched[:5],
        "failures": _first_failures([plain, traced]),
        "route_s_untraced": plain["route_s"],
        "measured_wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]},
    }
    return metrics, attempted, failed, details


def _first_failures(passes, limit: int = 5) -> dict[str, str]:
    out: dict[str, str] = {}
    for p in passes:
        for iid, why in p["failures"].items():
            if len(out) < limit:
                out.setdefault(iid, why)
    return out


def record_digests() -> int:
    """Rewrite digests.json from the current code; refuses if any item's
    routes disagree or raise.  Only for a deliberate change of outputs."""
    deadline = time.monotonic() + 3600
    out = {}
    for workload in WORKLOADS:
        res = run_worker(["--workload", workload, "--record"], deadline)
        if res["failures"]:
            print(json.dumps(_first_failures([res]), indent=1), file=sys.stderr)
            return 1
        out[workload] = dict(sorted(res["digests"].items()))
    (BENCH_DIR / "digests.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsym benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsym" / "__init__.py").is_file():
        print(f"qsym sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            values, attempted, failed, details = measure_traced(args.workload, args.seed, deadline)
        else:
            values, attempted, failed, details = measure(
                args.workload, args.seed, args.seconds, deadline
            )
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    details["environment"] = environment(args.workload, args.seed, args.seconds, args.trace)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
