"""One benchmark pass over one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload sweep --seed 1 [--trace] [--setup-only] [--record]

Prints one JSON object on its last stdout line.  `run.py` starts this script
once per pass with a fixed environment, so the module-global caches of qsym
(symfun._H_CACHE, lgv._LETTER_CACHE, qfun._DEFAULT_CONTEXT) start empty every
pass.  qsym is imported from the checkout's own `src/`, never from elsewhere.

Set-up time runs from the first line of this script to the moment the
workload's items are built and the recorded digests loaded: interpreter
start-up is not in it, the import of qsym is.  Like item times, it comes
measured and in reference seconds (see speed.py).

Item times come in two forms: `item_s` is measured wall time, `item_ref_s`
the same in reference seconds (see speed.py).  Both leave out the speed
probes that interrupt the pass.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REF_PROBE_S, SpeedClock, probe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"


def import_qsym():
    """Import qsym from the checkout; exit if it is not there."""
    if not (SRC / "qsym" / "__init__.py").is_file():
        raise SystemExit(f"no qsym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsym

    if Path(qsym.__file__).resolve().parent != (SRC / "qsym").resolve():
        raise SystemExit(f"imported qsym from {qsym.__file__}, not from {SRC}")
    return qsym


def digest(output) -> str:
    """sha256 of the polynomials' to_json texts, one per line."""
    return hashlib.sha256("\n".join(p.to_json() for p in output).encode()).hexdigest()


def setup(workload: str, seed: int, record: bool):
    """Import qsym, build the items in seed order and load their digests.

    Returns those and the set-up time, measured and in reference seconds
    (scaled by one probe taken right after)."""
    qsym = import_qsym()
    import workloads

    items = workloads.build(workload)
    random.Random(seed).shuffle(items)
    expected = {} if record else json.loads(DIGESTS.read_text())[workload]
    setup_s = time.perf_counter() - T_START
    times = {"setup_s": setup_s, "setup_ref_s": setup_s * REF_PROBE_S / probe()}
    return qsym, workloads, items, expected, times


def check_item(item, outs, expected: dict, record: bool) -> tuple[str, str | None]:
    """Digest of the item's primary output, and why it failed (None if not)."""
    first_route, first = outs[0]
    bad = [route for route, out in outs[1:] if out != first]
    d = digest(first)
    if bad:
        return d, f"{'/'.join(bad)} disagree with {first_route}"
    if not record and d != expected.get(item.id):
        return d, "output digest differs from the recorded one"
    return d, None


def run_pass(workload: str, seed: int, trace: bool, record: bool) -> dict:
    qsym, workloads, items, expected, setup_times = setup(workload, seed, record)

    tracer = None
    new_context = qsym.QContext
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        new_context = tracer.new_context
    route_s: dict[str, float] = {}

    def call(route, fn, *args):
        with tracer.span(f"bench.route.{route}") if tracer else nullcontext():
            t0 = time.perf_counter()
            out = fn(*args)
            route_s[route] = route_s.get(route, 0.0) + time.perf_counter() - t0
        return out

    shared = new_context()
    spans: dict[str, tuple[float, float]] = {}
    digests: dict[str, str] = {}
    failures: dict[str, str] = {}
    clock = SpeedClock()
    clock.start()
    t_pass = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        with tracer.span("bench.item", item.id) if tracer else nullcontext():
            try:
                outs = workloads.run_item(item, call, new_context, shared)
                digests[item.id], why = check_item(item, outs, expected, record)
                if why:
                    failures[item.id] = why
            except Exception:
                failures[item.id] = traceback.format_exc(limit=4)
        spans[item.id] = (t0, time.perf_counter())
    t_end = time.perf_counter()
    clock.stop()
    timed = {iid: clock.measure(a, b) for iid, (a, b) in spans.items()}
    item_s = {iid: m for iid, (m, _) in timed.items()}
    item_ref_s = {iid: r for iid, (_, r) in timed.items()}
    # expand: the routes of one shape are separate items and must agree too
    groups: dict[str, set[str]] = {}
    for item in items:
        if item.id in digests:
            groups.setdefault(item.group, set()).add(digests[item.id])
    for item in items:
        if len(groups.get(item.group, ())) > 1:
            failures.setdefault(item.id, f"routes of {item.group} disagree")

    result = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        **setup_times,
        "wall_s": sum(item_s.values()),
        "wall_ref_s": sum(item_ref_s.values()),
        "item_s": item_s,
        "item_ref_s": item_ref_s,
        "probes": len(clock.probes),
        "probe_median_s": sorted(clock.probes)[len(clock.probes) // 2],
        "failures": failures,
        "route_s": route_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": digests,
    }
    if tracer:
        tracer.uninstall()
        from tracer import layer_metrics

        tracer.root.calls = 1
        tracer.root.start, tracer.root.end, tracer.root.total = t_pass, t_end, t_end - t_pass
        result["layers"] = layer_metrics(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        result["spans"] = tracer.write_spans(spans_path, t_pass)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true", help="skip the digest check")
    args = parser.parse_args(argv)
    if args.setup_only:
        result = setup(args.workload, args.seed, args.record)[-1]
    else:
        result = run_pass(args.workload, args.seed, args.trace, args.record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
