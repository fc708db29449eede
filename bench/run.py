"""Benchmark of mlmkit: run one workload and print its metrics.

    python3 bench/run.py --workload robolang_sim --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run is one process with no extra
threads.  It builds the workload (the set-up), then runs whole rounds of
operations until the timed operations fill `--seconds`, timing each
operation once and alone.  Every output is checked outside the timing; an
operation whose check fails counts as failed.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.  With
`--trace 1` the set-up runs under the tracer of tracing.py, and then each
round runs once plain, with the originals in place, and once traced.  The
per-layer metrics come from the set-up and the traced pass of round 0, so
their counts repeat exactly; `trace.overhead` is traced time over plain time
on the same operations; the spans of that sample are written to bench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("robolang_sim", "ltl_rewrite", "model_queries")
NEEDED = ("src/mlmkit/__init__.py", "tests/oracles.py", "fixtures/robolang.mlh")


class Tally:
    """Latencies and verdicts of the operations run so far."""

    def __init__(self):
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failed operations not explained by a known fault

    def run_round(self, rnd, tracer=None) -> float:
        """Run every operation of the round, timing each alone, then check
        the round; returns the round's timed seconds."""
        records = []
        timed = 0.0
        for k, op in enumerate(rnd.ops):
            if tracer is not None:
                tracer.op, tracer.recording = k, True
            t0 = perf_counter()
            out = op()
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            timed += elapsed
            self.latencies.append(elapsed)
            records.append(rnd.observe(out))
        for k, ok in enumerate(rnd.verdicts(records)):
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.unexpected += k not in rnd.known_faults
        return timed


def end_to_end(workload, seconds: float, setup_s: float) -> tuple:
    """Whole rounds until the timed operations fill `seconds`; each
    operation is timed once."""
    tally = Tally()
    timed, r = 0.0, 0
    while timed < seconds:
        timed += tally.run_round(workload.round(r))
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = tally.latencies
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally, metrics


def per_layer(workload_cls, seed: int, seconds: float, name: str) -> tuple:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        workload = workload_cls(seed)
        tracer.recording = False
        tally = Tally()
        plain = traced = 0.0
        sample = None
        r = 0
        while plain + traced < seconds:
            # the pass that runs second finds the machine in another state;
            # alternating the order keeps that out of the overhead.  The plain
            # pass runs with the originals back in place.
            for traced_pass in ((True, False) if r % 2 else (False, True)):
                if traced_pass:
                    tracer.install()
                    traced += tally.run_round(workload.round(r), tracer)
                else:
                    tracer.uninstall()
                    plain += tally.run_round(workload.round(r))
            spans = tracer.take()
            if sample is None:
                sample = spans
            r += 1
    finally:
        tracer.uninstall()
    tracing.write_spans(OUT / f"{name}-seed{seed}.spans.jsonl", sample)
    summary = tracing.summarize(sample)
    metrics = {}
    for fname, entry in summary["functions"].items():
        metrics[f"{fname}.calls"] = (entry["calls"], "count")
        share = 100 * entry["self_s"] / summary["top_s"] if summary["top_s"] else 0.0
        metrics[f"{fname}.self_pct"] = (share, "%")
    lhs = summary["functions"]["matching.bind_lhs"]
    hits = lhs["outcomes"].get("value", 0)
    metrics["matching.bind_lhs.hits"] = (hits, "count")
    metrics["matching.bind_lhs.hit_ratio"] = (hits / lhs["calls"] if lhs["calls"] else 0.0, "ratio")
    rejected = summary["functions"]["rewrite.apply_rule"]["outcomes"].get("raised NotApplicable", 0)
    metrics["rewrite.apply_rule.rejected"] = (rejected, "count")
    metrics["trace.overhead"] = (traced / plain, "ratio")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a checkout of mlmkit, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        tally, metrics = per_layer(workload_cls, args.seed, args.seconds, args.workload)
    else:
        workload = workload_cls(args.seed)
        setup_s = perf_counter() - START
        tally, metrics = end_to_end(workload, args.seconds, setup_s)
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
