#!/usr/bin/env python3
"""Compare a fresh BENCH_engine.json against the committed baseline.

Fails (exit 1) when any watched benchmark's cpu_time regressed beyond the
tolerance factor, so perf regressions on the packet hot path surface in CI
instead of silently accumulating. Run via the `bench-check` CMake target or
directly:

    tools/run_bench.sh                      # re-record BENCH_engine.json
    tools/check_bench_regression.py --fresh /tmp/fresh.json

With --dry-run no baseline is consulted: the fresh recording alone is
validated (parses, Release-flavored, and contains every watched benchmark).
run_bench.sh uses this to vet a recording before publishing it, and CI uses
it to keep the bench suite compiling and the watch list honest on machines
with no trustworthy baseline timing.

cpu_time is compared rather than real_time: the BER-sweep benches are
wall-clock parallel and cpu_time is the steadier signal on loaded CI boxes.
"""

import argparse
import json
import sys

# The hot-path benches the PR-level perf targets are stated against.
DEFAULT_WATCHED = [
    "BM_ViterbiDecode/4096",
    "BM_FullPacketSystemLevel",
    "BM_BerWaterfallMemoized/iterations:1",
    "BM_BerSweepAdaptive/iterations:1",
    "BM_BerSweepFixedBudget/iterations:1",
    "BM_RfChainThroughput",
    "BM_RfChainFused",
    "BM_SyncDetect",
    "BM_FftBatch64/8",
    "BM_FftBatch64/32",
    "BM_TxModulateBatch",
    "BM_RxDataSymbolsBatch",
    "BM_SurrogateCalibrateCold/iterations:1",
    "BM_SurrogateQueryWarm/iterations:1",
    "BM_DropThroughputCold/iterations:1",
    "BM_DropThroughputWarm/iterations:1",
    "BM_ServiceColdCoalesced/iterations:1",
    "BM_ServiceWarmQuery/iterations:1",
]


def load_times(path):
    with open(path) as f:
        data = json.load(f)
    ctx = data.get("context", {})
    times = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        times[b["name"]] = (float(b["cpu_time"]), b.get("time_unit", "ns"))
    return ctx, times


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="BENCH_engine.json",
                    help="committed baseline JSON (default: %(default)s)")
    ap.add_argument("--fresh", required=True,
                    help="freshly recorded benchmark JSON to check")
    ap.add_argument("--tolerance", type=float, default=1.30,
                    help="max allowed fresh/baseline cpu_time ratio "
                         "(default: %(default)s)")
    ap.add_argument("--benchmarks", default=",".join(DEFAULT_WATCHED),
                    help="comma-separated benchmark names to watch "
                         "(default: the hot-path set)")
    ap.add_argument("--dry-run", action="store_true",
                    help="validate the fresh recording only (no baseline "
                         "comparison): it must parse, be Release-flavored, "
                         "and contain every watched benchmark")
    args = ap.parse_args()

    watched = [n.strip() for n in args.benchmarks.split(",") if n.strip()]

    if args.dry_run:
        try:
            fresh_ctx, fresh = load_times(args.fresh)
        except (OSError, ValueError, KeyError) as err:
            print(f"bench-check: --dry-run: cannot read {args.fresh}: {err}",
                  file=sys.stderr)
            return 1
        failures = []
        if fresh_ctx.get("wlansim_non_release_build"):
            failures.append(
                f"recorded from a non-Release build "
                f"({fresh_ctx['wlansim_non_release_build']})")
        for name in watched:
            if name not in fresh:
                failures.append(f"watched benchmark '{name}' missing")
        if failures:
            for msg in failures:
                print(f"bench-check: FAILURE: {args.fresh}: {msg}",
                      file=sys.stderr)
            return 1
        print(f"bench-check: --dry-run: {args.fresh} OK "
              f"({len(watched)} watched benchmarks present)")
        return 0

    base_ctx, base = load_times(args.baseline)
    fresh_ctx, fresh = load_times(args.fresh)

    for ctx, label in ((base_ctx, args.baseline), (fresh_ctx, args.fresh)):
        if ctx.get("wlansim_non_release_build"):
            print(f"bench-check: {label} was recorded from a non-Release "
                  f"build ({ctx['wlansim_non_release_build']}); refusing "
                  "to compare.", file=sys.stderr)
            return 1

    # A debug google-benchmark library inflates harness overhead; comparing
    # across library flavors measures the harness, not the code. Same flavor
    # on both sides (even debug-vs-debug, for boxes whose packaged
    # libbenchmark only ships debug) compares fine.
    base_lib = base_ctx.get("library_build_type", "")
    fresh_lib = fresh_ctx.get("library_build_type", "")
    if base_lib != fresh_lib:
        print(f"bench-check: library_build_type mismatch — baseline "
              f"'{base_lib or '<unset>'}' vs fresh '{fresh_lib or '<unset>'}'; "
              "refusing to compare across libbenchmark flavors.",
              file=sys.stderr)
        return 1

    failures = []
    for name in watched:
        # A watched name absent from the FRESH run is a hard failure: a
        # silent skip would let a renamed or accidentally-dropped benchmark
        # evacuate the watch list without anyone noticing.
        if name not in fresh:
            failures.append(f"'{name}' missing from fresh run {args.fresh}")
            continue
        # Absent from the baseline but present fresh = a benchmark newly
        # added to the watch list, checked against a recording that predates
        # it. Nothing to compare yet — report it and move on, so growing the
        # watch list does not hard-fail every older baseline. (Re-record
        # with tools/run_bench.sh to start tracking it.)
        if name not in base:
            print(f"bench-check: NEW {name}: not in baseline "
                  f"{args.baseline}; recorded fresh, nothing to compare")
            continue
        (b, unit_b), (f, unit_f) = base[name], fresh[name]
        if unit_b != unit_f:
            failures.append(f"'{name}': time_unit mismatch "
                            f"({unit_b} vs {unit_f})")
            continue
        ratio = f / b if b > 0 else float("inf")
        status = "OK " if ratio <= args.tolerance else "FAIL"
        print(f"bench-check: {status} {name}: {b:.0f} -> {f:.0f} {unit_b} "
              f"(x{ratio:.3f}, tolerance x{args.tolerance:.2f})")
        if ratio > args.tolerance:
            failures.append(
                f"'{name}' regressed x{ratio:.3f} — cpu_time "
                f"+{(ratio - 1.0) * 100.0:.1f}% over baseline, "
                f"{(ratio - args.tolerance) * 100.0:.1f} points past the "
                f"x{args.tolerance:.2f} tolerance "
                f"({b:.0f} -> {f:.0f} {unit_b})")

    if failures:
        for msg in failures:
            print(f"bench-check: FAILURE: {msg}", file=sys.stderr)
        return 1
    print("bench-check: all watched benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
