"""Perf-trajectory runner: benchmark the hot paths, append to the repo's history.

Runs the ``benchmarks/bench_micro.py`` suite under pytest-benchmark and
writes a machine-readable snapshot — per-bench median/stddev/mean/rounds,
the git SHA the numbers were measured on, and a UTC timestamp — to
``BENCH_<label>.json``.  Committing one snapshot per PR accumulates a perf
history that ``--check`` can gate on:

    # record PR 5's numbers
    PYTHONPATH=src python tools/bench_trajectory.py 5

    # CI: rerun the suite and fail if the 50-agent round-planning bench
    # regressed more than 2x against the committed baseline, if the
    # kernel's same-machine speedup over the scalar reference (the
    # machine-independent signal) fell below 4x, if the pruned planner's
    # scaling exponent drifted super-linear, if its 5000-agent round
    # got slower than the dense kernel's 500-agent round, if the
    # incremental CSR engine lost its 3x edge over the full rebuild, if
    # the semi-sync or async overhead over the sync round grew faster
    # than n**1.5 between 1 000 and 8 000 agents, or if a baseline's
    # ring round grew faster than n**1.3 between 1 000 and 8 000 agents.
    PYTHONPATH=src python tools/bench_trajectory.py ci --out bench-ci.json \
        --check BENCH_9.json --max-ratio 2.0 --min-speedup 4.0 \
        --max-exponent 1.3 --planner-dense-ratio 1.0 --csr-ratio 3.0 \
        --event-exponent 1.5 --baseline-exponent 1.3

Snapshot schema 2 adds per-bench ``extra`` columns (peak traced bytes and
high-water RSS from the scaling benches, CSR edit counters).  See
docs/performance.md for the file format and how to read it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The bench gated by --check (overridable via --bench).
GATED_BENCH = "test_round_timing_speed"

#: Pair reported as a same-machine speedup when both are present.
SPEEDUP_PAIR = ("test_round_timing_speed_scalar", "test_round_timing_speed")

#: Scaling-curve column gated by --max-exponent: the pruned planner's
#: steady-state round on the random-k topology across populations.
SCALING_BENCH = "test_planner_round_speed"
SCALING_TOPOLOGY = "random-k"
SCALING_POPULATIONS = (50, 500, 5_000, 50_000)

#: The ungated planner dynamics bench; ci prints its mean matching rounds
#: per plan with the scaling column's.
DYNAMICS_BENCH = "test_planner_dynamics_round_speed"

#: Same-run pair gated by --planner-dense-ratio: the pruned planner's
#: 5 000-agent steady-state round must stay under this multiple of the
#: dense kernel's 500-agent round (the ISSUE 6 acceptance bar is 1.0).
PLANNER_DENSE_PAIR = (
    "test_planner_round_speed[random-k-5000]",
    "test_dense_round_speed_500",
)

#: Same-run pair gated by --csr-ratio: a 500-agent arrival wave edited
#: into the 50k-agent topology's CSR in O(Δ) and synced, against the same
#: wave plus an O(E) build of the whole graph from edge arrays.  Unlike the
#: other gates this one fails when the ratio falls BELOW the bound (the
#: acceptance bar is 3.0: edits at least 3x faster than rebuilding).
CSR_PAIR = (
    "test_csr_arrival_wave_rebuild_speed",
    "test_csr_arrival_wave_incremental_speed",
)

#: Benches gated by --event-exponent: steady ComDML rounds per execution
#: mode at two populations 8x apart.  The gate fits how each event-driven
#: mode's overhead over the sync round (mode median minus sync median)
#: grows between them: linear per-event work gives an exponent near 1, a
#: per-event scan of the population (the semi-sync quorum's live-unit
#: scan and the async path's per-unit registry sum once did this) near 2.
#: A ratio to the sync round would also move whenever the planning and
#: timing work that every mode shares got faster or slower.
#: The fit uses each bench's fastest round: at 1 000 agents the overhead
#: is a difference of two rounds of a few tens of ms, and a busy host only
#: ever adds time to a round.
EVENT_BENCH = "test_runtime_round_speed"
EVENT_MODES = ("semi-sync", "async")
EVENT_POPULATIONS = (1_000, 8_000)

#: Benches gated by --baseline-exponent: steady rounds of the four
#: baselines of a Table III cell on a ring, at two populations 8x apart.
#: A baseline prices its participants as columns, so at 1 000 agents a
#: round's fixed costs (the runtime, the trace, a handful of NumPy calls)
#: are a third to a half of it, and the exponent reads 0.7 to 0.85; a scan of every participant pair (the Gossip
#: neighbour search once did this) fits near 2.  A return to scalar
#: pricing per participant slows both populations alike and barely moves
#: the exponent, so the tool prints each method's fastest rounds in ms
#: next to it.  One bench per method alternates the two populations'
#: rounds, so a slow stretch of the host hits both, and records each
#: population's fastest round in its ``extra``
#: (``fastest_round_seconds_<n>``); the fit uses those.
BASELINE_BENCH = "test_baseline_round_speed"
BASELINE_METHODS = ("Gossip", "BrainTorrent", "AllReduce", "FedAvg")
BASELINE_POPULATIONS = (1_000, 8_000)

SCHEMA = 2


def scaling_exponent(benches: dict) -> float | None:
    """Least-squares slope of log(median) vs log(n) on the scaling column.

    Fitting the exponent rather than eyeballing the constant means the
    gate catches accidental O(n²) work (exponent drifting towards 2)
    even on a machine where every bench is uniformly faster or slower
    than the committed baseline.
    """
    import math

    points = []
    for population in SCALING_POPULATIONS:
        entry = benches.get(f"{SCALING_BENCH}[{SCALING_TOPOLOGY}-{population}]")
        if entry is None:
            return None
        points.append((math.log(population), math.log(entry["median_seconds"])))
    if len(points) < 2:
        return None
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    denominator = sum((x - mean_x) ** 2 for x, _ in points)
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / denominator


def scan_rounds_per_plan(benches: dict) -> list[tuple[str, float]]:
    """Mean greedy-scan matching rounds per plan, by planner bench.

    The scaling column's points in population order, then the dynamics
    bench; benches that did not run or record the count are left out.
    """
    names = [
        f"{SCALING_BENCH}[{SCALING_TOPOLOGY}-{population}]"
        for population in SCALING_POPULATIONS
    ]
    names.append(DYNAMICS_BENCH)
    return [
        (name, benches[name]["extra"]["scan_rounds"])
        for name in names
        if "scan_rounds" in benches.get(name, {}).get("extra", {})
    ]


def rows_per_batch_run(benches: dict) -> list[tuple[str, float]]:
    """Mean batch rows per engine run of the event-driven round benches.

    By mode, then population; benches that did not run or record the
    count are left out.
    """
    names = [
        f"{EVENT_BENCH}[{mode}-{population}]"
        for mode in EVENT_MODES
        for population in EVENT_POPULATIONS
    ]
    return [
        (name, benches[name]["extra"]["rows_per_batch_run"])
        for name in names
        if "rows_per_batch_run" in benches.get(name, {}).get("extra", {})
    ]


def event_overhead_exponents(benches: dict) -> dict[str, float | None] | None:
    """Log-log slope of (mode min - sync min) between the two populations.

    ``None`` when a bench is missing; a mode's value is ``None`` when its
    overhead is not positive at either population (no slope to fit).
    """
    import math

    small, large = EVENT_POPULATIONS
    exponents: dict[str, float | None] = {}
    for mode in EVENT_MODES:
        overheads = []
        for population in (small, large):
            event = benches.get(f"{EVENT_BENCH}[{mode}-{population}]")
            sync = benches.get(f"{EVENT_BENCH}[sync-{population}]")
            if event is None or sync is None:
                return None
            overheads.append(event["min_seconds"] - sync["min_seconds"])
        if min(overheads) <= 0:
            exponents[mode] = None
        else:
            exponents[mode] = math.log(overheads[1] / overheads[0]) / math.log(
                large / small
            )
    return exponents


def baseline_exponents(
    benches: dict,
) -> dict[str, tuple[float, list[float]]] | None:
    """Each baseline's fastest rounds and their log-log slope between the populations.

    Maps a method to ``(exponent, fastest rounds in seconds)``, the rounds
    in :data:`BASELINE_POPULATIONS` order.  ``None`` when a bench or one of
    its readings is missing.
    """
    import math

    small, large = BASELINE_POPULATIONS
    exponents: dict[str, tuple[float, list[float]]] = {}
    for method in BASELINE_METHODS:
        extra = benches.get(f"{BASELINE_BENCH}[{method}]", {}).get("extra", {})
        rounds = [
            extra.get(f"fastest_round_seconds_{population}")
            for population in (small, large)
        ]
        if None in rounds:
            return None
        exponent = math.log(rounds[1] / rounds[0]) / math.log(large / small)
        exponents[method] = exponent, rounds
    return exponents


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def run_suite(pytest_args: list[str]) -> dict:
    """Run the micro suite, return the parsed pytest-benchmark JSON.

    GC is disabled inside timed rounds (``--benchmark-disable-gc``):
    collector pauses otherwise land in a few rounds of the allocation-
    heavy planner benches and inflate their medians by double-digit
    percentages run-to-run, which is noise for a trajectory whose gates
    compare medians — schema-2 snapshots are all recorded this way.
    """
    with tempfile.TemporaryDirectory(prefix="bench-trajectory-") as tmp:
        report = Path(tmp) / "benchmark.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/bench_micro.py",
            "-q",
            f"--benchmark-json={report}",
            "--benchmark-disable-gc",
            *pytest_args,
        ]
        completed = subprocess.run(command, cwd=ROOT)
        if completed.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {completed.returncode})")
        return json.loads(report.read_text(encoding="utf-8"))


def snapshot(label: str, raw: dict) -> dict:
    """Reduce a pytest-benchmark report to the committed trajectory format."""
    benches = {}
    for entry in raw.get("benchmarks", []):
        stats = entry["stats"]
        row = {
            "median_seconds": stats["median"],
            "min_seconds": stats["min"],
            "stddev_seconds": stats["stddev"],
            "mean_seconds": stats["mean"],
            "rounds": stats["rounds"],
        }
        extra = entry.get("extra_info") or {}
        if extra:
            row["extra"] = extra
        benches[entry["name"]] = row
    machine = raw.get("machine_info", {})
    return {
        "schema": SCHEMA,
        "label": label,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain")),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": machine.get("python_version"),
        "machine": machine.get("machine"),
        "benches": benches,
    }


def check_regression(
    current: dict, baseline_path: Path, bench: str, max_ratio: float
) -> int:
    """Compare one bench's median against a committed baseline snapshot."""
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"check: cannot read baseline {baseline_path}: {error}")
        return 2
    base = baseline.get("benches", {}).get(bench)
    now = current["benches"].get(bench)
    if base is None or now is None:
        print(f"check: bench {bench!r} missing from baseline or current run")
        return 2
    ratio = now["median_seconds"] / base["median_seconds"]
    verdict = "ok" if ratio <= max_ratio else "REGRESSION"
    print(
        f"check: {bench} median {now['median_seconds'] * 1e3:.3f} ms vs baseline "
        f"{base['median_seconds'] * 1e3:.3f} ms ({baseline_path.name}, "
        f"sha {baseline.get('git_sha', '?')[:9]}) -> {ratio:.2f}x "
        f"(limit {max_ratio:.1f}x) {verdict}"
    )
    return 0 if ratio <= max_ratio else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="snapshot label, e.g. the PR number")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default: BENCH_<label>.json in the repo root)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="committed baseline snapshot to gate against",
    )
    parser.add_argument(
        "--bench", default=GATED_BENCH, help="bench name gated by --check"
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail when current/baseline median exceeds this (default 2.0)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "fail when the scalar/vectorized round-planning speedup measured "
            "in THIS run falls below this; machine-independent, so it stays "
            "meaningful when the committed baseline came from other hardware"
        ),
    )
    parser.add_argument(
        "--max-exponent",
        type=float,
        default=None,
        help=(
            "fail when the fitted scaling exponent of the pruned planner's "
            "random-k round (median vs population, log-log least squares) "
            "measured in THIS run exceeds this; catches super-linear growth "
            "independently of the machine's absolute speed"
        ),
    )
    parser.add_argument(
        "--planner-dense-ratio",
        type=float,
        default=None,
        help=(
            "fail when the pruned planner's 5000-agent round takes more than "
            "this multiple of the dense kernel's 500-agent round in THIS run "
            "(the acceptance bar is 1.0: 10x the agents in less time)"
        ),
    )
    parser.add_argument(
        "--csr-ratio",
        type=float,
        default=None,
        help=(
            "fail when an arrival wave's O(Δ) CSR edits and sync are "
            "less than this many times faster than the same wave plus an "
            "O(E) build of the whole graph in THIS run (the acceptance bar "
            "is 3.0); machine-independent, both medians come from one process"
        ),
    )
    parser.add_argument(
        "--event-exponent",
        type=float,
        default=None,
        help=(
            "fail when a semi-sync or async ComDML round's overhead over the "
            "sync round grows faster than n**this between the 1000- and "
            "8000-agent benches of THIS run; catches per-event work that "
            "scans the population, independently of the machine's speed"
        ),
    )
    parser.add_argument(
        "--baseline-exponent",
        type=float,
        default=None,
        help=(
            "fail when a baseline's (Gossip, BrainTorrent, AllReduce, FedAvg) "
            "steady ring round grows faster than n**this between the 1000- "
            "and 8000-agent benches of THIS run; catches per-round work that "
            "scans every participant pair"
        ),
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (after --)",
    )
    args = parser.parse_args(argv)

    raw = run_suite(list(args.pytest_args))
    snap = snapshot(args.label, raw)
    out = args.out if args.out is not None else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(snap['benches'])} benches, sha {snap['git_sha'][:9]})")

    status = 0
    scalar, vectorized = SPEEDUP_PAIR
    speedup = None
    if scalar in snap["benches"] and vectorized in snap["benches"]:
        speedup = (
            snap["benches"][scalar]["median_seconds"]
            / snap["benches"][vectorized]["median_seconds"]
        )
        print(f"round-planning kernel speedup on this machine: {speedup:.1f}x")
    if args.min_speedup is not None:
        if speedup is None:
            print("check: speedup pair missing from the suite")
            status = 2
        elif speedup < args.min_speedup:
            print(
                f"check: speedup {speedup:.1f}x below the {args.min_speedup:.1f}x "
                "floor REGRESSION"
            )
            status = 2

    exponent = scaling_exponent(snap["benches"])
    if exponent is not None:
        print(
            f"planner scaling exponent ({SCALING_TOPOLOGY}, "
            f"n={'/'.join(map(str, SCALING_POPULATIONS))}): {exponent:.2f}"
        )
    for name, rounds in scan_rounds_per_plan(snap["benches"]):
        print(f"greedy-scan matching rounds per plan, {name}: {rounds:.1f}")
    if args.max_exponent is not None:
        if exponent is None:
            print("check: scaling-curve benches missing from the suite")
            status = 2
        elif exponent > args.max_exponent:
            print(
                f"check: scaling exponent {exponent:.2f} above the "
                f"{args.max_exponent:.2f} ceiling REGRESSION"
            )
            status = 2

    pruned, dense = PLANNER_DENSE_PAIR
    planner_ratio = None
    if pruned in snap["benches"] and dense in snap["benches"]:
        planner_ratio = (
            snap["benches"][pruned]["median_seconds"]
            / snap["benches"][dense]["median_seconds"]
        )
        print(
            f"pruned 5000-agent round vs dense 500-agent round: "
            f"{planner_ratio:.2f}x"
        )
    if args.planner_dense_ratio is not None:
        if planner_ratio is None:
            print("check: planner/dense comparison benches missing from the suite")
            status = 2
        elif planner_ratio > args.planner_dense_ratio:
            print(
                f"check: planner/dense ratio {planner_ratio:.2f}x above the "
                f"{args.planner_dense_ratio:.2f}x limit REGRESSION"
            )
            status = 2

    rebuild, incremental = CSR_PAIR
    csr_ratio = None
    if rebuild in snap["benches"] and incremental in snap["benches"]:
        csr_ratio = (
            snap["benches"][rebuild]["median_seconds"]
            / snap["benches"][incremental]["median_seconds"]
        )
        print(
            f"CSR arrival-wave edits vs rebuild from edges: "
            f"{csr_ratio:.1f}x faster"
        )
    if args.csr_ratio is not None:
        if csr_ratio is None:
            print("check: CSR arrival-wave benches missing from the suite")
            status = 2
        elif csr_ratio < args.csr_ratio:
            print(
                f"check: CSR edit speedup {csr_ratio:.1f}x below the "
                f"{args.csr_ratio:.1f}x floor REGRESSION"
            )
            status = 2

    exponents = event_overhead_exponents(snap["benches"])
    for mode, exponent in (exponents or {}).items():
        shown = "undefined (no overhead over the sync round)"
        if exponent is not None:
            shown = f"{exponent:.2f}"
        print(
            f"{mode} round overhead over the sync round, exponent "
            f"(n={'/'.join(map(str, EVENT_POPULATIONS))}): {shown}"
        )
    for name, rows in rows_per_batch_run(snap["benches"]):
        print(f"batch rows per engine run, {name}: {rows:.1f}")
    if args.event_exponent is not None:
        if exponents is None:
            print("check: runtime round benches missing from the suite")
            status = 2
        for mode, exponent in (exponents or {}).items():
            if exponent is None:
                print(f"check: {mode} overhead exponent undefined REGRESSION")
                status = 2
            elif exponent > args.event_exponent:
                print(
                    f"check: {mode} overhead exponent {exponent:.2f} above the "
                    f"{args.event_exponent:.2f} ceiling REGRESSION"
                )
                status = 2

    baselines = baseline_exponents(snap["benches"])
    for method, (exponent, rounds) in (baselines or {}).items():
        print(
            f"{method} ring round exponent "
            f"(n={'/'.join(map(str, BASELINE_POPULATIONS))}): {exponent:.2f}, "
            f"fastest rounds {' / '.join(f'{seconds * 1e3:.2f}' for seconds in rounds)} ms"
        )
    if args.baseline_exponent is not None:
        if baselines is None:
            print("check: baseline round benches missing from the suite")
            status = 2
        for method, (exponent, _) in (baselines or {}).items():
            if exponent > args.baseline_exponent:
                print(
                    f"check: {method} round exponent {exponent:.2f} above the "
                    f"{args.baseline_exponent:.2f} ceiling REGRESSION"
                )
                status = 2

    if args.check is not None:
        status = max(
            status, check_regression(snap, args.check, args.bench, args.max_ratio)
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
