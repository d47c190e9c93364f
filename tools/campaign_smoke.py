#!/usr/bin/env python3
"""Campaign execution-path + cache smoke check (run in CI).

Three independent guarantees, exercised end to end through the real CLI:

1. **Serial vs process pool** — a 2×2 mini-campaign (two datasets × two
   methods of the Table II grid) runs inline (``--jobs 1``) and on the
   process pool (``--jobs 2``).  Both ``--summary-json`` files and both
   payload exports must be byte-identical, and each execution report must
   name the path that ran (``serial`` / ``process``).
2. **Cache semantics** — the first (serial) run computes every cell,
   a repeat run over the same cache is 100 % hits, and its summary is
   *still* byte-identical (the summary is a pure function of the spec).
3. **Cache stability under edits** — in a throwaway copy of the source
   tree: editing a module *outside* a runner's import closure leaves the
   runner's cell key unchanged, bumping the package version leaves it
   unchanged, and editing the runner's own module changes it.

Exits non-zero on any violation.  Run locally with::

    PYTHONPATH=src python tools/campaign_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import main  # noqa: E402  (needs src on sys.path first)
from repro.experiments import table2  # noqa: E402

#: Execution path -> the ``--jobs`` value that selects it.
JOBS = {"serial": 1, "process": 2}


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok  " if condition else "FAIL") + f" {message}")
    if not condition:
        failures.append(message)


def run_path(
    backend: str, spec_path: Path, tmp_path: Path
) -> tuple[bytes, dict, bytes]:
    """One cold ``campaign run`` on ``backend``.

    Returns the ``--summary-json`` bytes, the parsed execution report and
    the ``--json`` payload bytes.
    """
    cache_dir = tmp_path / f"cache-{backend}"
    summary = tmp_path / f"summary-{backend}.json"
    report = tmp_path / f"report-{backend}.json"
    payloads = tmp_path / f"payloads-{backend}.json"
    argv = [
        "campaign",
        "run",
        str(spec_path),
        "--jobs",
        str(JOBS[backend]),
        "--cache-dir",
        str(cache_dir),
        "--summary-json",
        str(summary),
        "--report-json",
        str(report),
        "--json",
        str(payloads),
        "--no-progress",
    ]
    code = main(argv)
    if code != 0:
        raise SystemExit(f"campaign run --jobs {JOBS[backend]} exited with {code}")
    return (
        summary.read_bytes(),
        json.loads(report.read_text(encoding="utf-8")),
        payloads.read_bytes(),
    )


def serial_vs_process(tmp_path: Path, failures: list[str]) -> None:
    spec = table2.campaign_spec(
        datasets=("cifar10", "cifar100"),
        distributions=(True,),
        methods=("ComDML", "FedAvg"),
        max_rounds=80,
    )
    spec_path = tmp_path / "mini.json"
    spec.save(spec_path)

    summaries, payloads = {}, {}
    for backend in JOBS:
        summaries[backend], report, payloads[backend] = run_path(
            backend, spec_path, tmp_path
        )
        check(
            json.loads(summaries[backend])["cells"] == 4,
            f"[{backend}] expands to 2x2 = 4 cells",
            failures,
        )
        check(
            report["cache_misses"] == report["cells"],
            f"[{backend}] cold run computes every cell",
            failures,
        )
        check(
            report["backend"] == backend,
            f"[{backend}] report names the execution path",
            failures,
        )
        print(
            f"    {backend}: {report['wall_seconds']:.2f}s wall "
            f"({report['speedup']:.2f}x vs serial cold run)"
        )

    reference = summaries["serial"]
    check(
        summaries["process"] == reference,
        "[process] --summary-json byte-identical to serial",
        failures,
    )
    check(
        payloads["process"] == payloads["serial"],
        "[process] --json payloads byte-identical to serial",
        failures,
    )

    # Warm re-run over the serial cache: 100 % hits, summary unchanged.
    warm_summary = tmp_path / "summary-warm.json"
    warm_report = tmp_path / "report-warm.json"
    code = main(
        [
            "campaign",
            "run",
            str(spec_path),
            "--cache-dir",
            str(tmp_path / "cache-serial"),
            "--summary-json",
            str(warm_summary),
            "--report-json",
            str(warm_report),
            "--no-progress",
        ]
    )
    check(code == 0, "warm re-run exits 0", failures)
    warm = json.loads(warm_report.read_text(encoding="utf-8"))
    check(
        warm["cache_hits"] == warm["cells"] and warm["cache_misses"] == 0,
        "warm re-run is 100% cache hits",
        failures,
    )
    check(
        warm_summary.read_bytes() == reference,
        "warm --summary-json byte-identical to the cold one",
        failures,
    )


# ----------------------------------------------------------------------
# Cache stability under source edits
# ----------------------------------------------------------------------

RUNNER = "ablation-allreduce"
RUNNER_MODULE = "repro.experiments.ablations"
PROBE = (
    "import json; "
    "from repro.experiments.campaign import cell_key; "
    "from repro.experiments.fingerprint import module_source_closure; "
    f"print(json.dumps({{'key': cell_key({RUNNER!r}, {{'num_agents': 4}}), "
    f"'closure': sorted(module_source_closure({RUNNER_MODULE!r}))}}))"
)


def probe_key(src_copy: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_copy)
    output = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(output)


def module_path(src_copy: Path, module: str) -> Path:
    parts = module.split(".")
    path = src_copy.joinpath(*parts)
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def cache_stability(tmp_path: Path, failures: list[str]) -> None:
    src_copy = tmp_path / "srccopy"
    shutil.copytree(ROOT / "src", src_copy)

    baseline = probe_key(src_copy)
    closure = set(baseline["closure"])
    check(RUNNER_MODULE in closure, "runner module is inside its own closure", failures)

    # Find a repro module genuinely outside the runner's closure (skip
    # package __init__ files: ancestor __init__s are hashed into closures
    # by design now, so probing a leaf module is the honest check).
    unrelated = None
    for candidate in sorted((src_copy / "repro").rglob("*.py")):
        if candidate.name == "__init__.py":
            continue
        module = ".".join(candidate.relative_to(src_copy).with_suffix("").parts)
        if module not in closure and module != "repro.version":
            unrelated = (candidate, module)
            break
    check(unrelated is not None, "found a module outside the runner closure", failures)
    if unrelated is None:
        return
    path, module = unrelated
    path.write_text(path.read_text(encoding="utf-8") + "\n# smoke probe\n")
    check(
        probe_key(src_copy)["key"] == baseline["key"],
        f"editing unrelated module ({module}) keeps the cell key",
        failures,
    )

    version_path = module_path(src_copy, "repro.version")
    version_text = version_path.read_text(encoding="utf-8")
    bumped = re.sub(r'__version__ = ".*?"', '__version__ = "99.0.0"', version_text)
    check(bumped != version_text, "version bump actually edited version.py", failures)
    version_path.write_text(bumped)
    check(
        probe_key(src_copy)["key"] == baseline["key"],
        "bumping the package version keeps the cell key",
        failures,
    )

    # The execution engine orchestrates around cells; editing it must not
    # cold-start every cache (contract changes go through
    # CACHE_SCHEMA_VERSION instead).
    engine_path = module_path(src_copy, "repro.experiments.campaign")
    engine_path.write_text(
        engine_path.read_text(encoding="utf-8") + "\n# smoke probe\n"
    )
    check(
        probe_key(src_copy)["key"] == baseline["key"],
        "editing the campaign engine keeps the cell key",
        failures,
    )

    runner_path = module_path(src_copy, RUNNER_MODULE)
    runner_path.write_text(
        runner_path.read_text(encoding="utf-8") + "\n# smoke probe\n"
    )
    check(
        probe_key(src_copy)["key"] != baseline["key"],
        "editing the runner's own module changes the cell key",
        failures,
    )


def main_smoke() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="campaign-smoke-") as tmp:
        tmp_path = Path(tmp)
        serial_vs_process(tmp_path, failures)
        cache_stability(tmp_path, failures)
    if failures:
        for message in failures:
            print(f"FAILED: {message}", file=sys.stderr)
        return 1
    print("campaign smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main_smoke())
