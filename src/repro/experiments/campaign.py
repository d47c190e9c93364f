"""Declarative campaign engine: parallel, cached, resumable experiment sweeps.

Every result in the paper is a grid — Tables I–III and Figures 1/3 sweep
method × dataset × model × agent-count × seed — and so is every ablation.
Instead of each harness hand-rolling its own serial loop, a
:class:`CampaignSpec` *declares* the grid (a set of named axes over a base
configuration) and a :class:`CampaignExecutor` executes its cells:

* **expansion** — :meth:`CampaignSpec.expand` materialises the Cartesian
  product of the axes into per-cell parameter dictionaries, in a
  deterministic order (axes vary right-to-left, like nested loops);
* **execution** — ``jobs`` is the only execution choice: cells run
  inline when ``jobs == 1`` or at most one cell needs computing, and on a
  process pool of ``jobs`` processes otherwise
  (:mod:`repro.experiments.backends`).  Both paths stream typed events
  (``cell_started``, ``cell_finished``, ``cell_failed``; the executor
  adds ``cell_cached``) that the executor forwards to an optional
  ``on_event`` consumer, e.g. the live renderer in
  :mod:`repro.experiments.reporting`.  Because every cell is a pure
  function of its parameters (each carries its own seed), results are
  byte-identical regardless of job count or completion order;
* **memoisation** — each finished cell is written to an on-disk
  content-addressed cache keyed by a stable hash of the cell parameters
  plus the *runner's source fingerprint*
  (:mod:`repro.experiments.fingerprint`), so re-running a campaign (or
  resuming one after an interruption) skips every cached cell — and a
  release or an edit to an unrelated module leaves the cache warm.

A cell is ``(runner, params)``: ``runner`` names an entry of
:data:`CELL_RUNNERS` (a dotted ``module:function`` path, resolved lazily so
experiment modules can both *use* the engine and *register* runners without
import cycles) and ``params`` is a JSON dictionary the runner receives as
keyword arguments.  Runners must return JSON-serialisable payloads — the
experiment modules keep thin post-processors that turn payloads back into
their result dataclasses.

>>> spec = CampaignSpec.create(
...     name="demo", runner="table2-cell",
...     axes={"dataset": ("cifar10", "cifar100"), "method": ("ComDML", "FedAvg")},
...     base={"seed": 0},
... )
>>> len(spec.expand())
4
>>> spec.expand()[1]["dataset"], spec.expand()[1]["method"]
('cifar10', 'FedAvg')
>>> CampaignSpec.from_json(spec.to_json()) == spec
True
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.experiments.backends import (
    CellCached,
    CellFailed,
    CellFinished,
    CellTask,
    resolve_dotted,
    run_process,
    run_serial,
)
from repro.experiments.fingerprint import runner_fingerprint
from repro.utils.logging import get_logger
from repro.version import __version__

logger = get_logger("campaign")

#: Bumped whenever the cell/payload contract changes incompatibly; part of
#: every cache key, so stale entries can never be served to new code.
#: (2: package-version key component replaced by runner source fingerprints.)
CACHE_SCHEMA_VERSION = 2

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".comdml-cache"

#: Environment variable naming the default cache root; an explicit
#: ``--cache-dir`` always wins (see :func:`resolve_cache_dir`).
CACHE_DIR_ENV = "COMDML_CACHE_DIR"

#: Cache layout patterns: two-hex-digit shard directories holding
#: ``<sha256 hex>.json`` entry files (plus quarantined ``*.corrupt``
#: siblings awaiting ``clean``).
_HEX2_RE = re.compile(r"[0-9a-f]{2}")
_KEY_FILE_RE = re.compile(r"[0-9a-f]{64}\.json")
_CORRUPT_FILE_RE = re.compile(r"[0-9a-f]{64}\.json\.corrupt")

#: Registered cell runners: name -> dotted "module:function" path.  The
#: indirection keeps this module import-light and cycle-free; pool
#: processes resolve the callable lazily inside the subprocess.
CELL_RUNNERS: dict[str, str] = {
    "table1-setting": "repro.experiments.table1:run_campaign_cell",
    "table2-cell": "repro.experiments.table2:run_campaign_cell",
    "table3-cell": "repro.experiments.table3:run_campaign_cell",
    "fig1-timeline": "repro.experiments.fig1:run_campaign_cell",
    "fig3-bar": "repro.experiments.fig3:run_campaign_cell",
    "privacy-mechanism": "repro.experiments.privacy:run_campaign_cell",
    "compare-method": "repro.experiments.comparison:run_campaign_cell",
    "ablation-granularity": "repro.experiments.ablations:granularity_cell",
    "ablation-heterogeneity": "repro.experiments.ablations:heterogeneity_cell",
    "ablation-pairing": "repro.experiments.ablations:pairing_cell",
    "ablation-allreduce": "repro.experiments.ablations:allreduce_cell",
    "demo-cell": "repro.experiments.backends.demo:demo_cell",
}

#: Campaign presets the CLI can run by name: name -> dotted path of a
#: module-level :class:`CampaignPreset`.
CAMPAIGN_PRESETS: dict[str, str] = {
    "table1": "repro.experiments.table1:CAMPAIGN_PRESET",
    "table2": "repro.experiments.table2:CAMPAIGN_PRESET",
    "table3": "repro.experiments.table3:CAMPAIGN_PRESET",
    "fig1": "repro.experiments.fig1:CAMPAIGN_PRESET",
    "fig3": "repro.experiments.fig3:CAMPAIGN_PRESET",
    "privacy": "repro.experiments.privacy:CAMPAIGN_PRESET",
    "ablation-granularity": "repro.experiments.ablations:GRANULARITY_PRESET",
    "ablation-heterogeneity": "repro.experiments.ablations:HETEROGENEITY_PRESET",
    "ablation-pairing": "repro.experiments.ablations:PAIRING_PRESET",
    "ablation-allreduce": "repro.experiments.ablations:ALLREDUCE_PRESET",
}


def register_cell_runner(name: str, dotted_path: str) -> None:
    """Register (or override) a cell runner under ``name``.

    ``dotted_path`` must be a ``"package.module:function"`` reference to a
    module-level callable taking the cell parameters as keyword arguments.
    """
    if ":" not in dotted_path:
        raise ValueError(
            f"runner path must look like 'module:function', got {dotted_path!r}"
        )
    CELL_RUNNERS[name] = dotted_path


def resolve_runner(name: str) -> Callable[..., Any]:
    """Import and return the callable registered under ``name``."""
    try:
        dotted = CELL_RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown cell runner {name!r}; expected one of {sorted(CELL_RUNNERS)}"
        ) from None
    return resolve_dotted(dotted)


def resolve_preset(name: str) -> "CampaignPreset":
    """Import and return the :class:`CampaignPreset` registered under ``name``."""
    try:
        dotted = CAMPAIGN_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; expected one of {sorted(CAMPAIGN_PRESETS)}"
        ) from None
    module_name, _, attribute = dotted.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


def run_cell(runner: str, params: Mapping[str, Any]) -> Any:
    """Execute one cell in-process and return its JSON payload."""
    return resolve_runner(runner)(**params)


def resolve_cache_dir(
    explicit: Optional[str] = None, fallback: Optional[str] = None
) -> Optional[str]:
    """Pick the cache root: explicit flag > ``$COMDML_CACHE_DIR`` > fallback.

    Lets CI and multi-user hosts redirect every command's cache without
    threading ``--cache-dir`` through each invocation.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return fallback


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------

def _freeze(value: Any) -> Any:
    """Recursively turn lists into tuples so spec fields are immutable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """Recursively turn tuples back into lists for JSON/params payloads."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one experiment sweep.

    Attributes
    ----------
    name:
        Human-readable campaign name (used in reports and summaries).
    runner:
        Key into :data:`CELL_RUNNERS` naming the function every cell runs.
    axes:
        Ordered ``(axis name, values)`` pairs; the grid is their Cartesian
        product, varying the *last* axis fastest (nested-loop order).
    base:
        ``(key, value)`` pairs merged into every cell's parameters.  An
        axis of the same name overrides a base entry.

    Build instances with :meth:`create`, which normalises plain mappings
    and sequences into the hashable tuple form stored here.
    """

    name: str
    runner: str
    axes: tuple[tuple[str, tuple], ...] = ()
    base: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.runner:
            raise ValueError("campaign runner must be non-empty")
        seen: set[str] = set()
        for axis, values in self.axes:
            if axis in seen:
                raise ValueError(f"duplicate axis {axis!r}")
            seen.add(axis)
            if not values:
                raise ValueError(f"axis {axis!r} has no values")

    @classmethod
    def create(
        cls,
        name: str,
        runner: str,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        base: Optional[Mapping[str, Any]] = None,
    ) -> "CampaignSpec":
        """Build a spec from plain mappings (axis order = mapping order)."""
        return cls(
            name=name,
            runner=runner,
            axes=tuple(
                (axis, tuple(_freeze(v) for v in values))
                for axis, values in (axes or {}).items()
            ),
            base=tuple((key, _freeze(value)) for key, value in (base or {}).items()),
        )

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of cells the grid expands to."""
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count

    def expand(self) -> tuple[dict[str, Any], ...]:
        """Materialise the grid into per-cell parameter dictionaries.

        Cells are ordered like nested loops over the axes in declaration
        order (first axis outermost), which keeps the expansion — and
        therefore every report built from it — deterministic.  Tuple values
        are thawed back into lists so parameters survive a JSON round trip
        unchanged.
        """
        names = [axis for axis, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        cells = []
        for combination in product(*value_lists):
            params = dict(self.base)
            params.update(zip(names, combination))
            cells.append({key: _thaw(value) for key, value in params.items()})
        return tuple(cells)

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_json`)."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "name": self.name,
            "runner": self.runner,
            "axes": [[axis, _thaw(list(values))] for axis, values in self.axes],
            "base": {key: _thaw(value) for key, value in self.base},
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.create(
            name=payload["name"],
            runner=payload["runner"],
            axes={axis: values for axis, values in payload.get("axes", [])},
            base=payload.get("base", {}),
        )

    def save(self, path: str | Path) -> None:
        """Write the spec to a JSON file (parent directories are created)."""
        atomic_write_json(Path(path), self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))


@dataclass(frozen=True)
class CampaignPreset:
    """A named, CLI-runnable campaign: spec builder + result formatter."""

    #: Builds the campaign's :class:`CampaignSpec` (accepts overrides as kwargs).
    build_spec: Callable[..., CampaignSpec]
    #: Renders the finished :class:`CampaignResult` for the terminal.
    format_result: Callable[["CampaignResult"], str]


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------

def cell_key(runner: str, params: Mapping[str, Any]) -> str:
    """Stable content hash of one cell (parameters + runner code fingerprint).

    Any change to the cell parameters, the cache schema, or the source of
    the runner's module (including its intra-``repro`` import closure —
    see :mod:`repro.experiments.fingerprint`) yields a different key, so
    the cache can only ever serve results produced by equivalent code on
    an identical configuration.  Edits to *unrelated* modules — and
    version bumps — leave keys (and therefore warm caches) untouched.
    """
    dotted = CELL_RUNNERS.get(runner)
    fingerprint = runner_fingerprint(dotted) if dotted is not None else None
    canonical = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "runner": runner,
            "params": params,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write_json(
    target: Path, payload: Any, default: Optional[Callable[[Any], Any]] = None
) -> None:
    """Write JSON via a sibling temp file + ``os.replace`` (crash-safe).

    Parent directories are created; ``default`` is passed to ``json.dump``
    for non-JSON-native values.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=default)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class CampaignCache:
    """Content-addressed on-disk store of finished cell payloads.

    Layout: ``<root>/<key[:2]>/<key>.json``, each file holding the cell's
    runner, parameters, payload, and the compute time of the original run.
    Entries are written atomically, so an interrupted campaign can never
    leave a truncated file behind — resume simply re-runs the missing keys.
    An entry that is unreadable anyway (e.g. a torn write on a filesystem
    without atomic replace) is *quarantined* — renamed to ``*.corrupt`` —
    so it is recomputed exactly once instead of re-parsed on every run;
    :meth:`clear` removes quarantined files along with live entries.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Cache file backing ``key``."""
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[dict[str, Any]]:
        """Return the stored entry for ``key``, or ``None`` on a miss.

        A corrupt entry is treated as a miss and quarantined (renamed to
        ``<key>.json.corrupt``) so the next store overwrites a clean file
        and subsequent runs never re-parse the broken one.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            logger.warning("quarantining unreadable cache entry %s", path)
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
            return None

    def store(
        self,
        key: str,
        runner: str,
        params: Mapping[str, Any],
        payload: Any,
        elapsed_seconds: float,
    ) -> None:
        """Persist one finished cell atomically."""
        atomic_write_json(
            self.path_for(key),
            {
                "key": key,
                "runner": runner,
                "params": dict(params),
                "payload": payload,
                "elapsed_seconds": elapsed_seconds,
                "version": __version__,
            },
        )

    def _entries(self, include_corrupt: bool = False):
        """Paths of files matching the cache layout (``<hex2>/<hex64>.json``).

        Deliberately strict so that ``clear`` pointed at the wrong directory
        (``--cache-dir .``) can never delete spec files, exported results,
        or any other JSON that merely lives under the root.
        """
        if not self.root.exists():
            return
        for shard in self.root.iterdir():
            if not (shard.is_dir() and _HEX2_RE.fullmatch(shard.name)):
                continue
            for path in shard.iterdir():
                if _KEY_FILE_RE.fullmatch(path.name):
                    yield path
                elif include_corrupt and _CORRUPT_FILE_RE.fullmatch(path.name):
                    yield path

    def quarantined(self) -> list[Path]:
        """Quarantined (``*.corrupt``) files currently under the root."""
        return [
            path
            for path in self._entries(include_corrupt=True)
            if path.name.endswith(".corrupt")
        ]

    def clear(self) -> int:
        """Delete every cache entry (including quarantined ``*.corrupt``
        files); returns the number of files removed.

        Only files laid out like cache entries are touched — foreign files
        under the cache root are left alone.
        """
        removed = 0
        for path in self._entries(include_corrupt=True):
            path.unlink()
            removed += 1
        if self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir() and _HEX2_RE.fullmatch(shard.name):
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def cell_payload_digest(payload: Any) -> str:
    """sha256 of a cell payload's canonical JSON form.

    Computed once per cell as results stream in (cache hits included), so
    summary construction consumes digests instead of re-serialising every
    payload after the fact.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CellResult:
    """Outcome of one campaign cell."""

    index: int
    params: dict[str, Any]
    key: str
    status: str  # "hit" or "miss"
    payload: Any
    elapsed_seconds: float
    #: Canonical digest of ``payload``, stamped when the result is created;
    #: the campaign summary folds these through its audit chain.
    payload_digest: str = ""

    @property
    def cached(self) -> bool:
        """Whether the payload was served from the cache."""
        return self.status == "hit"


@dataclass
class CampaignResult:
    """All cell results of one campaign run, in expansion order."""

    spec: CampaignSpec
    cells: tuple[CellResult, ...]
    wall_seconds: float
    jobs: int
    cache_dir: Optional[str] = None
    #: Which execution path ran the pending cells: ``"serial"`` or
    #: ``"process"``.
    backend: str = "serial"
    #: How many of each event kind the run produced.
    event_counts: dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        """Number of cells served from the cache."""
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def misses(self) -> int:
        """Number of cells computed in this run."""
        return len(self.cells) - self.hits

    @property
    def cell_seconds(self) -> float:
        """Total per-cell compute time (cached cells count their original cost)."""
        return sum(cell.elapsed_seconds for cell in self.cells)

    @property
    def speedup(self) -> float:
        """Wall-clock speedup over running every cell serially from scratch."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.cell_seconds / self.wall_seconds

    def payloads(self) -> list[Any]:
        """Cell payloads in deterministic expansion order."""
        return [cell.payload for cell in self.cells]


class CampaignExecutor:
    """Expands a :class:`CampaignSpec` and runs its uncached cells.

    Parameters
    ----------
    spec:
        The campaign to execute.
    cache_dir:
        Root of the on-disk cell cache; ``None`` disables caching (every
        cell recomputes).
    jobs:
        The only execution choice: pending cells run on a process pool of
        ``jobs`` processes when ``jobs > 1`` and more than one cell needs
        computing, and inline otherwise (a single pending cell always
        runs inline — no pool spin-up on a warm resume).
    on_event:
        Optional callable receiving every
        :class:`~repro.experiments.backends.events.BackendEvent` as it
        happens (``cell_cached`` events for hits included) — the hook the
        live progress renderer plugs into.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        cache_dir: Optional[str | Path] = None,
        jobs: int = 1,
        on_event: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if spec.runner not in CELL_RUNNERS:
            raise KeyError(
                f"unknown cell runner {spec.runner!r}; expected one of "
                f"{sorted(CELL_RUNNERS)}"
            )
        self.spec = spec
        self.jobs = jobs
        self.on_event = on_event
        self.cache = CampaignCache(cache_dir) if cache_dir is not None else None

    # ------------------------------------------------------------------
    def plan(self) -> list[tuple[int, dict[str, Any], str, Optional[dict[str, Any]]]]:
        """Expansion plus cache probe: ``(index, params, key, cached entry)``."""
        rows = []
        for index, params in enumerate(self.spec.expand()):
            key = cell_key(self.spec.runner, params)
            entry = self.cache.load(key) if self.cache is not None else None
            rows.append((index, params, key, entry))
        return rows

    def run(
        self,
        force: bool = False,
        on_event: Optional[Callable[[Any], None]] = None,
    ) -> CampaignResult:
        """Execute the campaign and return per-cell results in grid order.

        ``force`` ignores (and overwrites) cached entries.  Interrupting a
        run is safe: finished cells are already on disk, so the next ``run``
        resumes by recomputing only the missing ones.  A failing cell does
        not abort the sweep — the remaining cells still execute (and reach
        the cache) before the first failure is re-raised, so a resumed run
        recomputes only the failed cells.  ``KeyboardInterrupt`` and
        ``SystemExit`` are not cell failures: they stop the run at once.
        """
        emit = on_event or self.on_event or (lambda event: None)
        started = time.perf_counter()
        plan = self.plan()
        results: dict[int, CellResult] = {}
        pending: list[CellTask] = []
        event_counts: Counter[str] = Counter()
        for index, params, key, entry in plan:
            if entry is not None and not force:
                elapsed = float(entry.get("elapsed_seconds", 0.0))
                results[index] = CellResult(
                    index=index,
                    params=params,
                    key=key,
                    status="hit",
                    payload=entry["payload"],
                    elapsed_seconds=elapsed,
                    payload_digest=cell_payload_digest(entry["payload"]),
                )
                event_counts["cell_cached"] += 1
                emit(CellCached(index=index, key=key, elapsed_seconds=elapsed))
            else:
                pending.append(
                    CellTask(
                        index=index,
                        params=params,
                        key=key,
                        dotted=CELL_RUNNERS[self.spec.runner],
                    )
                )

        # A pool only pays off for 2+ cells to compute; a warm resume with
        # one missing cell runs inline.
        if self.jobs > 1 and len(pending) > 1:
            backend, events = "process", run_process(pending, self.jobs)
        else:
            backend, events = "serial", run_serial(pending)
        if pending:
            logger.info(
                "campaign %s: %d/%d cells to compute (%d cached), backend=%s jobs=%d",
                self.spec.name,
                len(pending),
                len(plan),
                len(plan) - len(pending),
                backend,
                self.jobs,
            )
        tasks_by_index = {task.index: task for task in pending}
        failures: list[CellFailed] = []
        for event in events:
            event_counts[event.kind] += 1
            if isinstance(event, CellFinished):
                task = tasks_by_index[event.index]
                if self.cache is not None:
                    self.cache.store(
                        task.key,
                        self.spec.runner,
                        task.params,
                        event.payload,
                        event.elapsed_seconds,
                    )
                results[event.index] = CellResult(
                    index=event.index,
                    params=task.params,
                    key=task.key,
                    status="miss",
                    payload=event.payload,
                    elapsed_seconds=event.elapsed_seconds,
                    payload_digest=cell_payload_digest(event.payload),
                )
            elif isinstance(event, CellFailed):
                logger.warning(
                    "cell %d (%s) failed: %s",
                    event.index,
                    event.key[:12],
                    event.error,
                )
                failures.append(event)
            emit(event)
        if failures:
            raise failures[0].exception

        return CampaignResult(
            spec=self.spec,
            cells=tuple(results[index] for index in sorted(results)),
            wall_seconds=time.perf_counter() - started,
            jobs=self.jobs,
            cache_dir=str(self.cache.root) if self.cache is not None else None,
            backend=backend,
            event_counts=dict(event_counts),
        )


def execute_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: Optional[str | Path] = None,
    force: bool = False,
    on_event: Optional[Callable[[Any], None]] = None,
) -> CampaignResult:
    """One-shot convenience wrapper around :class:`CampaignExecutor`."""
    return CampaignExecutor(
        spec, cache_dir=cache_dir, jobs=jobs, on_event=on_event
    ).run(force=force)
