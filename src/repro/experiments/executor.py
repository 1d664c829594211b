"""Parallel, resumable experiment execution.

Reproducing Figs. 6-9 means sweeping 10 schemes across the Table III
workloads — hundreds of independent (scheme, workload, config) *cells*
that the runner previously replayed serially and from scratch.  This
module turns each cell into a unit of work that is

* **parallel** — cells fan out over a ``multiprocessing`` pool
  (``jobs=N``, default ``os.cpu_count()``); the simulation is
  deterministic per cell, so ``jobs=1`` and ``jobs=N`` produce
  bit-identical :class:`RunResult`\\ s, and

* **resumable** — each cell is keyed by a stable SHA-256 hash of its
  full :class:`SystemConfig` + scheme key + workload name + trace
  parameters and memoised in an on-disk JSON store
  (``results/cache/<hash>.json``).  Re-running a figure after a crash or
  a code-irrelevant edit skips completed cells; ``force=True``
  invalidates them.

Worker failures are isolated: a cell that raises is collected as a
:class:`CellFailure` (with its traceback) instead of aborting the whole
sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.cpu.system import RunResult
from repro.experiments.runner import run_one
from repro.sim.config import SystemConfig
from repro.telemetry.artifacts import atomic_write

#: bump when the cell-hash inputs or the RunResult schema change, so a
#: stale cache from an older code version is never replayed.
CACHE_SCHEMA_VERSION = 1

#: default on-disk result store, relative to the current directory.
DEFAULT_CACHE_DIR = os.path.join("results", "cache")


class ExecutorError(RuntimeError):
    """A cell failed and its result was required."""


@dataclass(frozen=True)
class Cell:
    """One (scheme, workload, config) simulation — the executor's unit
    of work.  Frozen and fully picklable so it can cross process
    boundaries and serve as a dict key."""

    scheme_key: str
    workload_name: str
    config: SystemConfig
    misses_per_core: int = 20_000
    seed: Optional[int] = None
    mode: str = "miss"
    warmup_fraction: float = 0.2

    def key(self) -> str:
        """Stable content hash: identical inputs -> identical key across
        processes and interpreter runs (no reliance on ``hash()``)."""
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "scheme": self.scheme_key,
            "workload": self.workload_name,
            "config": dataclasses.asdict(self.config),
            "misses_per_core": self.misses_per_core,
            "seed": self.seed,
            "mode": self.mode,
            "warmup_fraction": self.warmup_fraction,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CellFailure:
    """A cell whose worker raised; the sweep continues without it."""

    cell: Cell
    key: str
    error: str  # formatted traceback from the worker


@dataclass
class Progress:
    """Live sweep accounting, passed to the ``on_progress`` callback
    after every completed cell."""

    total: int
    completed: int = 0
    cache_hits: int = 0
    simulated: int = 0
    failed: int = 0
    started_at: float = field(default_factory=time.monotonic)

    @property
    def elapsed_seconds(self) -> float:
        return max(0.0, time.monotonic() - self.started_at)

    @property
    def cells_per_second(self) -> float:
        # 0.0, not a division by (almost) zero: the first completion can
        # land within the clock's resolution of started_at, and the old
        # 1e-9 elapsed floor turned that into a billions-of-cells/s rate
        elapsed = self.elapsed_seconds
        if self.completed == 0 or elapsed <= 0.0:
            return 0.0
        return self.completed / elapsed

    def render(self) -> str:
        parts = [f"{self.completed}/{self.total} cells"]
        if self.total:
            parts.append(f"{self.cells_per_second:.2f} cells/s")
        if self.cache_hits:
            parts.append(f"{self.cache_hits} cached")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        return ", ".join(parts)


class ResultCache:
    """On-disk JSON store: one ``<cell-hash>.json`` file per result.

    Files are written atomically (a *uniquely named* temp file in the
    cache directory, then ``os.replace``) so neither a crash mid-write
    nor several processes storing the **same key concurrently** — two
    CLI sweeps sharing one ``--cache-dir`` race on every cell they have
    in common — can leave a torn or half-written entry: every reader
    sees either no file or one writer's complete bytes.  Unreadable or
    schema-mismatched files are treated as misses.

    A telemetry-enabled result carries its snapshot (samples, counters,
    span aggregates) inside its one file, as ``RunResult.telemetry``.
    Cells run without an event tracer, so no trace events are cached;
    ``repro run`` is what writes a run's snapshot and its tracer's
    events out as ``.series.json`` / ``.trace.json`` artifacts.  The
    telemetry window is part of the config, hence of the cell hash:
    enabled and disabled runs of the same experiment never share a
    cache entry.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[RunResult]:
        path = self.path(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
            if data.get("schema") != CACHE_SCHEMA_VERSION:
                return None
            return RunResult.from_dict(data["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, key: str, result: RunResult, cell: Optional[Cell] = None) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        data = {
            "schema": CACHE_SCHEMA_VERSION,
            "result": result.to_dict(),
        }
        if cell is not None:
            data["cell"] = {
                "scheme_key": cell.scheme_key,
                "workload_name": cell.workload_name,
                "misses_per_core": cell.misses_per_core,
                "seed": cell.seed,
                "mode": cell.mode,
                "warmup_fraction": cell.warmup_fraction,
            }
        path = self.path(key)
        atomic_write(path, json.dumps(data, sort_keys=True))
        return path


def _execute_cell(cell: Cell) -> RunResult:
    """Simulate one cell (runs inside worker processes)."""
    return run_one(cell.scheme_key, cell.workload_name, cell.config,
                   misses_per_core=cell.misses_per_core, seed=cell.seed,
                   mode=cell.mode, warmup_fraction=cell.warmup_fraction)


def _worker(payload: Tuple[int, Cell]) -> Tuple[int, Optional[Dict], Optional[str]]:
    """Pool entry point: simulate one index-tagged cell, returning
    ``(index, result_dict, None)`` on success or ``(index, None,
    traceback)`` on failure.

    Shipping the result as its JSON dict means the parallel path
    deserialises through exactly the same code as a cache hit — one
    canonical representation, bit-identical everywhere.  The caller
    records a traceback in :attr:`ExperimentExecutor.failures`.
    """
    index, cell = payload
    try:
        return index, _execute_cell(cell).to_dict(), None
    except Exception:
        return index, None, traceback.format_exc()


class ExperimentExecutor:
    """Fans cells out over worker processes, memoising results on disk.

    Parameters
    ----------
    jobs:
        Worker processes (default ``os.cpu_count()``).  ``jobs=1`` runs
        in-process — handy under pdb and for determinism checks.
    cache_dir:
        Directory of the on-disk result store; ``None`` disables
        persistence (results still memoise in memory for the executor's
        lifetime).
    force:
        Ignore *and overwrite* existing cache entries for submitted
        cells (resume-invalidation after a semantics-relevant edit).
    on_progress:
        Called with a :class:`Progress` after every completed cell.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 force: bool = False,
                 on_progress: Optional[Callable[[Progress], None]] = None) -> None:
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.force = force
        self.on_progress = on_progress
        self.failures: List[CellFailure] = []
        self.last_progress: Optional[Progress] = None
        self._memo: Dict[str, RunResult] = {}

    # ------------------------------------------------------------------
    def run_cells(self, cells: Iterable[Cell],
                  strict: bool = False) -> Dict[Cell, RunResult]:
        """Execute every distinct cell, returning ``{cell: result}``.

        Failed cells are recorded in :attr:`failures`.  By default they
        are absent from the mapping; with ``strict``, once the whole
        batch has run, the first failed cell raises
        :class:`ExecutorError` naming it, with its traceback.
        """
        ordered: List[Cell] = []
        seen = set()
        for cell in cells:
            key = cell.key()
            if key not in seen:
                seen.add(key)
                ordered.append(cell)

        progress = Progress(total=len(ordered))
        self.last_progress = progress
        results: Dict[Cell, RunResult] = {}
        pending: List[Tuple[int, Cell, str]] = []

        for index, cell in enumerate(ordered):
            key = cell.key()
            hit = self._lookup(key)
            if hit is not None:
                results[cell] = hit
                progress.completed += 1
                progress.cache_hits += 1
                self._tick(progress)
            else:
                pending.append((index, cell, key))

        if pending:
            by_index = {index: (cell, key) for index, cell, key in pending}
            for index, result_dict, error in self._dispatch(pending):
                cell, key = by_index[index]
                progress.completed += 1
                if error is not None:
                    progress.failed += 1
                    self.failures.append(CellFailure(cell, key, error))
                else:
                    result = RunResult.from_dict(result_dict)
                    self._remember(key, result, cell)
                    results[cell] = result
                    progress.simulated += 1
                self._tick(progress)

        if strict:
            for cell in ordered:
                if cell not in results:
                    error = next(f.error for f in reversed(self.failures)
                                 if f.cell == cell)
                    raise ExecutorError(
                        f"cell ({cell.scheme_key}, {cell.workload_name})"
                        f" failed:\n{error}")
        return {cell: results[cell] for cell in ordered if cell in results}

    def run_cell(self, cell: Cell) -> RunResult:
        """Execute (or recall) a single cell; raises on failure."""
        return self.run_cells([cell], strict=True)[cell]

    # ------------------------------------------------------------------
    def _dispatch(self, pending: List[Tuple[int, Cell, str]]):
        payloads = [(index, cell) for index, cell, _key in pending]
        jobs = min(self.jobs, len(payloads))
        if jobs <= 1:
            for payload in payloads:
                yield _worker(payload)
            return
        import multiprocessing

        with multiprocessing.Pool(processes=jobs) as pool:
            for outcome in pool.imap_unordered(_worker, payloads):
                yield outcome

    def _lookup(self, key: str) -> Optional[RunResult]:
        # the in-memory memo is always valid: force only invalidates
        # *pre-existing* on-disk entries, not work this executor just did
        if key in self._memo:
            return self._memo[key]
        if self.force:
            return None
        if self.cache is not None:
            result = self.cache.load(key)
            if result is not None:
                self._memo[key] = result
            return result
        return None

    def _remember(self, key: str, result: RunResult, cell: Cell) -> None:
        self._memo[key] = result
        if self.cache is not None:
            self.cache.store(key, result, cell)

    def _tick(self, progress: Progress) -> None:
        if self.on_progress is not None:
            self.on_progress(progress)
