"""End-to-end system: cores -> (optional cache hierarchy) -> MSHR file
-> controller -> scheme -> DRAM devices, in the paper's 16-copy rate
mode.  Every LLC miss enters through the MSHR file, whatever its size
(``mshr_entries = 0`` builds the compat file, which never fills or
coalesces).

``System.run`` builds everything from a :class:`SystemConfig`, a scheme
factory and one workload spec per core, steps the discrete-event engine
until every core finishes its trace, and returns a :class:`RunResult`
with the figures of merit the paper reports: execution time (speedups
are ratios of these), the access rate (the NM share of demand requests,
Fig. 8's metric), and the energy/EDP breakdown.

Two trace modes:

* ``"miss"`` (default) — the workload model emits the LLC miss stream
  directly; fast, used by every figure but Table III.
* ``"reference"`` — references run through the modelled L1/L2 hierarchy;
  slower, used by ``repro figure table3`` and integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cache.hierarchy import CacheHierarchy, HierarchyOutcome
from repro.cpu.controller import ControllerStats, FlatMemoryController
from repro.cpu.core import Core, CoreStats
from repro.cpu.mshr import MSHRFile
from repro.dram.channel import ChannelStats
from repro.dram.device import MemoryDevice
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.schemes.base import MemoryScheme, SchemeStats
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, SimulationError
from repro.telemetry import EventTracer, Telemetry
from repro.workloads.model import WorkloadModel, WorkloadSpec
from repro.xmem.address import AddressSpace
from repro.xmem.translation import FrameAllocator, PageTable

#: NM device tail reserved for remap metadata (SILC-FM's entries and
#: CAMEO's burst-extended tag bytes live here address-wise).
METADATA_REGION_BYTES_PER_FRAME = 32

SchemeFactory = Callable[[AddressSpace, SystemConfig], MemoryScheme]


@dataclass
class RunResult:
    """Everything a benchmark needs from one simulation."""

    scheme_name: str
    workload_name: str
    elapsed_cycles: float
    core_stats: List[CoreStats]
    scheme_stats: SchemeStats
    controller_stats: ControllerStats
    nm_stats: ChannelStats
    fm_stats: ChannelStats
    energy: EnergyBreakdown
    edp: float
    extras: Dict[str, float] = field(default_factory=dict)
    #: telemetry snapshot (:meth:`Telemetry.snapshot`: samples,
    #: counters and span aggregates, never trace events) when the run
    #: had ``telemetry_window > 0``; None otherwise.  Omitted entirely
    #: from the JSON round-trip when None so disabled-mode cache entries
    #: stay bit-identical to pre-telemetry ones.
    telemetry: Optional[Dict] = None

    @property
    def access_rate(self) -> float:
        """Fraction of demand misses serviced from NM: Fig. 8's metric."""
        return self.scheme_stats.access_rate

    @property
    def nm_demand_fraction(self) -> float:
        """Fraction of demand *bytes* served by NM (``repro run`` prints
        it; Fig. 8 uses :attr:`access_rate`)."""
        return self.controller_stats.nm_demand_fraction

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.core_stats)

    def speedup_over(self, baseline: "RunResult") -> float:
        """The paper's figure of merit: baseline time / this time."""
        if self.elapsed_cycles <= 0:
            raise ValueError("run did not execute")
        return baseline.elapsed_cycles / self.elapsed_cycles

    # ------------------------------------------------------------------
    # JSON round-trip (the experiment executor's on-disk result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """A JSON-serialisable dict that :meth:`from_dict` inverts exactly
        (every stats field is an int/float, which ``json`` round-trips
        bit-identically)."""
        import dataclasses

        data = {
            "scheme_name": self.scheme_name,
            "workload_name": self.workload_name,
            "elapsed_cycles": self.elapsed_cycles,
            "core_stats": [dataclasses.asdict(c) for c in self.core_stats],
            "scheme_stats": dataclasses.asdict(self.scheme_stats),
            "controller_stats": dataclasses.asdict(self.controller_stats),
            "nm_stats": dataclasses.asdict(self.nm_stats),
            "fm_stats": dataclasses.asdict(self.fm_stats),
            "energy": dataclasses.asdict(self.energy),
            "edp": self.edp,
            "extras": dict(self.extras),
        }
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        return cls(
            scheme_name=data["scheme_name"],
            workload_name=data["workload_name"],
            elapsed_cycles=data["elapsed_cycles"],
            core_stats=[CoreStats(**c) for c in data["core_stats"]],
            scheme_stats=SchemeStats(**data["scheme_stats"]),
            controller_stats=ControllerStats(**data["controller_stats"]),
            nm_stats=ChannelStats(**data["nm_stats"]),
            fm_stats=ChannelStats(**data["fm_stats"]),
            energy=EnergyBreakdown(**data["energy"]),
            edp=data["edp"],
            extras=dict(data["extras"]),
            telemetry=data.get("telemetry"),
        )


class System:
    """One complete simulated machine.

    ``tracer`` receives the run's Chrome trace events (instant events,
    counter tracks, span slices and flows); it needs
    ``config.telemetry_window > 0``.  Without one the run keeps its
    samples, counters and span aggregates and records no events.
    """

    def __init__(self, config: SystemConfig, scheme_factory: SchemeFactory,
                 workloads: List[WorkloadSpec], misses_per_core: int, *,
                 alloc_policy: str = "interleaved",
                 mode: str = "miss",
                 seed: Optional[int] = None,
                 warmup_fraction: float = 0.0,
                 tracer: Optional[EventTracer] = None) -> None:
        if mode not in ("miss", "reference"):
            raise ValueError(f"unknown trace mode {mode!r}")
        if misses_per_core < 1:
            raise ValueError("misses_per_core must be >= 1")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if len(workloads) != config.cores:
            raise ValueError("need one workload spec per core")
        if tracer is not None and config.telemetry_window <= 0:
            raise ValueError("an event tracer needs telemetry_window > 0")
        self.config = config
        #: one spec per core; the result is named after ``workloads[0]``
        self.workloads = workloads
        self.mode = mode
        seed = config.seed if seed is None else seed
        #: misses (system-wide) discarded before statistics collection
        #: starts; the paper measures steady-state Simpoint regions, so
        #: cold-start install traffic should not pollute the figures.
        self._warmup_misses = int(
            warmup_fraction * misses_per_core * config.cores)
        self._warmup_done_at: Optional[float] = None

        self.engine = Engine()
        self.space = AddressSpace(config.nm_bytes, config.fm_bytes)
        self.nm_device = MemoryDevice(
            self.engine, config.nm_timings,
            config.nm_bytes + self.space.nm_blocks * METADATA_REGION_BYTES_PER_FRAME,
            name="nm",
            metadata_base=config.nm_bytes,
        )
        self.fm_device = MemoryDevice(
            self.engine, config.fm_timings, config.fm_bytes, name="fm")
        self.scheme = scheme_factory(self.space, config)
        self.oracle = None
        if config.check_interval > 0:
            from repro.validate import ValidationOracle

            self.oracle = ValidationOracle(
                self.scheme, check_every=config.check_interval)
        self.controller = FlatMemoryController(
            self.engine, self.scheme, self.nm_device, self.fm_device,
            oracle=self.oracle)
        #: MSHR file between the cores and the controller, the only way a
        #: miss reaches it; at the compatibility value
        #: (``mshr_entries = 0``) the file never fills or coalesces, and
        #: results are bit-identical to the pre-MSHR design.
        self.mshr = MSHRFile(self.engine, config.mshr_entries,
                             self.controller)
        self.hierarchy = (
            CacheHierarchy(config.caches, config.cores) if mode == "reference" else None
        )

        allocator = FrameAllocator(self.space, policy=alloc_policy, seed=seed)
        self.cores: List[Core] = []
        self.page_tables: List[PageTable] = []
        self._finished = 0
        self._halt_on_done = False
        for core_id, spec in enumerate(workloads):
            table = PageTable(allocator, asid=core_id)
            self.page_tables.append(table)
            model = WorkloadModel(spec, seed=seed * 1000 + core_id)
            if mode == "miss":
                trace = model.miss_stream(misses_per_core)
                classify = None
            else:
                trace = model.reference_stream(misses_per_core)
                classify = self._classify
            core = Core(
                self.engine, core_id, trace,
                issue_width=config.core.issue_width,
                max_outstanding=config.core.max_outstanding_misses,
                translate=table.translate,
                send_miss=self.mshr.issue,
                send_writeback=self.controller.handle_writeback,
                classify=classify,
                on_finished=self._core_finished,
            )
            self.cores.append(core)

        self.telemetry: Optional[Telemetry] = None
        self.spans = None
        if config.telemetry_window > 0:
            self._setup_telemetry(tracer)
        if config.span_sample_rate > 0:
            # config validation guarantees telemetry exists here
            from repro.telemetry.spans import SpanRecorder

            self.spans = SpanRecorder(
                config.span_sample_rate, self.engine, tracer=tracer)
            self.controller.spans = self.spans
            self.mshr.spans = self.spans

    # ------------------------------------------------------------------
    def _setup_telemetry(self, tracer: Optional[EventTracer]) -> None:
        """Build the hub and register every component's probes.

        All probes are pull-based closures over counters the components
        already maintain, so the only simulation-visible change is the
        periodic sampler event — which reads state and never mutates it,
        keeping the figures of merit identical to an unsampled run.
        """
        hub = Telemetry(window_cycles=self.config.telemetry_window,
                        tracer=tracer)
        self.telemetry = hub
        self.scheme.attach_telemetry(hub)
        self.controller.attach_telemetry(hub)
        self.nm_device.attach_telemetry(hub)
        self.fm_device.attach_telemetry(hub)
        if self.oracle is not None:
            self.oracle.attach_telemetry(hub)
        self.mshr.attach_telemetry(hub)
        cores = self.cores
        hub.meter("cpu.instructions",
                  lambda: sum(c.stats.instructions for c in cores))
        hub.meter("cpu.llc_misses",
                  lambda: sum(c.stats.misses_issued for c in cores))
        hub.meter("cpu.misses_retired",
                  lambda: sum(c.stats.misses_retired for c in cores))
        hub.meter("cpu.stall_events",
                  lambda: sum(c.stats.stall_events for c in cores))
        hub.gauge("cpu.finished_cores",
                  lambda: float(sum(c.finished for c in cores)))
        # sampler stops with the cores so it cannot keep a drained
        # simulation alive (or mask a lost-completion-callback bug)
        hub.attach(self.engine,
                   while_=lambda: self._finished < len(self.cores))

    # ------------------------------------------------------------------
    def _classify(self, paddr: int, is_write: bool, core_id: int) -> HierarchyOutcome:
        return self.hierarchy.access(core_id, paddr, is_write)

    def _core_finished(self, core: Core) -> None:
        self._finished += 1
        if self._halt_on_done and self._finished == len(self.cores):
            # stop the engine right after this event: remaining queued
            # events (in-flight background traffic, samplers) stay
            # unexecuted, exactly as the old per-event step loop did.
            self.engine.halt()

    def _check_warmup(self) -> None:
        if (self._warmup_done_at is None
                and self.scheme.stats.misses >= self._warmup_misses):
            self._warmup_done_at = self.engine.now
            self.scheme.stats.reset()
            self.controller.stats.reset()
            self.mshr.stats.reset()
            if self.spans is not None:
                self.spans.reset_stats()
            for device in (self.nm_device, self.fm_device):
                for channel in device.channels:
                    channel.stats.reset()
                if device.meta_channel is not None:
                    device.meta_channel.stats.reset()

    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> RunResult:
        """Run the engine until every core retires its whole trace.

        Both regions run inside ``Engine.run``'s dispatch loop: the
        warmup region halts right after the event whose scheme dispatch
        reaches the warmup miss count (the count moves nowhere else, so
        that is where a per-event check would fire), the steady-state
        region the moment the last core finishes.  ``max_events`` uses
        the engine's watchdog semantics: exactly ``max_events``
        dispatches are allowed, dispatching one more raises.

        Cyclic garbage collection is suspended for the run: per-miss
        objects (transactions, DRAM requests, event tuples) form no
        cycles and die by reference counting when they complete, so
        collector passes over the event loop are pure overhead (and no
        simulation state observes the collector).
        """
        import gc

        for core in self.cores:
            core.start()
        engine = self.engine
        total = len(self.cores)
        budget = max_events
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        try:
            self._halt_on_done = True
            if self._warmup_misses > 0:
                self.controller.halt_at_misses = self._warmup_misses
                before = engine.events_dispatched
                try:
                    engine.run(max_events=budget)
                finally:
                    self.controller.halt_at_misses = math.inf
                if budget is not None:
                    budget -= engine.events_dispatched - before
                self._check_warmup()
            if self._finished < total:
                engine.run(max_events=budget)
            if self._finished < total:
                raise SimulationError(
                    f"event queue drained with {total - self._finished}"
                    " cores unfinished (lost completion callback?)"
                )
        finally:
            self._halt_on_done = False
            if collecting:
                gc.enable()
        finish = max(core.stats.finish_time for core in self.cores)
        elapsed = finish - (self._warmup_done_at or 0.0)
        if self.oracle is not None:
            # end-of-run bijection proof: every subblock accounted for.
            self.oracle.full_check()
        if self.telemetry is not None:
            # flush the partial final window (the periodic sampler
            # stopped when the last core finished); drain() is
            # idempotent, so a run that halted exactly on a window
            # boundary does not get a duplicate zero-width sample
            self.telemetry.drain()
        return self._result(elapsed)

    def _result(self, elapsed: float) -> RunResult:
        nm_stats = self.nm_device.stats()
        fm_stats = self.fm_device.stats()
        energy_model = EnergyModel()
        energy = energy_model.breakdown(
            nm_stats.bytes_total, fm_stats.bytes_total, elapsed)
        edp = energy_model.edp(
            nm_stats.bytes_total, fm_stats.bytes_total, elapsed)
        extras = {
            "nm_utilization": self.nm_device.utilization(elapsed),
            "fm_utilization": self.fm_device.utilization(elapsed),
            "page_reclaims": float(
                sum(t.reclaims for t in self.page_tables)),
        }
        if self.oracle is not None:
            extras["oracle_accesses_checked"] = float(
                self.oracle.accesses_checked)
            extras["oracle_full_scans"] = float(self.oracle.full_scans)
        extras.update(self.mshr.extras())
        telemetry_snap = None
        if self.telemetry is not None:
            telemetry_snap = self.telemetry.snapshot()
            if self.spans is not None:
                spans_snap = self.spans.snapshot()
                spans_snap["rows_declared"] = list(self.scheme.SPAN_ROWS)
                # the controller's post-warmup demand-latency total: the
                # reconciliation target for the span stage sums (repro
                # analyze reports the coverage ratio)
                spans_snap["demand_stall_cycles"] = \
                    self.controller.stats.total_miss_latency
                telemetry_snap["spans"] = spans_snap
        return RunResult(
            scheme_name=self.scheme.name,
            workload_name=self.workloads[0].name,
            elapsed_cycles=elapsed,
            core_stats=[core.stats for core in self.cores],
            scheme_stats=self.scheme.stats,
            controller_stats=self.controller.stats,
            nm_stats=nm_stats,
            fm_stats=fm_stats,
            energy=energy,
            edp=edp,
            extras=extras,
            telemetry=telemetry_snap,
        )
