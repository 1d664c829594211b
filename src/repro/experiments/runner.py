"""The scheme registry and :func:`run_one`, the one way to simulate.

Every grid, curve and mix the repository computes is a batch of
executor cells (:mod:`repro.experiments.executor`), each simulated by
:func:`run_one`.

Every scheme the paper compares is registered here with its frame-
allocation policy (static schemes differ *only* in allocation policy):

=========  ==========================================================
key        meaning
=========  ==========================================================
nonm       baseline: no die-stacked DRAM (all pages in FM)
alloy      NM as a hardware cache (Alloy-style; FM-only address space)
rand       Random static placement over NM+FM
hma        epoch-based OS migration (HMA)
cam        CAMEO (64 B congruence-group swap)
camp       CAMEO + next-3-line prefetch
pom        PoM (2 KB counter-threshold migration)
silc       full SILC-FM
silc-swap  Fig. 6 stage 1: interleaved subblock swap only (1-way,
           no locking/bypass)
silc-lock  Fig. 6 stage 2: + locking
silc-assoc Fig. 6 stage 3: + 4-way associativity
=========  ==========================================================

(Fig. 6 stage 4, + bypassing, is the full ``silc``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.silcfm import SilcFmScheme
from repro.cpu.system import RunResult, System
from repro.schemes.base import MemoryScheme
from repro.schemes.alloycache import AlloyCacheScheme
from repro.schemes.cameo import CameoPrefetchScheme, CameoScheme
from repro.schemes.hma import HmaScheme
from repro.schemes.pom import PomScheme
from repro.schemes.static import StaticScheme
from repro.sim.config import SystemConfig
from repro.workloads.spec import workload_specs
from repro.xmem.address import AddressSpace


@dataclass(frozen=True)
class SchemeSetup:
    """Factory + OS allocation policy for one registered scheme."""

    key: str
    label: str
    factory: Callable[[AddressSpace, SystemConfig], MemoryScheme]
    alloc_policy: str = "interleaved"


def _silc_factory(**feature_overrides):
    def build(space: AddressSpace, config: SystemConfig) -> SilcFmScheme:
        silc_config = config.silcfm
        if feature_overrides:
            import dataclasses

            silc_config = dataclasses.replace(silc_config, **feature_overrides)
        return SilcFmScheme(space, silc_config)

    return build


SCHEMES: Dict[str, SchemeSetup] = {
    "nonm": SchemeSetup(
        "nonm", "No NM baseline", lambda space, cfg: StaticScheme(space),
        alloc_policy="fm_only"),
    "rand": SchemeSetup(
        "rand", "Random static", lambda space, cfg: StaticScheme(space),
        alloc_policy="random"),
    "hma": SchemeSetup(
        "hma", "HMA (epoch OS)", lambda space, cfg: HmaScheme(space)),
    "cam": SchemeSetup(
        "cam", "CAMEO", lambda space, cfg: CameoScheme(space)),
    "camp": SchemeSetup(
        "camp", "CAMEO+prefetch", lambda space, cfg: CameoPrefetchScheme(space)),
    "pom": SchemeSetup(
        "pom", "PoM", lambda space, cfg: PomScheme(space)),
    "silc": SchemeSetup(
        "silc", "SILC-FM", _silc_factory()),
    "silc-swap": SchemeSetup(
        "silc-swap", "SILC-FM swap only",
        _silc_factory(associativity=1, enable_locking=False, enable_bypass=False)),
    "silc-lock": SchemeSetup(
        "silc-lock", "SILC-FM +locking",
        _silc_factory(associativity=1, enable_bypass=False)),
    "silc-assoc": SchemeSetup(
        "silc-assoc", "SILC-FM +associativity",
        _silc_factory(enable_bypass=False)),
    "alloy": SchemeSetup(
        "alloy", "Alloy cache (NM as cache)",
        lambda space, cfg: AlloyCacheScheme(space),
        alloc_policy="fm_only"),
}


def run_one(scheme_key: str, workload_name: str, config: SystemConfig,
            misses_per_core: int = 20_000, seed: Optional[int] = None,
            mode: str = "miss", warmup_fraction: float = 0.2) -> RunResult:
    """Simulate one (scheme, workload) pair end to end.

    ``workload_name`` is a Table III benchmark, run in rate mode (one
    copy per core), or a mix from :data:`repro.workloads.spec.MIXES`
    (one benchmark per core); the result carries the name as given.  A
    fifth of each trace warms the remap structures before measurement
    starts (the paper measures steady-state Simpoint regions).

    With ``config.check_interval > 0`` the run carries the differential
    oracle (:mod:`repro.validate`) and raises ``InvariantViolation`` on
    the first metadata/bijection inconsistency; the executor's result
    cache keys on the whole config, so checked and unchecked runs never
    share cache entries.
    """
    if scheme_key not in SCHEMES:
        raise KeyError(f"unknown scheme {scheme_key!r}; have {sorted(SCHEMES)}")
    setup = SCHEMES[scheme_key]
    specs = workload_specs(workload_name, config)
    system = System(
        config,
        scheme_factory=setup.factory,
        workload=specs[0],
        misses_per_core=misses_per_core,
        alloc_policy=setup.alloc_policy,
        mode=mode,
        seed=seed,
        workload_per_core=specs,
        warmup_fraction=warmup_fraction,
    )
    result = system.run()
    result.scheme_name = scheme_key
    result.workload_name = workload_name
    return result
