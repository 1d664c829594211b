"""Scheme-state inspection: human-readable dumps of a running system's
internal state, for debugging and for the examples.

``describe_silcfm`` summarises frame occupancy (interleaved / locked /
clean), residency-bit density and counter distributions;
``describe_run`` renders a one-screen report of a finished RunResult.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.silcfm import SilcFmScheme
from repro.stats.report import format_table

if TYPE_CHECKING:  # annotation-only: keeps repro.stats importable from
    # low-level modules (telemetry.spans) without pulling in cpu.system
    from repro.cpu.system import RunResult


def describe_silcfm(scheme: SilcFmScheme) -> str:
    """One-screen summary of a SILC-FM scheme's frame state."""
    clean = interleaved = fully_remapped = locked_fm = locked_nm = 0
    remapped = bits = fm_counts = 0
    for frame in scheme.frames:
        if frame.locked:
            if frame.lock_owner == "fm":
                locked_fm += 1
            else:
                locked_nm += 1
        elif frame.remap is None:
            clean += 1
        elif frame.interleaved:
            interleaved += 1
        else:
            fully_remapped += 1
        if frame.remap is not None:
            remapped += 1
            bits += bin(frame.bitvec).count("1")
            fm_counts += frame.fm_count

    rows = [
        ["frames", len(scheme.frames)],
        ["clean (native only)", clean],
        ["interleaved (two blocks)", interleaved],
        ["fully remapped", fully_remapped],
        ["locked (fm owner)", locked_fm],
        ["locked (nm owner)", locked_nm],
        ["mean resident subblocks",
         f"{bits / remapped:.1f}" if remapped else "-"],
        ["mean fm counter", f"{fm_counts / remapped:.1f}" if remapped else "-"],
        ["history table entries", len(scheme.history)],
        ["predictor way accuracy", f"{scheme.predictor.way_accuracy:.3f}"],
        ["metadata cache hit rate", "{:.3f}".format(
            scheme.meta_cache_hits
            / max(1, scheme.meta_cache_hits + scheme.meta_cache_misses))],
        ["installs / restores", f"{scheme.installs} / {scheme.restores}"],
        ["locks acquired / released",
         f"{scheme.locks_acquired} / {scheme.locks_released}"],
    ]
    return format_table(["state", "value"], rows, title="SILC-FM frame state")


def describe_run(result: RunResult) -> str:
    """One-screen summary of a finished simulation."""
    stats = result.scheme_stats
    controller = result.controller_stats
    rows = [
        ["scheme / workload", f"{result.scheme_name} / {result.workload_name}"],
        ["execution cycles", f"{result.elapsed_cycles:,.0f}"],
        ["LLC misses measured", stats.misses],
        ["NM access rate", f"{stats.access_rate:.3f}"],
        ["bypassed accesses", stats.bypassed],
        ["subblock swaps", stats.subblock_swaps],
        ["2KB migrations", stats.block_migrations],
        ["mean miss latency", f"{controller.mean_miss_latency:.1f} cycles"],
        ["NM demand-bw share", f"{controller.nm_demand_fraction:.3f}"],
        ["NM / FM traffic",
         f"{result.nm_stats.bytes_total >> 10} / "
         f"{result.fm_stats.bytes_total >> 10} KiB"],
        ["energy", f"{result.energy.total_joules:.3e} J"],
        ["EDP", f"{result.edp:.3e} J*s"],
    ]
    return format_table(["metric", "value"], rows, title="Run summary")


def set_occupancy_histogram(scheme: SilcFmScheme) -> Dict[int, int]:
    """How many sets have 0..assoc remapped ways — the conflict-pressure
    profile that motivates associativity (Section III-C)."""
    histogram = {k: 0 for k in range(scheme.assoc + 1)}
    space = scheme.space
    for set_index in range(scheme.num_sets):
        occupied = sum(
            1 for way in space.nm_frames_of_set(set_index, scheme.assoc)
            if scheme.frames[way].remap is not None
        )
        histogram[occupied] += 1
    return histogram
