"""Tests for the statistical workload model."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.workloads.model import PC_BASE, WorkloadModel, WorkloadSpec
from repro.workloads.trace import trace_stats


def spec(**overrides):
    base = dict(name="toy", mpki=20.0, footprint_pages=500)
    base.update(overrides)
    return WorkloadSpec(**base)


def test_miss_stream_length():
    model = WorkloadModel(spec(), seed=1)
    trace = list(islice(model.miss_stream(1234), 10_000))
    assert len(trace) == 1234


def test_mpki_close_to_target():
    model = WorkloadModel(spec(mpki=25.0), seed=2)
    stats = trace_stats(model.miss_stream(20_000))
    assert stats["mpki"] == pytest.approx(25.0, rel=0.1)


def test_footprint_bounded_by_spec():
    model = WorkloadModel(spec(footprint_pages=100), seed=3)
    stats = trace_stats(model.miss_stream(20_000))
    assert stats["footprint_pages"] <= 100


def test_write_fraction_close_to_target():
    model = WorkloadModel(spec(write_fraction=0.4), seed=4)
    stats = trace_stats(model.miss_stream(20_000))
    assert stats["write_fraction"] == pytest.approx(0.4, abs=0.05)


def test_determinism_per_seed():
    a = list(islice(WorkloadModel(spec(), seed=9).miss_stream(500), 500))
    b = list(islice(WorkloadModel(spec(), seed=9).miss_stream(500), 500))
    assert a == b


def test_different_seeds_differ():
    a = list(islice(WorkloadModel(spec(), seed=1).miss_stream(500), 500))
    b = list(islice(WorkloadModel(spec(), seed=2).miss_stream(500), 500))
    assert a != b


def test_addresses_are_subblock_aligned_and_in_footprint():
    model = WorkloadModel(spec(footprint_pages=50), seed=5)
    for record in model.miss_stream(2000):
        assert record.vaddr % SUBBLOCK_BYTES == 0
        assert record.vaddr < 50 * BLOCK_BYTES
        assert record.pc >= PC_BASE


def test_hot_set_skew():
    """With strong skew, a small fraction of pages receives most misses."""
    model = WorkloadModel(
        spec(hot_fraction=0.05, hot_weight=0.9, footprint_pages=1000), seed=6)
    counts = {}
    for record in model.miss_stream(30_000):
        page = record.vaddr // BLOCK_BYTES
        counts[page] = counts.get(page, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    top_5pct = sum(ranked[: max(1, len(ranked) // 20)])
    assert top_5pct / sum(ranked) > 0.5


def test_spatial_run_affects_sequentiality():
    """High spatial_run produces many consecutive-subblock pairs."""

    def sequential_fraction(spatial_run):
        model = WorkloadModel(spec(spatial_run=spatial_run), seed=7)
        trace = list(islice(model.miss_stream(5000), 5000))
        seq = sum(
            1
            for a, b in zip(trace, trace[1:])
            if b.vaddr - a.vaddr == SUBBLOCK_BYTES
        )
        return seq / len(trace)

    assert sequential_fraction(16.0) > sequential_fraction(1.0) + 0.3


def test_phase_churn_changes_hot_pages():
    stable = WorkloadModel(spec(hot_weight=1.0, hot_fraction=0.02), seed=8)
    churner = WorkloadModel(
        spec(hot_weight=1.0, hot_fraction=0.02, phase_misses=2000,
             phase_shift=1.0), seed=8)

    def hot_pages(model):
        pages = set()
        for record in model.miss_stream(20_000):
            pages.add(record.vaddr // BLOCK_BYTES)
        return pages

    assert len(hot_pages(churner)) > len(hot_pages(stable))


def test_reference_stream_contains_miss_stream_plus_reuse():
    model = WorkloadModel(spec(mpki=50.0), seed=10)
    misses = list(islice(model.miss_stream(100), 100))
    refs = list(islice(model.reference_stream(100), 100_000))
    assert len(refs) > len(misses)
    miss_addrs = [m.vaddr for m in misses]
    ref_addrs = [r.vaddr for r in refs]
    # every miss address appears in the reference stream
    assert set(miss_addrs) <= set(ref_addrs)


@settings(max_examples=20, deadline=None)
@given(mpki=st.floats(min_value=1.0, max_value=60.0),
       spatial=st.floats(min_value=1.0, max_value=32.0))
def test_any_valid_spec_generates(mpki, spatial):
    model = WorkloadModel(spec(mpki=mpki, spatial_run=spatial), seed=11)
    trace = list(islice(model.miss_stream(200), 200))
    assert len(trace) == 200
    assert all(r.gap_instr >= 1 for r in trace)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        spec(mpki=0)
    with pytest.raises(ValueError):
        spec(footprint_pages=1)
    with pytest.raises(ValueError):
        spec(hot_fraction=0.0)
    with pytest.raises(ValueError):
        spec(spatial_run=0.5)
    with pytest.raises(ValueError):
        spec(spatial_run=33.0)
    with pytest.raises(ValueError):
        spec(write_fraction=1.5)


def test_reference_stream_conserves_instructions():
    """The re-references redistribute (not inflate) the miss gaps, so
    both stream modes represent the same instruction count."""
    model_a = WorkloadModel(spec(mpki=10.0), seed=12)
    model_b = WorkloadModel(spec(mpki=10.0), seed=12)
    miss_instr = sum(r.gap_instr for r in model_a.miss_stream(2000))
    ref_instr = sum(r.gap_instr for r in model_b.reference_stream(2000))
    assert abs(ref_instr - miss_instr) / miss_instr < 0.15


def test_page_density_limits_distinct_subblocks():
    model = WorkloadModel(spec(page_density=0.25, footprint_pages=20,
                               spatial_run=8.0), seed=13)
    per_page = {}
    for record in model.miss_stream(20000):
        page = record.vaddr // BLOCK_BYTES
        per_page.setdefault(page, set()).add(record.vaddr % BLOCK_BYTES)
    for page, offsets in per_page.items():
        assert len(offsets) <= 8  # 0.25 * 32


def test_active_region_is_stable_across_revisits():
    model = WorkloadModel(spec(page_density=0.5), seed=14)
    assert model._region_len == 16
    assert model._region_starts[7] is None  # set on the first visit
    start = model._region_start(7)
    assert model._region_starts[7] == start
    assert 0 <= start and start + 16 <= 32
    # a page's window depends on the seed and page only, and every
    # record of the stream stays inside its page's window
    assert WorkloadModel(spec(page_density=0.5), seed=14)._region_start(7) \
        == start
    for record in model.miss_stream(3000):
        begin = model._region_starts[record.vaddr // BLOCK_BYTES]
        assert begin <= record.vaddr % BLOCK_BYTES // SUBBLOCK_BYTES < begin + 16
