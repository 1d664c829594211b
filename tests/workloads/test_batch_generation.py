"""Property proof for the trace a core pulls: ``WorkloadModel.miss_stream``
must emit the same records — same values, same order — however its
consumer interleaves it with other cores' streams, and a longer stream of
the same seed must extend a shorter one.

Rate-mode cores advance one record at a time, interleaved by the event
loop with every other core's stream; each model's private RNG is what
makes a core's trace independent of that interleaving (and so of
``--jobs``, warmup length and scheduling order).  These properties are
the fence around it.
"""

from itertools import islice

from hypothesis import example, given, settings, strategies as st

from repro.workloads.model import WorkloadModel, WorkloadSpec

specs = st.builds(
    WorkloadSpec,
    name=st.sampled_from(["prop-a", "prop-b"]),
    mpki=st.floats(min_value=0.5, max_value=60.0),
    footprint_pages=st.integers(min_value=2, max_value=200),
    hot_fraction=st.floats(min_value=0.05, max_value=1.0),
    hot_weight=st.floats(min_value=0.0, max_value=1.0),
    spatial_run=st.floats(min_value=1.0, max_value=32.0),
    write_fraction=st.floats(min_value=0.0, max_value=1.0),
    phase_misses=st.none() | st.integers(min_value=1, max_value=60),
    phase_shift=st.floats(min_value=0.1, max_value=1.0),
    page_density=st.floats(min_value=1.0 / 32.0, max_value=1.0),
)

#: long-burst spec: spatial runs of ~32 guarantee window boundaries land
#: mid-burst.
BURSTY = WorkloadSpec(name="prop-a", mpki=20.0, footprint_pages=50,
                      spatial_run=32.0)
#: per-access phase churn: the hot set shifts inside a window.
CHURNY = WorkloadSpec(name="prop-b", mpki=5.0, footprint_pages=40,
                      phase_misses=1)


@example(spec=BURSTY, seed=7, n_misses=100, window=64)
@example(spec=BURSTY, seed=7, n_misses=65, window=64)   # one straggler
@example(spec=BURSTY, seed=7, n_misses=63, window=64)   # short trace
@example(spec=BURSTY, seed=7, n_misses=100, window=1)   # record by record
@example(spec=CHURNY, seed=3, n_misses=100, window=7)
@example(spec=BURSTY, seed=1, n_misses=0, window=16)    # empty trace
@given(spec=specs, seed=st.integers(min_value=0, max_value=2**20),
       n_misses=st.integers(min_value=0, max_value=300),
       window=st.integers(min_value=1, max_value=97))
@settings(deadline=None, max_examples=150)
def test_interleaved_windows_equal_miss_stream(spec, seed, n_misses, window):
    alone = list(WorkloadModel(spec, seed=seed).miss_stream(n_misses))
    assert len(alone) == n_misses

    # a second core's stream, drawn between every window of the first
    mine = WorkloadModel(spec, seed=seed).miss_stream(n_misses)
    other = WorkloadModel(spec, seed=seed + 1).miss_stream(n_misses)
    pulled = []
    while True:
        batch = list(islice(mine, window))
        list(islice(other, window))
        if not batch:
            break
        assert len(batch) == window or len(pulled) + len(batch) == n_misses
        pulled.extend(batch)
    assert pulled == alone

    longer = WorkloadModel(spec, seed=seed).miss_stream(n_misses + window)
    assert list(islice(longer, n_misses)) == alone


@given(seed=st.integers(min_value=0, max_value=2**10))
@settings(deadline=None, max_examples=25)
def test_batch_columns_are_plain_python_scalars(seed):
    """The core feeds record fields straight into engine events and
    stats, so no numpy scalar type may leak in (it would survive
    arithmetic, turn integer-cycle delays into floats of another type
    and change JSON serialisation)."""
    for record in WorkloadModel(BURSTY, seed=seed).miss_stream(40):
        assert type(record.pc) is int
        assert type(record.vaddr) is int
        assert type(record.gap_instr) is int
        assert type(record.is_write) is bool
