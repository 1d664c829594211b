"""SILC-FM — the paper's primary contribution."""

from repro.core.activity import ActivityMonitor
from repro.core.bitvector import BitVectorHistoryTable, history_index
from repro.core.bypass import BandwidthBalancer
from repro.core.metadata import COUNTER_MAX, FULL_BITVEC, FrameMetadata
from repro.core.predictor import WayPredictor
from repro.core.silcfm import METADATA_ENTRY_BYTES, SilcFmScheme

__all__ = [
    "ActivityMonitor",
    "BandwidthBalancer",
    "BitVectorHistoryTable",
    "COUNTER_MAX",
    "FULL_BITVEC",
    "FrameMetadata",
    "METADATA_ENTRY_BYTES",
    "SilcFmScheme",
    "WayPredictor",
    "history_index",
]
