"""Statistics collection and ASCII reporting."""

from repro.stats.collectors import Histogram, geometric_mean
from repro.stats.inspect import describe_run, describe_silcfm, set_occupancy_histogram
from repro.stats.report import bar_chart, format_table, grouped_series

__all__ = ["Histogram", "bar_chart", "describe_run", "describe_silcfm",
           "format_table", "geometric_mean", "grouped_series",
           "set_occupancy_histogram"]
