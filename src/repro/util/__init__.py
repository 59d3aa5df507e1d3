"""Shared utilities: day-granularity time, intervals, RNG streams, statistics.

The whole reproduction operates at day granularity, matching the paper's
datasets (daily CRL downloads, daily DNS scans, WHOIS creation *dates*,
certificate notBefore/notAfter compared at day precision).
"""

from repro.util.dates import (
    Day,
    day,
    day_to_date,
    day_to_iso,
    month_of,
    month_key,
    parse_day,
    year_of,
)
from repro.util.intervals import Interval, interval_sweep_join
from repro.util.rng import RngStream, split_seed
from repro.util.stats import (
    Ecdf,
    SurvivalCurve,
    median,
    percentile,
)
from repro.util.storage import dump_jsonl

__all__ = [
    "Day",
    "day",
    "day_to_date",
    "day_to_iso",
    "month_of",
    "month_key",
    "parse_day",
    "year_of",
    "Interval",
    "interval_sweep_join",
    "RngStream",
    "split_seed",
    "Ecdf",
    "SurvivalCurve",
    "median",
    "percentile",
    "dump_jsonl",
]
