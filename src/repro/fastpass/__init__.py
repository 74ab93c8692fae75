"""Fastpass-style timeslot arbiter: the §6.1 throughput baseline."""

from .arbiter import TIMESLOT_BYTES, FastpassArbiter
from .comparison import (measure_fastpass_throughput,
                         measure_flowtune_throughput)

__all__ = ["FastpassArbiter", "TIMESLOT_BYTES",
           "measure_fastpass_throughput", "measure_flowtune_throughput"]
