"""Synthetic workload generation: distributions, schedules, traces, faults."""

from .arrivals import (
    DISTRIBUTIONS,
    Deterministic,
    Exponential,
    HyperExponential,
    InterArrival,
    Pareto,
    Uniform,
    Weibull,
    from_dict,
)
from .faults import FaultProcess, FaultSchedule, no_faults, resolve_fault_schedule
from .generator import renewal_trace
from .nonstationary import (
    ConstantRate,
    PiecewiseConstantRate,
    RateSchedule,
    SinusoidalRate,
)
from .trace import Trace, TraceStats

__all__ = [
    "InterArrival",
    "Exponential",
    "Deterministic",
    "Uniform",
    "Pareto",
    "HyperExponential",
    "Weibull",
    "DISTRIBUTIONS",
    "from_dict",
    "FaultProcess",
    "FaultSchedule",
    "no_faults",
    "resolve_fault_schedule",
    "Trace",
    "TraceStats",
    "RateSchedule",
    "ConstantRate",
    "PiecewiseConstantRate",
    "SinusoidalRate",
    "renewal_trace",
]
