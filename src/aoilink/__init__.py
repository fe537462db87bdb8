"""Energy-age analysis of a status-update link with bounded retransmissions.

Closed-form average age-of-information and average energy consumption for a
sense/transmit/feedback loop over an unreliable channel, two independent
Monte Carlo estimators that validate them, and sweep utilities that emit
energy-age tradeoff curves.

The closed forms and sweeps need only the standard library. The simulator
and validation names, and those two submodules, need numpy and load on
first access (PEP 562), so closed-form callers never import it.
"""

import importlib

from .analytic import (
    EnergyParams,
    FixedFailureLink,
    LinkSpec,
    MetricPoint,
    Policy,
    PowerModel,
    RayleighLink,
    avg_aoi,
    avg_energy,
    cycle_length_moments,
    cycle_length_pmf,
    dbm_to_watts,
    delivered_tx_count_mean,
    delivered_tx_count_pmf,
    evaluate,
    failure_prob,
    noise_from_reference_snr,
    pow_complement,
    sense_count_mean,
    sense_count_pmf,
    transmit_energy,
)
from .sweep import (
    EsSweep,
    MSweep,
    PowerSweep,
    TradeoffCurve,
    dbm_grid,
    es_sweep,
    m_sweep,
    normalize_curve,
    pareto_front,
    power_sweep,
)

# Names whose home module imports numpy -> that module, loaded on first access.
_LAZY = {
    "SimConfig": "simulator",
    "SimResult": "simulator",
    "SlotEvent": "simulator",
    "SlotMachine": "simulator",
    "age_trace": "simulator",
    "run_cycle_sim": "simulator",
    "run_slot_sim": "simulator",
    "sample_cycles": "simulator",
    "write_age_trace": "simulator",
    "ValidationPoint": "validation",
    "ValidationReport": "validation",
    "build_report": "validation",
    "within_tolerance": "validation",
}

__version__ = "0.1.0"

__all__ = [
    "EnergyParams",
    "FixedFailureLink",
    "LinkSpec",
    "MetricPoint",
    "Policy",
    "PowerModel",
    "RayleighLink",
    "avg_aoi",
    "avg_energy",
    "cycle_length_moments",
    "cycle_length_pmf",
    "dbm_to_watts",
    "delivered_tx_count_mean",
    "delivered_tx_count_pmf",
    "evaluate",
    "failure_prob",
    "noise_from_reference_snr",
    "pow_complement",
    "sense_count_mean",
    "sense_count_pmf",
    "transmit_energy",
    "SimConfig",
    "SimResult",
    "SlotEvent",
    "SlotMachine",
    "age_trace",
    "run_cycle_sim",
    "run_slot_sim",
    "sample_cycles",
    "write_age_trace",
    "EsSweep",
    "MSweep",
    "PowerSweep",
    "TradeoffCurve",
    "dbm_grid",
    "es_sweep",
    "m_sweep",
    "normalize_curve",
    "pareto_front",
    "power_sweep",
    "ValidationPoint",
    "ValidationReport",
    "build_report",
    "within_tolerance",
]


def __getattr__(name: str):
    if name in _LAZY.values():  # the submodules themselves
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
