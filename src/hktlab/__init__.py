"""Verification toolkit for quaternionic Dolbeault calculus and HKT constructions."""

# suites first: imported first, report would load numpy ahead of the other
# modules, which leaves the heap about 0.5 MB larger at peak
from .suites import SUITES, ScenarioConfig, Tolerances, run_suite
from .report import CheckRecord, VerificationReport

__version__ = "0.1.0"

__all__ = ["CheckRecord", "VerificationReport", "SUITES", "ScenarioConfig",
           "Tolerances", "run_suite", "__version__"]
