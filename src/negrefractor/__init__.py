"""Near-field refractor synthesis in negative-index media with energy loss.

Build a refracting surface between a point source and a set of target points
as an envelope of closed-form refracting sheets, tune the sheet parameters so
the Fresnel-weighted transmitted energy matches a prescribed discrete (or
dyadically refined) target measure, and audit the result by ray tracing.
"""

__version__ = "0.1.0"

from .fresnel import AdmissibilityMargin, MediumPair
from .geometry import QuadratureRule, SourceDomain, build_quadrature, cap_measure, make_cap
from .ovals import OvalParams, Regime, admissible_b, regime_of
from .refractor import EmissionDensity, RefractorState, TargetSpec
from .raytrace import energy_audit, trace_one
from .solver import (
    DiskPatch,
    ProblemConfig,
    RadonProblem,
    Tolerances,
    init_state,
    refine_radon,
    solve_discrete,
    validate,
    verify_weak,
)

__all__ = [
    "AdmissibilityMargin",
    "DiskPatch",
    "EmissionDensity",
    "MediumPair",
    "OvalParams",
    "ProblemConfig",
    "QuadratureRule",
    "RadonProblem",
    "RefractorState",
    "Regime",
    "SourceDomain",
    "TargetSpec",
    "Tolerances",
    "admissible_b",
    "build_quadrature",
    "cap_measure",
    "energy_audit",
    "init_state",
    "make_cap",
    "refine_radon",
    "regime_of",
    "solve_discrete",
    "trace_one",
    "validate",
    "verify_weak",
]
