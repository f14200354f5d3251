"""Spectral values of scalar fields on cell complexes via discrete Morse
theory, continuation maps between fields, and closed-form bound arithmetic."""

from .bounds import (
    BoundParams,
    MoserNorm,
    adiabatic_limit_bound,
    chained_bound,
    corollary_bound,
    eta_bound,
    iteration_bound,
    iteration_oracle,
    min_steps,
    moser_norm,
    per_step_bound,
    step_threshold,
)
from .complex import (
    CellComplex,
    ScalarField,
    build_from_simplicial,
    build_torus_grid,
    c0_distance,
    load_field,
    load_simplicial,
    make_field,
)
from .continuation import (
    ContinuationReport,
    continuation_map,
    sandwich_built,
)
from .homology import HomologyClass
from .morse import (
    DiscreteGradient,
    MorseComplex,
    build_gradient,
    build_morse_complex,
    homology_basis,
    verify_d_squared,
)
from .spectral import (
    SpectralReport,
    SweepReport,
    rho,
    spectral_value,
    spectrum,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "CellComplex",
    "ContinuationReport",
    "DiscreteGradient",
    "HomologyClass",
    "MorseComplex",
    "MoserNorm",
    "ScalarField",
    "SpectralReport",
    "SweepReport",
    "adiabatic_limit_bound",
    "build_from_simplicial",
    "build_gradient",
    "build_morse_complex",
    "build_torus_grid",
    "c0_distance",
    "chained_bound",
    "continuation_map",
    "corollary_bound",
    "eta_bound",
    "homology_basis",
    "iteration_bound",
    "iteration_oracle",
    "load_field",
    "load_simplicial",
    "make_field",
    "min_steps",
    "moser_norm",
    "per_step_bound",
    "rho",
    "sandwich_built",
    "spectral_value",
    "spectrum",
    "step_threshold",
    "sweep",
    "verify_d_squared",
]
