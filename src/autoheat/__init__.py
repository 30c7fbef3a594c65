"""Numerical heat kernel on the modular surface via its spectral expansion."""

from .config import RunConfig
from .forms import (
    MaassDataError,
    MaassFormData,
    Parity,
    load_maass_data,
)
from .heat import (
    HeatState,
    heat_coefficients,
    heat_equation_residual,
    initial_condition_gap,
    profile,
    semigroup_apply,
    uniqueness_gap,
)
from .hyperbolic import HPoint, QuadSpec, reduce_to_fundamental_domain
from .oracle import heat_kernel_plane, periodized_oracle, periodized_oracle_basepoint
from .sobolev import (
    CoeffFn,
    analyze,
    apply_generator,
    apply_one_minus_laplacian,
    apply_resolvent,
    delta_coefficients,
    pairing,
    pairing_s,
    sobolev_norm,
    synthesize_values,
)
from .special import bessel_k_imag, zeta_line
from .spectral_model import SpectralGrid, build_grid
from .synthesis import SynthesisReport, evaluate_heat_kernel

__version__ = "0.1.0"

__all__ = [
    "CoeffFn",
    "HPoint",
    "HeatState",
    "MaassDataError",
    "MaassFormData",
    "Parity",
    "QuadSpec",
    "RunConfig",
    "SpectralGrid",
    "SynthesisReport",
    "analyze",
    "apply_generator",
    "apply_one_minus_laplacian",
    "apply_resolvent",
    "bessel_k_imag",
    "build_grid",
    "delta_coefficients",
    "evaluate_heat_kernel",
    "heat_coefficients",
    "heat_equation_residual",
    "heat_kernel_plane",
    "initial_condition_gap",
    "load_maass_data",
    "pairing",
    "pairing_s",
    "periodized_oracle",
    "periodized_oracle_basepoint",
    "profile",
    "reduce_to_fundamental_domain",
    "semigroup_apply",
    "sobolev_norm",
    "synthesize_values",
    "uniqueness_gap",
    "zeta_line",
]
