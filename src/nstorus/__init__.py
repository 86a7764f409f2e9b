"""Pseudo-spectral 2D Navier-Stokes on the torus with a Besov-norm toolkit."""

from .admissible import (
    appendix_a_infima,
    appendix_a_max,
    check_global,
    check_local,
    derive_exponents,
    reproduce_reference_table,
    scan_region,
)
from .besov import (
    BesovParams,
    besov_norm,
    besov_value,
    check_embedding,
    interpolation_ratio,
    lp_norm,
    sobolev_norm,
)
from .fields import (
    GridField,
    SpectralField,
    load_snapshot,
    random_field,
    save_snapshot,
)
from .nonlinear import (
    bilinear_b,
    bilinear_b_oracle,
    trilinear,
    verify_classical_trilinear,
    verify_energy_lemma,
    verify_estimate_chain,
)
from .scenario import Scenario
from .solver import (
    SolverConfig,
    solve_direct,
    solve_local,
    solve_split,
    solve_x,
    solve_y,
    split_data,
    uniqueness_probe,
)
from .stokes import ForcingSpec, apply_a, semigroup, stokes_solve

__version__ = "0.1.0"

__all__ = [
    "BesovParams",
    "ForcingSpec",
    "GridField",
    "Scenario",
    "SolverConfig",
    "SpectralField",
    "appendix_a_infima",
    "appendix_a_max",
    "apply_a",
    "besov_norm",
    "besov_value",
    "bilinear_b",
    "bilinear_b_oracle",
    "check_embedding",
    "check_global",
    "check_local",
    "derive_exponents",
    "interpolation_ratio",
    "load_snapshot",
    "lp_norm",
    "random_field",
    "reproduce_reference_table",
    "save_snapshot",
    "scan_region",
    "semigroup",
    "sobolev_norm",
    "solve_direct",
    "solve_local",
    "solve_split",
    "solve_x",
    "solve_y",
    "split_data",
    "stokes_solve",
    "trilinear",
    "uniqueness_probe",
    "verify_classical_trilinear",
    "verify_energy_lemma",
    "verify_estimate_chain",
]
