"""Interaction-energy toolkit: discrete and continuum energies for
attractive-repulsive pair potentials, minimiser search, structural
diagnostics, and the grid recovery construction."""

__version__ = "0.1.0"

from .configuration import (
    Configuration,
    ConfigurationError,
    ball_mass,
    diameter,
    discrete_energy,
    min_pair_distance,
    per_particle_forces,
    per_particle_potentials,
)
from .diagnostics import (
    DiagnosticsReport,
    build_report,
    diameter_bound_check,
    empirical_morrey_seminorm,
    euler_lagrange_spread,
    fit_power_decay,
    lower_mass_profile,
    stationarity_check,
)
from .measures import (
    AtomicMeasure,
    GridDensity,
    MeasureError,
    continuum_energy_atoms,
    continuum_energy_grid,
    density_to_atoms,
    regrid,
    uniform_ball,
    uniform_box,
    wasserstein1,
)
from .optimizer import OptimOpts, OptimResult, minimize_local, minimize_multistart
from .potentials import (
    InstabilityCertificate,
    Morse,
    PotentialError,
    PotentialMetadata,
    PotentialSpec,
    PowerLaw,
    StabilityReport,
    approximate_laplacian,
    classify_stability,
    metadata,
    numeric_instability_scan,
    potential_from_json,
)
from .recovery import (
    RecoveryError,
    RecoveryResult,
    auxiliary_count_bound,
    build_recovery,
    recovery_convergence_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
