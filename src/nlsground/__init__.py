"""Ground states and normalized solutions of the focusing NLS equation
-Delta u + lambda u = |u|^(p-2) u with Dirichlet conditions on intervals
and rectangles: level curves over the frequency, their mass maps, and the
prescribed-mass problem solved through them."""

# first: loads scipy's LAPACK extension before numpy (see _extensions)
from . import _extensions  # noqa: F401  isort: skip
from .action import (ActionParams, GroundState, SolverOptions, action,
                     energy, ground_state, kappa, mass_slope, nehari_project,
                     nehari_scale, pde_residual, ray_action)
from .curves import (AsymptoticReport, DerivativeMassReport, ExhaustionReport,
                     LevelCurve, MassThreshold, MuNReport, asymptotic_classify,
                     critical_exponent, derivative_mass_check, estimate_mu_N,
                     exhaustion_test, mass_growth_exponent, mass_threshold,
                     resolution_matched_factory, sweep)
from .errors import (CertificationFailed, GridMismatch, InsufficientRange,
                     InvalidSpec, LambdaBelowThreshold, MassAboveBarMu,
                     MassOutOfRange, NlsgroundError, NoBracket, NoConvergence,
                     NonpositiveQuotient, NotCritical, ZeroField)
from .grid import (DomainSpec, Field, Grid, load_field, node_count, norms,
                   save_field, split)
from .nodal import nodal_ground_state
from .normalized import (BranchRecord, Certification, CertificationReport,
                         FMuProfile, NormalizedSolution, PohozaevReport,
                         SupercriticalBoundReport, f_mu_profile,
                         least_energy_certify, pohozaev_check,
                         solve_normalized, supercritical_lambda_bound)
from .spectral import EigenPair, dirichlet_eigenpairs, lambda1, lambda2

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
