"""Best constants in weighted Wirtinger inequalities for periodic weights."""

__version__ = "0.1.0"

from .weights import (ClassMembership, PeriodicWeight, combine, product,
                      sine_family, sqrt_ratio)
from .transform import (ChangeOfVariables, PiecewiseLinearMap, build_cov,
                        c_pq, functional_eq_residual, h_pq, h_pq_inv,
                        substitution_check, transported_geometric_mean)
from .spectral import (Mesh, SolverError, SpectralResult, assemble,
                       best_constant, build_mesh, converge, exact_constant,
                       fem_constant, rayleigh_quotient)
from .sharpness import (BoundReport, ExtremalProfile, PowerWeightPair,
                        bound_general, bound_power, closed_form_pq0,
                        extremal_fn_pq, extremal_weight_pq, mu_constant,
                        sharpness_characterization, verify_sharpness)

__all__ = [
    "ClassMembership", "PeriodicWeight", "combine", "product",
    "sine_family", "sqrt_ratio",
    "ChangeOfVariables", "PiecewiseLinearMap", "build_cov", "c_pq",
    "functional_eq_residual", "h_pq", "h_pq_inv", "substitution_check",
    "transported_geometric_mean",
    "Mesh", "SolverError", "SpectralResult", "assemble", "best_constant",
    "build_mesh", "converge", "exact_constant", "fem_constant",
    "rayleigh_quotient",
    "BoundReport", "ExtremalProfile", "PowerWeightPair", "bound_general",
    "bound_power", "closed_form_pq0", "extremal_fn_pq", "extremal_weight_pq",
    "mu_constant", "sharpness_characterization", "verify_sharpness",
]
