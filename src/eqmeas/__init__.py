"""Equilibrium measures on unstable leaves of partially hyperbolic maps.

Reference measures built from Bowen-ball covers on unstable leaves,
evolved and averaged into candidate equilibrium states, with structural
diagnostics (pressure slopes, Gibbs ratios, holonomy Jacobians, local
product structure) on a small catalog of exactly solvable systems.
"""

from .core import (SystemSpec, Potential, birkhoff_sum, constant_potential,
                   dyn_metric, iterate, leaf_point, mod1, torus_dist, wrap,
                   zero_potential)
from .catalog import (CatalogEntry, SlowFlowProfile, as_rational,
                      base_cosine_potential, catalog_keys, fiber_point_mass,
                      fiber_speed_density, flow_time_one, geometric_potential,
                      get_system, make_skew_product, make_slowed_product,
                      make_toral_automorphism)
from .bowen import SeparatedNet, ball_width, net_size, separated_net
from .pressure import (PressureEstimate, check_submultiplicativity,
                       estimate_pressure, log_partition_sum)
from .caratheodory import (CoverSolution, LeafMeasure, caratheodory_dim,
                           cover_cost, mass_diagnostics, reference_measure)
from .equilibrium import (ConditionalFamily, EvolveResult, GibbsReport,
                          PhaseMeasure, Rectangle, birkhoff_probe,
                          convergence_profile, density_vs_reference,
                          disintegrate, evolve_average, gibbs_ratio,
                          holonomy_jacobian, pairwise_evolve_tv,
                          product_structure_check, pushforward, scaling_check,
                          transitivity_probe)

__version__ = "0.1.0"

__all__ = [
    "SystemSpec", "Potential", "birkhoff_sum", "constant_potential",
    "dyn_metric", "iterate", "leaf_point", "mod1", "torus_dist", "wrap",
    "zero_potential",
    "CatalogEntry", "SlowFlowProfile", "as_rational", "base_cosine_potential",
    "catalog_keys", "fiber_point_mass", "fiber_speed_density",
    "flow_time_one", "geometric_potential", "get_system", "make_skew_product",
    "make_slowed_product", "make_toral_automorphism",
    "SeparatedNet", "ball_width", "net_size", "separated_net",
    "PressureEstimate", "check_submultiplicativity", "estimate_pressure",
    "log_partition_sum",
    "CoverSolution", "LeafMeasure", "caratheodory_dim", "cover_cost",
    "mass_diagnostics", "reference_measure",
    "ConditionalFamily", "EvolveResult", "GibbsReport", "PhaseMeasure",
    "Rectangle", "birkhoff_probe", "convergence_profile",
    "density_vs_reference", "disintegrate", "evolve_average", "gibbs_ratio",
    "holonomy_jacobian", "pairwise_evolve_tv", "product_structure_check",
    "pushforward", "scaling_check", "transitivity_probe",
    "__version__",
]
