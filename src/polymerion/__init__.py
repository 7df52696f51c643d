"""High-temperature cluster expansions for classical and quantum lattice spins.

The package is organized in layers:

- `model`: interactions, lattice models, finite volumes, boundary
  conditions, and the assembly of finite Hamiltonians.
- `oracle`: exact small-volume reference values (partition functions,
  bond-family fugacities, expectations, correlation ratios).
- `polymers` / `ursell`: connected bond families, their activities, and
  connected-graph (Ursell) weights by three independent routes.
- `series`: truncated cluster series for log Z, correlation ratios,
  local expectations, and infinite-volume free-energy densities.
- `convergence`: certificates with explicit numeric radii (tree forms,
  fixed-point criterion, closed-form and universal radii, root scans).
- `ks`: the reduced-correlation hierarchy solved by fixed-point
  iteration with a certified contraction bound.
- `cli` / `config`: the `polymerion` command and its JSON run files.
"""

from .convergence import (
    FPReport,
    FPResult,
    CriterionReport,
    NNRadius,
    ParkRow,
    ParkScan,
    RadiusScan,
    TreeReport,
    UniversalRadius,
    alpha_norm,
    anchored_polymer_sum,
    beta_radius,
    fp_criterion,
    fp_iterate,
    fp_phi,
    gk_criterion,
    nn_radius,
    park_compare,
    park_table_value,
    tree_bound,
    universal_radius,
)
from .errors import ConfigError, NumericalError, PolymerionError, WrapError
from .ks import KSKernel, KSSolution, build_ks_kernel, ks_solve
from .model import (
    CLASSICAL,
    QUANTUM,
    Hamiltonian,
    Interaction,
    LatticeModel,
    Region,
    assemble_hamiltonian,
    heisenberg_model,
    ising_model,
    operator_norm,
    potts_model,
    xy_model,
)
from .oracle import (
    Observable,
    Oracle,
    gibbs_expectation,
    partition_function,
    reduced_correlation_exact,
    xi_fugacity_exact,
)
from .polymers import (
    Polymer,
    PolymerWeight,
    compatible,
    enumerate_polymers,
    incompatibility_graph,
    mobius_transform,
    polymer_weights,
    rho_fugacity,
    zeta_transform,
)
from .series import (
    CorrelationSeries,
    ExpectationResult,
    TruncatedSeries,
    adaptive_free_energy_series,
    correlation_series,
    expectation_series,
    free_energy_by_site,
    free_energy_density,
    free_energy_series,
    pinned_series,
    site_pinned_series,
)
from .ursell import ursell, ursell_direct, ursell_penrose, ursell_subset_dp

__version__ = "0.1.0"

__all__ = [
    "CLASSICAL",
    "QUANTUM",
    "ConfigError",
    "CorrelationSeries",
    "ExpectationResult",
    "FPReport",
    "FPResult",
    "Hamiltonian",
    "Interaction",
    "CriterionReport",
    "KSKernel",
    "KSSolution",
    "LatticeModel",
    "NNRadius",
    "NumericalError",
    "Observable",
    "Oracle",
    "ParkRow",
    "ParkScan",
    "Polymer",
    "PolymerWeight",
    "PolymerionError",
    "RadiusScan",
    "Region",
    "TreeReport",
    "TruncatedSeries",
    "UniversalRadius",
    "WrapError",
    "adaptive_free_energy_series",
    "alpha_norm",
    "anchored_polymer_sum",
    "assemble_hamiltonian",
    "beta_radius",
    "compatible",
    "correlation_series",
    "enumerate_polymers",
    "expectation_series",
    "fp_criterion",
    "fp_iterate",
    "fp_phi",
    "free_energy_by_site",
    "free_energy_density",
    "free_energy_series",
    "gibbs_expectation",
    "heisenberg_model",
    "incompatibility_graph",
    "gk_criterion",
    "ising_model",
    "build_ks_kernel",
    "ks_solve",
    "mobius_transform",
    "nn_radius",
    "operator_norm",
    "park_compare",
    "park_table_value",
    "partition_function",
    "pinned_series",
    "polymer_weights",
    "potts_model",
    "reduced_correlation_exact",
    "rho_fugacity",
    "site_pinned_series",
    "tree_bound",
    "universal_radius",
    "ursell",
    "ursell_direct",
    "ursell_penrose",
    "ursell_subset_dp",
    "xi_fugacity_exact",
    "xy_model",
]
