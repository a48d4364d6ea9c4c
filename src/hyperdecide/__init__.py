"""Collective decision dynamics on networks with pairwise and three-way ties.

Agents hold a scalar opinion; saturated coupling through weighted edges and
triples drives the population toward deadlock or a decision as the common
effort level crosses a ladder of spectral thresholds. The package builds
and validates instances, integrates the dynamics, locates and classifies
equilibria, and sweeps the effort level into branch diagrams.
"""
from .errors import (
    HyperdecideError,
    DimensionError,
    NonFiniteWeightError,
    AsymmetryError,
    SelfLoopError,
    NegativeWeightError,
    DisconnectedError,
    ZeroDegreeError,
    GenerationError,
    FormatError,
    NotSymmetricError,
    ConvergenceError,
    MultiplicityError,
    DivergenceError,
    NewtonDivergence,
    SingularJacobian,
    NoBistabilityError,
)
from .nonlinearity import (
    SigmoidFamily,
    AssumptionReport,
    make_family,
    tanh_family,
    verify_assumptions,
)
from .hypergraph import (
    Hypergraph2,
    build,
    compute_degrees,
    random_instance,
    scale_two_interactions,
    validation_report,
    to_text,
    from_text,
    save,
    load,
)
from .spectra import (
    Spectrum,
    Thresholds,
    symmetric_eigenvalues,
    general_eigenvalues,
    perron_pair,
    h_matrix,
    thresholds,
    with_pi1_star,
    thresholds_text,
)
from .dynamics import (
    SystemInstance,
    Trajectory,
    vector_field,
    jacobian,
    integrate,
    lyapunov_value,
    sup_norm_report,
    trajectory_csv,
    write_trajectory_csv,
)
from .equilibria import (
    Equilibrium,
    ScalarReduced,
    SeedSpec,
    consensus_gap,
    consensus_roots,
    pi1_star,
    newton_find,
    find_all,
    normal_form_coeffs,
    equilibria_csv,
    write_equilibria_csv,
)
from .bifurcation import (
    BifurcationBranch,
    SweepResult,
    BasinReport,
    make_grid,
    sweep,
    bistability_interval,
    basin_probe,
    diagram_csv,
    write_diagram_csv,
    write_diagram_svg,
)

__version__ = "0.1.0"
