"""Smoothened complete electrode model of EIT with series-reversion reconstruction.

The package is organized in layers: ``mesh`` (geometry, electrode patches,
partitions), ``model`` (conductivity parametrizations and their derivatives),
``fem`` (the variational solver), ``calculus`` (derivatives of the
current-to-voltage map), ``inversion`` (regularized and subspace inverses,
reversion, sequential linearization), and ``harness`` (simulation,
experiments, CLI plumbing).
"""

from .calculus import DerivativeStack, vec
from .fem import (
    AssembledSystem,
    CurrentBasis,
    IndefiniteSystemError,
    SolutionSet,
    apply_P,
    assemble,
    bform_eval,
    current_basis,
    forward_map,
    solve_forward,
)
from .harness import (
    CASES,
    ExperimentCase,
    Reconstructor,
    build_models,
    draw_from_prior,
    experiment1,
    experiment2,
    indicators,
    simulate_measurements,
)
from .inversion import (
    AssumptionViolatedError,
    NoiseModel,
    PriorGammas,
    PriorModel,
    ReversionResult,
    SubspacePseudoInverse,
    TikhonovInverse,
    build_noise_cov,
    build_prior,
    project_in_out,
    revert,
    sequential_linearize,
    solve_tikhonov,
)
from .mesh import (
    ElectrodeLayout,
    Partition,
    SimplicialMesh,
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
    load_mesh,
    load_partition,
    nearest_neighbor_project,
    save_mesh,
    save_partition,
)
from .model import (
    AdmissibilityError,
    ConductivityPair,
    ModelConfig,
    ParamVector,
    Parametrization,
    bump,
    contact_admissible,
    dtau,
    eval_sigma,
    eval_zeta_cem,
    eval_zeta_smooth,
)

__version__ = "0.1.0"
