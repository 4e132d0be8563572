"""Non-Hermitian Yao-Lee lattice models and their spectral diagnostics."""

from .errors import ConfigurationError, ConvergenceError
from .models import (
    BLOCH_BASIS,
    BlochMatrix,
    ClosedFormSpectrum,
    Coupling3,
    FlavourBondTable,
    M1,
    M2,
    ModelConfig,
    Variant,
    bloch_hamiltonian,
    bloch_matrix_grid,
    branch_sqrt,
    closed_form_spectrum,
    default_dmi_vectors,
    effective_couplings,
    flavour_bond_table,
    shifted_structure_factors,
    species,
    structure_factor,
    triangle_test,
)
from .eigen import Spectrum, eig, match_eigenvalue_sets, min_singular_value
from .ep import (
    ArcPolyline,
    DegeneracyReport,
    EPRecord,
    RefineCounters,
    bond_phase_from_k,
    classify_degeneracy,
    ep_closed_form,
    ep_scan,
    fermi_arc_trace,
    k_from_bond_phase,
    model_closed_form_eps,
    reduce_to_bz,
    skin_criterion,
    skin_criterion_any,
)
from .ribbon import (
    ClassifierThresholds,
    CloudIntervals,
    LocalizationRecord,
    NHSESummary,
    RibbonSpec,
    SweepResult,
    build_ribbon,
    diagonalize_ribbon,
    edge_mode_weights,
    localization_profile,
    nhse_summary,
    pbc_cloud_intervals,
    pbc_reference_cloud,
    sweep,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"
