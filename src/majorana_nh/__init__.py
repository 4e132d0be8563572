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
    species,
    structure_factor,
    triangle_test,
)
from .eigen import RunLog, Spectrum, eig, eig_chiral, eig_species, eigh, min_singular_value
from .ep import (
    ArcPolyline,
    DegeneracyReport,
    EPRecord,
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
    NHSESummary,
    RibbonSpec,
    STATE_DTYPE,
    SweepResult,
    build_ribbon,
    diagonalize_ribbon,
    edge_mode_weights,
    localization_profile,
    nhse_summary,
    pbc_cloud_intervals,
    sweep,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"
