"""Reliability and regularity estimation for crowdsourced affective
ratings, built on per-task pairwise agreement multigraphs."""

__version__ = "0.1.0"

from .baselines import (
    CategoricalTable,
    DawidSkeneModel,
    categorize_table,
    dawid_skene_fit,
    dawid_skene_rank,
    duration_rank,
)
from .ingest import (
    DIMENSION_SCALES,
    DIMENSIONS,
    AgreementMultigraph,
    ResponseRow,
    ResponseTable,
    TaskGraph,
    build_multigraph,
    load_responses,
    variance_ratio,
)
from .model import (
    DEFAULT_GAMMA_GRID,
    FitConfig,
    FitReport,
    ModelParams,
    Priors,
    e_step,
    fit,
    fit_grid,
    gamma_grid,
    log_posterior,
    m_step,
    update_gamma,
)
from .scoring import (
    ImageReport,
    ImageScores,
    PRResult,
    SubjectReport,
    extreme_subset,
    flag_confidently_unreliable,
    image_scores,
    overhead_curve,
    precision_recall,
    rank_subjects,
)
from .simulate import (
    GenerativeSpec,
    InjectionSpec,
    inject_spammers,
    make_true_params,
    sample_multigraph,
    sample_response_table,
)
