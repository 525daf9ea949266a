"""fcdist: scalp-network connectivity and weight-distribution statistics.

Simulates multichannel EEG from a source model through a lead field,
builds fully connected scalp networks with five coupling metrics (COH,
iCOH, PLV, PLI, AEC), and quantifies the statistical shape of the
connectivity-weight distributions (mean, skewness, kurtosis, normalized
Shannon entropy), with Pearson-correlation reporting across montage x
metric experiment grids and an ingestion mode for stored cross-spectra.
"""

from .connectivity import (
    METRICS,
    ConnectivityMatrix,
    WindowConfig,
    aec_matrix,
    coherence_matrix,
    icoh_matrix,
    pli_matrix,
    plv_matrix,
)
from .correlation import CorrelationResult, pearson_correlation, significance_stars
from .forward import (
    LeadField,
    MultichannelRecord,
    SourceActivity,
    SourceLibrary,
    assemble_source_activity,
    generate_synthetic_leadfield,
    generate_synthetic_sources,
    project_to_scalp,
)
from .montages import BUILTIN_MONTAGES, Montage, get_montage
from .pipeline import (
    ExperimentConfig,
    ExperimentResult,
    run_normative_analysis,
    run_simulation_experiment,
    write_results,
)
from .spectral import (
    ALPHA,
    DEFAULT_BANDS,
    AnalyticRecord,
    Band,
    CoherencyMatrix,
    CrossSpectrum,
    band_slice,
    bandpass_analytic,
    bartlett_cross_spectrum,
    coherency,
)
from .weight_stats import (
    DistributionSummary,
    kurtosis,
    shannon_entropy,
    skewness,
    summarize,
    upper_triangle_weights,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BUILTIN_MONTAGES",
    "DEFAULT_BANDS",
    "METRICS",
    "AnalyticRecord",
    "Band",
    "CoherencyMatrix",
    "ConnectivityMatrix",
    "CorrelationResult",
    "CrossSpectrum",
    "DistributionSummary",
    "ExperimentConfig",
    "ExperimentResult",
    "LeadField",
    "Montage",
    "MultichannelRecord",
    "SourceActivity",
    "SourceLibrary",
    "WindowConfig",
    "aec_matrix",
    "assemble_source_activity",
    "band_slice",
    "bandpass_analytic",
    "bartlett_cross_spectrum",
    "coherence_matrix",
    "coherency",
    "generate_synthetic_leadfield",
    "generate_synthetic_sources",
    "get_montage",
    "icoh_matrix",
    "kurtosis",
    "pearson_correlation",
    "pli_matrix",
    "plv_matrix",
    "project_to_scalp",
    "run_normative_analysis",
    "run_simulation_experiment",
    "shannon_entropy",
    "significance_stars",
    "skewness",
    "summarize",
    "upper_triangle_weights",
    "write_results",
]
