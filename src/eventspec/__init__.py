"""Wavelet spectral analysis for multivariate point processes.

Temporally smoothed wavelet periodograms, their multi-wavelet
(eigen-wavelet) representation, wavelet coherence with asymptotic
distributions, a dyadic likelihood-ratio test for second-order
stationarity, and the Poisson/Hawkes simulators used to validate the
distributional results.
"""

from .eigensys import (EigenSystem, degrees_of_freedom, dof_closed_form,
                       effective_frequency_response, eigensystem,
                       eigensystem_cached, nystrom_decompose)
from .errors import (ConfigError, DataError, DegenerateSegmentError,
                     EventspecError, NumericalError, ParseError, RegionError,
                     UndefinedCoherenceError, ValidationError)
from .inference import (CoherenceDistribution, Flavor, StationarityConfig,
                        StationarityReport, chi2_sf, coherence_density,
                        hyp2f1, lrt_statistic, null_percentile,
                        stationarity_test)
from .kernels import (SmoothedKernel, SmoothingWindow, ValidRegion,
                      WindowKind, kernel_value, kernel_value_morlet_rect,
                      scaled_kernel_value, valid_region)
from .pointproc import (EventStream, HawkesParams, coherence_theoretical,
                        hawkes_spectrum, load_csv, poisson_spectrum, save_csv,
                        simulate_hawkes, simulate_piecewise, simulate_poisson)
from .spectra import (FieldConfig, SpectralField, analyzing_frequency,
                      coherence, cwt, denormalize_coords, eigen_cwt, field,
                      normalize_coords, periodogram,
                      smoothed_periodogram_direct, smoothed_periodogram_eigen)
from .wavelets import ScaledWavelet, Wavelet, WaveletKind, autocorrelation, central_frequency

__version__ = "0.1.0"

__all__ = [
    "CoherenceDistribution", "ConfigError", "DataError",
    "DegenerateSegmentError", "EigenSystem", "EventStream", "EventspecError",
    "FieldConfig", "Flavor", "HawkesParams", "NumericalError", "ParseError",
    "RegionError", "ScaledWavelet", "SmoothedKernel", "SmoothingWindow",
    "SpectralField", "StationarityConfig", "StationarityReport",
    "UndefinedCoherenceError", "ValidRegion", "ValidationError", "Wavelet",
    "WaveletKind", "WindowKind", "analyzing_frequency", "autocorrelation",
    "central_frequency", "chi2_sf", "coherence", "coherence_density",
    "coherence_theoretical", "cwt", "degrees_of_freedom",
    "denormalize_coords", "dof_closed_form", "effective_frequency_response",
    "eigen_cwt", "eigensystem", "eigensystem_cached", "field", "hawkes_spectrum",
    "hyp2f1", "kernel_value", "kernel_value_morlet_rect", "load_csv",
    "lrt_statistic", "normalize_coords", "null_percentile", "nystrom_decompose",
    "periodogram", "poisson_spectrum", "save_csv", "scaled_kernel_value",
    "simulate_hawkes", "simulate_piecewise", "simulate_poisson",
    "smoothed_periodogram_direct", "smoothed_periodogram_eigen",
    "stationarity_test", "valid_region",
]
