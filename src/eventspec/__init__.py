"""Wavelet spectral analysis for multivariate point processes.

Temporally smoothed wavelet periodograms, their multi-wavelet
(eigen-wavelet) representation, wavelet coherence with asymptotic
distributions, a dyadic likelihood-ratio test for second-order
stationarity, and the Poisson/Hawkes simulators used to validate the
distributional results.
"""

from .eigensys import (EigenSystem, dof_closed_form, eigensystem, eigensystem_cached,
                       nystrom_decompose)
from .errors import (ConfigError, DataError, DegenerateSegmentError,
                     EventspecError, NumericalError, ParseError, RegionError,
                     UndefinedCoherenceError, ValidationError)
from .inference import (CoherenceDistribution, Flavor, StationarityConfig,
                        StationarityReport, chi2_sf, coherence_density,
                        hyp2f1, lrt_statistic, null_percentile,
                        stationarity_test)
from .kernels import (SmoothedKernel, SmoothingWindow, ValidRegion,
                      WindowKind, kernel_value)
from .pointproc import (EventStream, HawkesParams, coherence_theoretical,
                        hawkes_spectrum, load_csv, save_csv, simulate_hawkes,
                        simulate_piecewise, simulate_poisson)
from .spectra import (FieldConfig, SpectralField, coherence, cwt, denormalize_coords,
                      eigen_cwt, field, normalize_coords, periodogram,
                      smoothed_periodogram_eigen)
from .wavelets import Wavelet, WaveletKind, autocorrelation, central_frequency

__version__ = "0.1.0"

__all__ = [
    "CoherenceDistribution", "ConfigError", "DataError", "DegenerateSegmentError",
    "EigenSystem", "EventStream", "EventspecError", "FieldConfig", "Flavor", "HawkesParams",
    "NumericalError", "ParseError", "RegionError", "SmoothedKernel", "SmoothingWindow",
    "SpectralField", "StationarityConfig", "StationarityReport", "UndefinedCoherenceError",
    "ValidRegion", "ValidationError", "Wavelet", "WaveletKind", "WindowKind",
    "autocorrelation", "central_frequency", "chi2_sf", "coherence", "coherence_density",
    "coherence_theoretical", "cwt", "denormalize_coords", "dof_closed_form", "eigen_cwt",
    "eigensystem", "eigensystem_cached", "field", "hawkes_spectrum", "hyp2f1", "kernel_value",
    "load_csv", "lrt_statistic", "normalize_coords", "null_percentile", "nystrom_decompose",
    "periodogram", "save_csv", "simulate_hawkes", "simulate_piecewise", "simulate_poisson",
    "smoothed_periodogram_eigen", "stationarity_test",
]
