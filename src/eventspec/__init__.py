"""Wavelet spectral analysis for multivariate point processes.

Temporally smoothed wavelet periodograms, their multi-wavelet
(eigen-wavelet) representation, wavelet coherence with asymptotic
distributions, a dyadic likelihood-ratio test for second-order
stationarity, and the Poisson/Hawkes simulators used to validate the
distributional results.
"""

from .eigensys import EigenSystem, eigensystem, eigensystem_cached, nystrom_decompose
from .errors import (ConfigError, DataError, DegenerateSegmentError,
                     EventspecError, NumericalError, ParseError, RegionError,
                     UndefinedCoherenceError, ValidationError)
from .inference import (CoherenceDistribution, Flavor, StationarityConfig,
                        StationarityReport, chi2_sf, lrt_statistic, null_percentile,
                        stationarity_test)
from .kernels import SmoothedKernel, SmoothingWindow, ValidRegion, WindowKind
from .pointproc import (EventStream, HawkesParams, coherence_theoretical,
                        hawkes_spectrum, load_csv, save_csv, simulate_hawkes,
                        simulate_piecewise, simulate_poisson)
from .spectra import (FieldConfig, SpectralField, coherence, cwt, denormalize_coords, field,
                      smoothed_periodogram_eigen)
from .wavelets import Wavelet, WaveletKind, central_frequency

__version__ = "0.1.0"

__all__ = [
    "CoherenceDistribution", "ConfigError", "DataError", "DegenerateSegmentError",
    "EigenSystem", "EventStream", "EventspecError", "FieldConfig", "Flavor", "HawkesParams",
    "NumericalError", "ParseError", "RegionError", "SmoothedKernel", "SmoothingWindow",
    "SpectralField", "StationarityConfig", "StationarityReport", "UndefinedCoherenceError",
    "ValidRegion", "ValidationError", "Wavelet", "WaveletKind", "WindowKind",
    "central_frequency", "chi2_sf", "coherence", "coherence_theoretical", "cwt",
    "denormalize_coords", "eigensystem", "eigensystem_cached", "field", "hawkes_spectrum",
    "load_csv", "lrt_statistic", "null_percentile", "nystrom_decompose", "save_csv",
    "simulate_hawkes", "simulate_piecewise", "simulate_poisson", "smoothed_periodogram_eigen",
    "stationarity_test",
]
