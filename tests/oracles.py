"""Reference formulas the tests check the package against; not part of the package."""

import numpy as np
from scipy.special import erf

from eventspec import ValidationError


def kernel_value_morlet_rect(kappa: float, s, t):
    """Closed form of K(s, t) for the (untruncated) Morlet wavelet and a
    rectangular window:

        K(s, t) = k(s, t) e^{-i 2 pi (t - s)}
        k(s, t) = (2 kappa)^(-1) e^{-(t-s)^2/4}
                  [erf{(kappa - (s+t))/2} + erf{(kappa + (s+t))/2}]

    The erf arguments and the Gaussian width follow from direct integration
    of the defining kernel; the quadrature path agrees with this expression
    to quadrature accuracy once the truncation support is wide enough.
    """
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ssum = s + t
    k = (np.exp(-0.25 * (t - s) ** 2) / (2.0 * kappa)
         * (erf((kappa - ssum) / 2.0) + erf((kappa + ssum) / 2.0)))
    return k * np.exp(-2j * np.pi * (t - s))
