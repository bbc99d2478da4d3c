"""Smoothing kernels and their analytic constants.

All estimators in this package are kernel-weighted, and the band constants
depend on kernel functionals: the second moment mu2 = int u^2 K(u) du, the
squared norm phi0 = int K(u)^2 du, and the derivative roughness
int K'(u)^2 du. Kernels are compactly supported on [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = ["Kernel", "epanechnikov"]


@dataclass(frozen=True)
class Kernel:
    """A symmetric density kernel on [-1, 1] with its analytic constants.

    Parameters
    ----------
    name : str
        Identifier used in manifests and reports.
    fn : callable
        Vectorized kernel function; must vanish for |u| >= 1.
    deriv : callable
        Vectorized derivative of ``fn`` on (-1, 1).
    mu2 : float
        Second moment, int u^2 K(u) du.
    phi0 : float
        Squared L2 norm, int K(u)^2 du.
    roughness : float
        Derivative roughness, int K'(u)^2 du.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    deriv: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    mu2: float
    phi0: float
    roughness: float

    def __post_init__(self) -> None:
        if self.mu2 <= 0 or self.phi0 <= 0 or self.roughness <= 0:
            raise ConfigurationError("kernel constants must be positive")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.fn(u)

    def moment(self, order: int, nodes: int = 64) -> float:
        """int u^order K(u) du by Gauss-Legendre quadrature on [-1, 1]."""
        x, w = np.polynomial.legendre.leggauss(nodes)
        return float(np.sum(w * x**order * self.fn(x)))

    def sq_moment(self, order: int, nodes: int = 64) -> float:
        """int u^order K(u)^2 du by Gauss-Legendre quadrature on [-1, 1]."""
        x, w = np.polynomial.legendre.leggauss(nodes)
        return float(np.sum(w * x**order * self.fn(x) ** 2))


def _epan(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    # in place: one output buffer, no full-size temporaries
    out = np.multiply(u, u, out=np.empty_like(u))
    np.subtract(1.0, out, out=out)
    np.maximum(0.0, out, out=out)
    out *= 0.75
    return out


def _epan_deriv(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, -1.5 * u, 0.0)


def epanechnikov() -> Kernel:
    """The Epanechnikov kernel K(u) = 0.75 (1 - u^2) on [-1, 1].

    Constants: mu2 = 1/5, phi0 = 3/5, int K'^2 = 3/2.
    """
    return Kernel(
        name="epanechnikov",
        fn=_epan,
        deriv=_epan_deriv,
        mu2=0.2,
        phi0=0.6,
        roughness=1.5,
    )
