"""Synthetic locally stationary series with piecewise-smooth trends.

A generated series is y_i = mu(t_i) + x_i on t_i = i/n, where mu is a
piecewise-affine trend with abrupt level shifts and x_i is a zero-mean
time-varying linear process

    x_i = sum_{j>=0} a_j(t_i) zeta_{i-j},  zeta iid N(0, innovation_var),

truncated at a configurable order J. The lag-k autocovariance of the process
frozen at time t is

    gamma_k(t) = innovation_var * sum_j a_j(t) a_{j+k}(t),

which `true_gamma` evaluates in closed form; it is the oracle the coverage
studies check bands against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError
from .locallinear import _check_points, unit_grid

__all__ = [
    "MeanSpec",
    "LinearProcess",
    "MA2Process",
    "TimeSeries",
    "generate",
    "frozen_path",
    "true_gamma",
    "model_preset",
    "PRESET_NAMES",
]

CoeffFn = Callable[[int, np.ndarray], np.ndarray]

# Grid used to validate sup_t |a_J(t)| against the truncation tolerance.
_CHECK_GRID = np.linspace(0.0, 1.0, 1001)


@dataclass(frozen=True)
class MeanSpec:
    """A trend mu(t) that is affine on each of d+1 segments of [0, 1].

    Segment j runs over [a_j, a_{j+1}) with implicit a_0 = 0, a_{d+1} = 1
    (the final segment is closed at t = 1). ``intercepts[j]`` and
    ``slopes[j]`` give mu(t) = intercepts[j] + slopes[j] * t there, so level
    shifts across breakpoints are genuine jumps.
    """

    breakpoints: tuple[float, ...] = ()
    intercepts: tuple[float, ...] = (0.0,)
    slopes: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        bp = tuple(float(a) for a in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(
            self, "intercepts", tuple(float(c) for c in self.intercepts)
        )
        if self.slopes is None:
            object.__setattr__(self, "slopes", (0.0,) * len(self.intercepts))
        else:
            object.__setattr__(
                self, "slopes", tuple(float(s) for s in self.slopes)
            )
        if len(self.intercepts) != len(bp) + 1:
            raise ConfigurationError(
                f"{len(bp)} breakpoints need {len(bp) + 1} segments, "
                f"got {len(self.intercepts)}"
            )
        if len(self.slopes) != len(self.intercepts):
            raise ConfigurationError("slopes and intercepts lengths differ")
        if any(not 0.0 < a < 1.0 for a in bp):
            raise ConfigurationError("breakpoints must lie strictly in (0, 1)")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ConfigurationError("breakpoints must be strictly increasing")

    @property
    def n_changes(self) -> int:
        return len(self.breakpoints)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        # searchsorted with side='right' makes segments right-open.
        seg = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        c = np.asarray(self.intercepts)[seg]
        s = np.asarray(self.slopes)[seg]
        return c + s * t

    @classmethod
    def zero(cls) -> "MeanSpec":
        return cls()

    @classmethod
    def constant(cls, level: float) -> "MeanSpec":
        return cls(intercepts=(float(level),))

    @classmethod
    def piecewise_constant(
        cls, breakpoints: tuple[float, ...], levels: tuple[float, ...]
    ) -> "MeanSpec":
        return cls(breakpoints=breakpoints, intercepts=levels)


@dataclass(frozen=True)
class LinearProcess:
    """Time-varying causal linear process truncated at order J.

    ``coeff(j, t)`` returns a_j(t) vectorized over t. The truncation must be
    effective: sup_t |a_J(t)| below ``truncation_tol``.
    """

    coeff: CoeffFn = field(repr=False)
    order: int
    innovation_var: float = 1.0
    truncation_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ConfigurationError("truncation order must be >= 1")
        if self.innovation_var <= 0:
            raise ConfigurationError("innovation variance must be positive")
        tail = np.max(np.abs(self.coeff(self.order, _CHECK_GRID)))
        if not tail < self.truncation_tol:
            raise ConfigurationError(
                f"sup |a_J(t)| = {tail:.3e} at J = {self.order} exceeds the "
                f"truncation tolerance {self.truncation_tol:.1e}"
            )

    def coefficients(self, t: np.ndarray) -> np.ndarray:
        """Stacked a_j(t), shape (order + 1, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack([self.coeff(j, t) for j in range(self.order + 1)])


@dataclass(frozen=True)
class MA2Process:
    """Time-varying MA(2): x_i = a0(t) z_i + a1(t) z_{i-1} + a2(t) z_{i-2}."""

    a0: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    a1: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    a2: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    innovation_var: float = 1.0

    def __post_init__(self) -> None:
        if self.innovation_var <= 0:
            raise ConfigurationError("innovation variance must be positive")

    @property
    def order(self) -> int:
        return 2

    def coefficients(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack([self.a0(t), self.a1(t), self.a2(t)])


ErrorModel = LinearProcess | MA2Process


@dataclass(frozen=True)
class TimeSeries:
    """Observations y_1..y_n at design points t_i = i/n."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 2:
            raise ConfigurationError("series must be 1-d with n >= 2")
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("series contains non-finite values")

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def grid(self) -> np.ndarray:
        return unit_grid(self.n)


def _innovations(
    model: ErrorModel, count: int, seed
) -> np.ndarray:
    # seed may be an int or an already-derived SeedSequence substream
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    return rng.normal(0.0, math.sqrt(model.innovation_var), count)


def generate(
    mean: MeanSpec, model: ErrorModel, n: int, seed: int
) -> TimeSeries:
    """Draw one series of length n.

    The innovation stream includes a burn-in of ``model.order`` values before
    i = 1, so x_1 already has the full moving-average window. Identical
    (mean, model, n, seed) give bit-identical output; the same seed with a
    different mean reuses the identical noise path.
    """
    t = unit_grid(n)  # raises for n < 2
    J = model.order
    zeta = _innovations(model, n + J, seed)
    coeffs = model.coefficients(t)  # (J+1, n)
    x = np.zeros(n)
    for j in range(J + 1):
        x += coeffs[j] * zeta[J - j : J - j + n]
    y = mean(t) + x
    if not np.all(np.isfinite(y)):
        raise NumericError("generated series is not finite")
    return TimeSeries(values=y)


def frozen_path(
    model: ErrorModel, t: float, length: int, seed: int
) -> np.ndarray:
    """A strictly stationary path of the process frozen at time t.

    This is the comparison process behind `true_gamma`: its lag-k sample
    autocovariance converges to true_gamma(model, k, t).
    """
    _check_points(t)
    if length < 1:
        raise ConfigurationError("length must be >= 1")
    J = model.order
    a = model.coefficients(np.array([t]))[:, 0]  # (J+1,)
    zeta = _innovations(model, length + J, seed)
    # full convolution, then keep the outputs with a complete window
    return np.convolve(zeta, a, mode="valid")[:length]


def true_gamma(model: ErrorModel, k: int, t) -> np.ndarray | float:
    """Oracle lag-k autocovariance gamma_k(t) of the frozen process.

    Accepts scalar or array t; returns the matching shape.
    """
    if k < 0:
        raise ConfigurationError("lag must be >= 0")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    J = model.order
    if k > J:
        out = np.zeros(t_arr.shape)
    else:
        a = model.coefficients(t_arr)  # (J+1, m)
        out = model.innovation_var * np.sum(a[: J + 1 - k] * a[k:], axis=0)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


# The six preset change points: centers 1/6, 3/6, 5/6 with radii 1/36, 2/36,
# 3/36. The trend alternates 0/level/0/1/0/1/0 across the seven segments.
_PRESET_BREAKS = (5 / 36, 7 / 36, 16 / 36, 20 / 36, 27 / 36, 33 / 36)


def _preset_mean(second_level: float) -> MeanSpec:
    return MeanSpec.piecewise_constant(
        _PRESET_BREAKS, (0.0, second_level, 0.0, 1.0, 0.0, 1.0, 0.0)
    )


def _geometric_coeff(j: int, t: np.ndarray) -> np.ndarray:
    # a_0 = 0, a_j = (t/2)^j for j >= 1
    t = np.asarray(t, dtype=float)
    if j == 0:
        return np.zeros(t.shape)
    return (0.5 * t) ** j


PRESET_NAMES = ("model1", "model2", "model3")


def model_preset(name: str) -> tuple[MeanSpec, ErrorModel]:
    """The three benchmark designs used throughout the tests and the CLI.

    model1: geometric linear process a_j(t) = (t/2)^j (j >= 1), unit
            innovation variance, trend jumping between 0 and 1.
    model2: same process, second trend segment at level 2.
    model3: MA(2) with a_j(t) = ((t + 0.05)/2)^j, innovation variance 0.3,
            same trend as model1.
    """
    if name == "model1":
        return _preset_mean(1.0), LinearProcess(
            coeff=_geometric_coeff, order=60, innovation_var=1.0
        )
    if name == "model2":
        return _preset_mean(2.0), LinearProcess(
            coeff=_geometric_coeff, order=60, innovation_var=1.0
        )
    if name == "model3":
        return _preset_mean(1.0), MA2Process(
            a0=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            a1=lambda t: (np.asarray(t, dtype=float) + 0.05) / 2.0,
            a2=lambda t: ((np.asarray(t, dtype=float) + 0.05) / 2.0) ** 2,
            innovation_var=0.3,
        )
    raise ConfigurationError(
        f"unknown model preset {name!r}; choose from {PRESET_NAMES}"
    )
