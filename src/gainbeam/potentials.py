"""Complex optical potentials with closed-form derivatives.

A potential here is a smooth, z-independent map x -> V_R(x) + i V_I(x).
The real part confines or deflects the beam; the imaginary part models
gain (V_I > 0) and loss (V_I < 0). Propagators see a potential through
three views only:

* ``sample(q)`` -- value and first two derivatives of both parts at a
  single point, as a :class:`PotentialSample`;
* ``sampler()`` -- a function of q giving the same six numbers as a plain
  tuple, with the potential's constants bound once; the Gaussian
  parameter dynamics and the grid's V' and V'' read the potential
  through it;
* ``value(x)``  -- complex values on a whole grid, consumed by the
  split-operator solver.

Derivatives returned by ``sample`` are hand-derived closed forms, not
finite differences: they sit inside a Runge-Kutta right-hand side that is
evaluated millions of times and must be smooth to machine precision.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "PotentialSample",
    "Potential",
    "PtTanhGaussian",
    "QuadraticLinear",
    "FreeSpace",
    "hermitian_variant",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants of the paraxial equation, in rescaled units by default.

    ``hbar`` plays the role of the reduced wavelength (lambda / 2 pi) and
    ``n_zero`` is the reference refractive index of the substrate.
    """

    hbar: float = 1.0
    n_zero: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (math.isfinite(self.n_zero) and self.n_zero > 0):
            raise ValueError(f"n_zero must be positive and finite, got {self.n_zero}")


DEFAULT_CONSTANTS = PhysicalConstants()


class PotentialSample(NamedTuple):
    """Value and first two derivatives of both potential parts at one point."""

    v_real: float
    v_imag: float
    dv_real: float
    dv_imag: float
    d2v_real: float
    d2v_imag: float


class Potential:
    """Base class for smooth complex potentials of one transverse coordinate.

    Instances are immutable after construction and may be shared freely
    between concurrent propagations. A custom potential needs only
    ``sample`` and ``value``; it overrides ``sampler`` for speed.
    """

    def sample(self, q: float) -> PotentialSample:
        raise NotImplementedError

    def sampler(self):
        """A function of q giving the six fields of ``sample(q)`` in order, bit for bit,
        to be taken once per loop; by default ``sample`` itself."""
        return self.sample

    def value(self, x):
        """Complex V on an array of positions."""
        raise NotImplementedError


# skips the NamedTuple constructor, half its cost; bound once, as the lookup costs as much
_new_tuple = tuple.__new__


class _ClosurePotential(Potential):
    """A potential whose one formula is its ``sampler`` closure, built once per instance
    by this ``__post_init__`` (called last by a subclass's own); ``sample`` wraps it."""

    def __post_init__(self):
        object.__setattr__(self, "_bound", self.sampler())

    def sample(self, q: float) -> PotentialSample:
        return _new_tuple(PotentialSample, self._bound(q))

    def __reduce__(self):
        # a closure does not pickle: a copy is built anew from the fields
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _check_scale(name: str, x: float):
    # scales enter the potential squared: x^2 must neither overflow nor vanish
    if not (x > 0 and 0.0 < x * x < math.inf):
        raise ValueError(f"{name} must be positive with a finite, non-zero square, got {x}")


@dataclass(frozen=True)
class PtTanhGaussian(_ClosurePotential):
    """Gaussian well of depth eta^2 with an odd tanh gain-loss profile.

        V(x) = -(1 - i (gamma/eta) tanh(x/eta)) * eta^2 * exp(-omega^2 x^2 / (2 eta^2))

    The real part is an even well whose curvature at the origin is exactly
    omega^2 for every eta, so the bottom of the well is harmonic with
    frequency ``omega``. The imaginary part is odd (loss for x < 0, gain
    for x > 0 when gamma > 0), which makes the potential PT-symmetric.
    Larger ``eta`` widens and deepens the well, pushing the dynamics
    further into the regime where a local quadratic expansion is accurate.
    """

    gamma: float
    omega: float
    eta: float

    def __post_init__(self):
        for name in ("gamma", "omega", "eta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_scale("eta", self.eta)
        _check_scale("omega", self.omega)
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        super().__post_init__()

    def sampler(self):
        eta, w2, exp, tanh = self.eta, self.omega * self.omega, math.exp, math.tanh
        c, eta2, two_eta2 = self.gamma / eta, eta * eta, 2.0 * eta * eta
        minus_w2, w4 = -w2, w2 * w2

        def sample(q):
            # envelope g = eta^2 exp(-omega^2 x^2 / (2 eta^2)) and derivatives
            e = exp(minus_w2 * q * q / two_eta2)
            g = eta2 * e
            # odd factor t = tanh(x/eta) and derivatives
            t = tanh(q / eta)
            if e == 0.0:
                # every field carries the envelope, which underflowed; its large
                # factors would make inf * 0 = NaN of the derivatives
                return (-g, c * t * g, 0.0, 0.0, 0.0, 0.0)
            dg = minus_w2 * q * e
            # at q = 0 the curvature term is 0 even where w2 * w2 overflows
            d2g = (minus_w2 + (w4 * q * q / eta2 if q else 0.0)) * e
            sech2 = 1.0 - t * t
            dt = sech2 / eta
            d2t = -2.0 * t * sech2 / eta2
            return (
                -g,  # v_real
                c * t * g,  # v_imag
                -dg,  # dv_real
                c * (dt * g + t * dg),  # dv_imag
                -d2g,  # d2v_real
                c * (d2t * g + 2.0 * dt * dg + t * d2g),  # d2v_imag
            )

        return sample

    def value(self, x):
        xs = np.asarray(x, dtype=float)
        g = self.eta**2 * np.exp(-(self.omega**2) * xs**2 / (2.0 * self.eta**2))
        t = np.tanh(xs / self.eta)
        return -g + 1j * (self.gamma / self.eta) * t * g


@dataclass(frozen=True)
class QuadraticLinear(_ClosurePotential):
    """Harmonic well with a linear imaginary slope.

        V(x) = omega^2 x^2 / 2 + i gamma x

    This is the local quadratic expansion of any PT-symmetric well around
    its center and the one case where the Gaussian parameter dynamics is
    exact. Closed-form solutions live in :mod:`gainbeam.closed_forms`.
    """

    omega: float
    gamma: float

    def __post_init__(self):
        for name in ("omega", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_scale("omega", self.omega)
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        super().__post_init__()

    def sampler(self):
        w2, gamma = self.omega * self.omega, self.gamma
        half_w2 = 0.5 * w2
        # fields in order: v_real, v_imag, dv_real, dv_imag, d2v_real, d2v_imag
        return lambda q: (half_w2 * q * q, gamma * q, w2 * q, gamma, w2, 0.0)

    def value(self, x):
        xs = np.asarray(x, dtype=float)
        return 0.5 * self.omega**2 * xs**2 + 1j * self.gamma * xs


@dataclass(frozen=True)
class FreeSpace(_ClosurePotential):
    """V identically zero; free spreading of the beam."""

    def sampler(self):
        zeros = (0.0,) * 6
        return lambda q: zeros

    def value(self, x):
        return np.zeros(np.asarray(x, dtype=float).shape, dtype=complex)


def hermitian_variant(potential: Potential) -> Potential:
    """The same potential without gain and loss: gamma set to 0.

    V_I is proportional to gamma for every potential kind, so this keeps
    V_R and zeroes V_I. A potential with no gamma, or with gamma already
    0, is returned as it is, which makes the call idempotent.
    """
    if getattr(potential, "gamma", 0.0) == 0.0:
        return potential
    return replace(potential, gamma=0.0)
