"""Closed-form beam evolution for the quadratic-plus-linear-gain potential.

For V(x) = omega^2 x^2 / 2 + i gamma x the Gaussian parameter equations
close exactly and admit analytic solutions:

* the width parameter obeys the Riccati equation B' = -B^2 - omega^2,
  solved by a Moebius transformation that preserves the upper half-plane;
* the ratio Re B / Im B oscillates at frequency 2 omega and acts as a
  forcing term on the beam center, which is a driven harmonic oscillator;
* the norm follows from a single quadrature of the center trajectory,
  N(z) = N0 exp((gamma / hbar) integral_0^z q ds).

These closed forms serve as ground truth for the numerical propagators
(the Gaussian dynamics is exact for quadratic potentials) and its
short-distance expansion underlies the width-filtering application.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import GaussianParams
from .potentials import QuadraticLinear

__all__ = [
    "b_evolution",
    "forcing_ratio",
    "OscillatorSolution",
    "center_solution",
    "reduced_forcing_center_solution",
    "center_evolution",
    "stationary_width_solution",
    "norm_evolution",
    "adaptive_simpson",
    "ShortDistanceResult",
    "short_distance",
    "width_drift_rate",
    "quadratic_trajectory",
]


def _check_width(b0):
    # Python and numpy scalars skip numpy dispatch: this runs once per
    # closed-form evaluation on the oracle's hot path
    if isinstance(b0, (complex, float, int)):
        valid = b0.imag > 0 and cmath.isfinite(b0)
    else:
        b = np.asarray(b0)
        valid = bool(np.all(b.imag > 0)) and bool(np.all(np.isfinite(b)))
    if not valid:
        raise ValueError(f"b0 must be finite with Im b0 > 0, got {b0}")


def _check_omega(omega: float):
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")


def b_evolution(b0: complex | np.ndarray, omega: float, z):
    """Width parameter at distance z under B' = -B^2 - omega^2.

        B(z) = omega (B0 cos wz - omega sin wz) / (B0 sin wz + omega cos wz)

    The flow is a Moebius rotation: it is pi/omega-periodic and maps the
    upper half-plane to itself, so Im B(z) > 0 whenever Im B0 > 0. The
    denominator cannot vanish for Im B0 > 0.

    ``b0`` is a scalar or an array that broadcasts with ``z``; the result
    has the broadcast shape. Every entry of ``b0`` must be finite with
    Im B0 > 0, otherwise ``ValueError`` is raised.
    """
    _check_width(b0)
    _check_omega(omega)
    c = np.cos(omega * z)
    s = np.sin(omega * z)
    return omega * (b0 * c - omega * s) / (b0 * s + omega * c)


def forcing_ratio(b0: complex, omega: float, z):
    """Re B(z) / Im B(z), the width-induced forcing on the beam center.

        Re B / Im B = (|B0|^2 - omega^2) / (2 omega Im B0) sin 2wz
                      + (Re B0 / Im B0) cos 2wz

    Pure 2 omega oscillation; identically zero for the stationary width
    B0 = i omega. ``b0`` must be a scalar (``z`` may be an array).
    """
    _check_width(b0)
    _check_omega(omega)
    s_coeff, c_coeff = _forcing_coeffs(b0, omega)
    return s_coeff * np.sin(2.0 * omega * z) + c_coeff * np.cos(2.0 * omega * z)


def _forcing_coeffs(b0: complex, omega: float):
    b0 = complex(b0)
    s_coeff = (abs(b0) ** 2 - omega * omega) / (2.0 * omega * b0.imag)
    c_coeff = b0.real / b0.imag
    return s_coeff, c_coeff


@dataclass(frozen=True)
class OscillatorSolution:
    """Center trajectory q(z) = a cos wz + b sin wz + forcing_scale * (Re B / Im B)(z).

    ``forcing_scale`` multiplies the 2 omega width forcing; it vanishes
    (and a, b reduce to the plain shifted oscillation) for B0 = i omega.
    """

    a_coeff: float
    b_coeff: float
    forcing_scale: float
    q0: float
    p0: float
    b0: complex
    gamma: float
    omega: float

    def q(self, z):
        w = self.omega
        return (
            self.a_coeff * np.cos(w * z)
            + self.b_coeff * np.sin(w * z)
            + self.forcing_scale * forcing_ratio(self.b0, w, z)
        )

    def q_dot(self, z):
        w = self.omega
        s_coeff, c_coeff = _forcing_coeffs(self.b0, w)
        ratio_dot = 2.0 * w * (
            s_coeff * np.cos(2.0 * w * z) - c_coeff * np.sin(2.0 * w * z)
        )
        return (
            -self.a_coeff * w * np.sin(w * z)
            + self.b_coeff * w * np.cos(w * z)
            + self.forcing_scale * ratio_dot
        )

    def p(self, z):
        """Momentum p = q' - gamma / Im B(z)."""
        im_b = np.imag(b_evolution(self.b0, self.omega, z))
        return self.q_dot(z) - self.gamma / im_b

    def q_integral(self, z):
        """integral_0^z q(s) ds in closed form."""
        w = self.omega
        s_coeff, c_coeff = _forcing_coeffs(self.b0, w)
        homogeneous = (self.a_coeff / w) * np.sin(w * z) + (self.b_coeff / w) * (
            1.0 - np.cos(w * z)
        )
        forced = (
            s_coeff * (1.0 - np.cos(2.0 * w * z)) + c_coeff * np.sin(2.0 * w * z)
        ) / (2.0 * w)
        return homogeneous + self.forcing_scale * forced

    def norm_ratio(self, z, hbar: float = 1.0):
        """N(z) / N0 = exp((gamma / hbar) integral_0^z q ds)."""
        return np.exp((self.gamma / hbar) * self.q_integral(z))

    def reduced_ode_residual(self, z, h: float = 5e-4):
        """Finite-difference residual of q'' + omega^2 q - gamma (Re B / Im B).

        Zero for :func:`reduced_forcing_center_solution`; of size
        2 gamma |Re B / Im B| for :func:`center_solution`, whose forcing
        term is three times larger (see that function's docstring).
        """
        qpp = (self.q(z + h) - 2.0 * self.q(z) + self.q(z - h)) / (h * h)
        return qpp + self.omega**2 * self.q(z) - self.gamma * forcing_ratio(
            self.b0, self.omega, z
        )


def _driven_solution(
    q0: float, p0: float, b0: complex, gamma: float, omega: float, forcing_factor: float
) -> OscillatorSolution:
    # exact solution of q'' = -omega^2 q + forcing_factor * gamma * (Re B / Im B)(z)
    # with q(0) = q0, q'(0) = p0 + gamma / Im B0; the 2 omega drive meets the
    # harmonic response 1 / (omega^2 - (2 omega)^2) = -1 / (3 omega^2)
    _check_width(b0)
    _check_omega(omega)
    b0 = complex(b0)
    s_coeff, c_coeff = _forcing_coeffs(b0, omega)
    scale = -forcing_factor * gamma / (3.0 * omega * omega)
    a = q0 - scale * c_coeff
    qdot0 = p0 + gamma / b0.imag
    b = (qdot0 - scale * 2.0 * omega * s_coeff) / omega
    return OscillatorSolution(a, b, scale, q0, p0, b0, gamma, omega)


def center_solution(
    q0: float, p0: float, b0: complex, gamma: float, omega: float
) -> OscillatorSolution:
    """Exact beam center under the quadratic-plus-linear-gain dynamics.

    Eliminating p between q' = p + gamma / Im B and
    p' = -omega^2 q + gamma Re B / Im B brings in d/dz (1 / Im B)
    = 2 Re B / Im B (for constant gain slope), so the center obeys

        q'' = -omega^2 q + 3 gamma (Re B / Im B)(z)

    with the width forcing three times the momentum-equation coefficient.
    The 2 omega forcing meets the response -1 / (3 omega^2), giving the
    particular solution -(gamma / omega^2) (Re B / Im B). This closed form
    is validated against direct RK4 integration of the parameter dynamics
    in the test suite. ``b0`` must be a scalar; the returned solution
    evaluates at scalar or array ``z``.
    """
    return _driven_solution(q0, p0, b0, gamma, omega, 3.0)


def reduced_forcing_center_solution(
    q0: float, p0: float, b0: complex, gamma: float, omega: float
) -> OscillatorSolution:
    """Center solution with the width forcing counted only once.

    Solves q'' = -omega^2 q + gamma (Re B / Im B)(z) exactly (the ODE one
    obtains when the d/dz (1 / Im B) contribution to q'' is dropped). It
    has zero residual against that reduced equation but does not track
    the actual beam; :func:`center_solution` does. Retained so the
    difference between the two readings can be quantified.
    """
    return _driven_solution(q0, p0, b0, gamma, omega, 1.0)


def center_evolution(
    q0: float, p0: float, b0: complex, gamma: float, omega: float, z
):
    """Beam center at distance z for general initial width."""
    return center_solution(q0, p0, b0, gamma, omega).q(z)


def stationary_width_solution(
    q0: float, p0: float, gamma: float, omega: float, z, hbar: float = 1.0
):
    """(q, p, N/N0) for the stationary width B0 = i omega.

    With B = i omega the width forcing vanishes and the center performs a
    plain harmonic oscillation with the momentum shifted by gamma / omega:

        q(z) = q0 cos wz + ((p0 + gamma/omega) / omega) sin wz
        p(z) = -omega q0 sin wz + (p0 + gamma/omega) cos wz - gamma/omega

    The norm ratio is the closed-form quadrature
    exp((gamma/hbar) [ (q0/omega) sin wz + ((p0 + gamma/omega)/omega^2) (1 - cos wz) ]),
    which is 1 at z = 0 for every parameter choice.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    shift = gamma / omega
    v = (p0 + shift) / omega
    c = np.cos(omega * z)
    s = np.sin(omega * z)
    q = q0 * c + v * s
    p = -omega * q0 * s + (p0 + shift) * c - shift
    integral = (q0 / omega) * s + (v / omega) * (1.0 - c)
    norm_ratio = np.exp((gamma / hbar) * integral)
    return q, p, norm_ratio


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, abs_tol: float = 1e-10
) -> float:
    """Adaptive Simpson quadrature of f over [a, b] to absolute tolerance."""
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, abs_tol)

    def eval_at(x):
        y = f(x)
        if not math.isfinite(y):
            raise ValueError(f"integrand is non-finite at {x!r}")
        return y

    def simpson(fa, fm, fb, width):
        return width * (fa + 4.0 * fm + fb) / 6.0

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        fl = eval_at(0.5 * (lo + mid))
        fr = eval_at(0.5 * (mid + hi))
        left = simpson(flo, fl, fmid, mid - lo)
        right = simpson(fmid, fr, fhi, hi - mid)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, 0.5 * tol, depth - 1) + recurse(
            mid, hi, fmid, fr, fhi, right, 0.5 * tol, depth - 1
        )

    fa, fb = eval_at(a), eval_at(b)
    fm = eval_at(0.5 * (a + b))
    whole = simpson(fa, fm, fb, b - a)
    return recurse(a, b, fa, fm, fb, whole, abs_tol, 48)


def norm_evolution(q_solution, gamma: float, hbar: float, z: float) -> float:
    """N(z) / N0 = exp((gamma / hbar) integral_0^z q(s) ds).

    ``q_solution`` is either a callable z -> q (quadrature by adaptive
    Simpson, absolute tolerance 1e-10) or an :class:`OscillatorSolution`,
    in which case the integral is evaluated in closed form.
    """
    if isinstance(q_solution, OscillatorSolution):
        return float(np.exp((gamma / hbar) * q_solution.q_integral(z)))
    integral = adaptive_simpson(q_solution, 0.0, z, abs_tol=1e-10)
    return math.exp((gamma / hbar) * integral)


class ShortDistanceResult(NamedTuple):
    q: float
    p: float
    norm_ratio: float


def short_distance(
    q0: float,
    p0: float,
    b0: complex,
    gamma: float,
    omega: float,
    z: float,
    hbar: float = 1.0,
) -> ShortDistanceResult:
    """First-order evolution over a short distance.

        q(z) = q0 + (p0 + gamma / Im B0) z
        p(z) = p0 - (omega^2 q0 - gamma Re B0 / Im B0) z
        N(z)/N0 = 1 + (gamma / hbar) q0 z

    The position shift beyond p0 z equals 2 gamma (delta q)^2 z: linear
    in the local gain slope and quadratic in the initial beam width,
    which is what makes width filtering possible.
    """
    _check_width(b0)
    q = q0 + (p0 + gamma / b0.imag) * z
    p = p0 - (omega * omega * q0 - gamma * b0.real / b0.imag) * z
    norm_ratio = 1.0 + (gamma / hbar) * q0 * z
    return ShortDistanceResult(q, p, norm_ratio)


def width_drift_rate(b0: complex, gamma: float) -> float:
    """Width-induced drift rate gamma / Im B0 = 2 gamma (delta q)^2.

    ``b0`` is a scalar or an array; every entry must be finite with
    Im B0 > 0, otherwise ``ValueError`` is raised.
    """
    _check_width(b0)
    return gamma / b0.imag


def quadratic_trajectory(
    initial: GaussianParams,
    potential: QuadraticLinear,
    z_values,
    hbar: float = 1.0,
) -> list:
    """Closed-form (z, GaussianParams) samples under a QuadraticLinear potential.

    q, p, B and N come from the closed forms above; the phase alpha is
    accumulated by adaptive Simpson quadrature of its exact integrand
    p q' - p^2/2 - V_R(q) - Im B / 2 between consecutive samples.
    """
    omega, gamma = potential.omega, potential.gamma
    sol = center_solution(initial.q, initial.p, initial.b, gamma, omega)

    def alpha_integrand(z):
        qd = float(sol.q_dot(z))
        pz = float(sol.p(z))
        qz = float(sol.q(z))
        im_b = complex(b_evolution(initial.b, omega, z)).imag
        return pz * qd - 0.5 * pz * pz - 0.5 * omega * omega * qz * qz - 0.5 * im_b

    samples = []
    alpha = initial.alpha
    prev_z = 0.0
    for z in z_values:
        z = float(z)
        if z < prev_z:
            raise ValueError("z_values must be non-decreasing")
        if z > prev_z:
            alpha += adaptive_simpson(alpha_integrand, prev_z, z, abs_tol=1e-12)
            prev_z = z
        b = complex(b_evolution(initial.b, omega, z))
        params = GaussianParams(
            q=float(sol.q(z)),
            p=float(sol.p(z)),
            b=b,
            norm=initial.norm * float(sol.norm_ratio(z, hbar=hbar)),
            alpha=alpha,
        )
        samples.append((z, params))
    return samples
