"""Closed-form beam evolution for the quadratic-plus-linear-gain potential.

For V(x) = omega^2 x^2 / 2 + i gamma x the Gaussian parameter equations
close exactly and admit analytic solutions:

* the width parameter obeys the Riccati equation B' = -B^2 - omega^2,
  solved by a Moebius transformation that preserves the upper half-plane;
* the ratio Re B / Im B oscillates at frequency 2 omega and acts as a
  forcing term on the beam center, which is a driven harmonic oscillator;
* so the center is a trig polynomial of degree 2 in omega z; the norm
  N(z) = N0 exp((gamma / hbar) integral_0^z q ds) and the phase are read
  off its coefficients.

These closed forms serve as ground truth for the numerical propagators
(the Gaussian dynamics is exact for quadratic potentials).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import GaussianParams, Trajectory, valid_width
from .errors import NumericalAbortError
from .potentials import QuadraticLinear

__all__ = [
    "b_evolution",
    "forcing_ratio",
    "OscillatorSolution",
    "center_solution",
    "reduced_forcing_center_solution",
    "adaptive_simpson",
    "width_drift_rate",
    "quadratic_trajectory",
]


def _check_width(b0):
    if not np.all(valid_width(b0)):
        raise ValueError(f"b0 must have Im b0 > 0 with |b0|^2 and 1 / Im b0 finite, got {b0}")


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
    has the broadcast shape. Every entry of ``b0`` must have Im B0 > 0 with
    |B0|^2 and 1 / Im B0 finite, else ``ValueError`` is raised. With D = B0 sin wz +
    omega cos wz, B = omega E conj(D) / |D|^2 for E = B0 cos wz - omega sin wz,
    and Im(E conj D) = omega Im B0: Im B = omega^2 Im B0 / |D|^2 is positive.
    """
    _check_width(b0)
    _check_omega(omega)
    c = np.cos(omega * z)
    s = np.sin(omega * z)
    b_re, b_im = np.real(b0), np.imag(b0)
    d_re, d_im = b_re * s + omega * c, b_im * s
    abs_d2 = d_re * d_re + d_im * d_im
    re_b = omega * ((b_re * c - omega * s) * d_re + (b_im * c) * d_im) / abs_d2
    return re_b + 1j * (omega * omega * b_im / abs_d2)


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
    # numpy divisors here and in the oracle: 2 omega Im b0, 3 omega^2 and omega^2 Im b0
    # can underflow to 0 for an accepted width and omega, which gives inf, not
    # ZeroDivisionError, and the oracle aborts on its non-finite samples
    s_coeff = (abs(b0) ** 2 - omega * omega) / np.float64(2.0 * omega * b0.imag)
    c_coeff = b0.real / b0.imag
    return s_coeff, c_coeff


@dataclass(frozen=True)
class OscillatorSolution:
    """Center trajectory q(z) = a cos wz + b sin wz + forcing_scale * (Re B / Im B)(z).

    ``forcing_scale`` multiplies the 2 omega width forcing; it vanishes
    (and a, b reduce to the plain shifted oscillation) for B0 = i omega.
    q is a real trig polynomial of degree 2 in wz: ``_coeffs`` forms its
    coefficients of e^{ikwz}, k = -2..2, and every method reads them, so
    q', q'' and integral_0^z q are exact.
    """

    a_coeff: float
    b_coeff: float
    forcing_scale: float
    b0: complex
    gamma: float
    omega: float

    @property
    def _coeffs(self) -> np.ndarray:
        s_coeff, c_coeff = _forcing_coeffs(self.b0, self.omega)
        scale = self.forcing_scale
        return _trig2(0.0, self.a_coeff, self.b_coeff, scale * c_coeff, scale * s_coeff)

    def q(self, z):
        return _evaluate(self._coeffs, self.omega * z)

    def q_dot(self, z):
        return _evaluate(_derivative(self._coeffs, self.omega), self.omega * z)

    def p(self, z):
        """Momentum p = q' - gamma / Im B(z)."""
        im_b = np.imag(b_evolution(self.b0, self.omega, z))
        return self.q_dot(z) - self.gamma / im_b

    def q_integral(self, z):
        """integral_0^z q(s) ds in closed form."""
        return _antiderivative(self._coeffs, self.omega, z, self.omega * z)

    def norm_ratio(self, z, hbar: float = 1.0):
        """N(z) / N0 = exp((gamma / hbar) integral_0^z q ds)."""
        return np.exp((self.gamma / hbar) * self.q_integral(z))

    def reduced_ode_residual(self, z):
        """Residual of q'' + omega^2 q - gamma (Re B / Im B), with q'' exact.

        Round-off for :func:`reduced_forcing_center_solution`; 2 gamma |Re B / Im B|
        for :func:`center_solution`, whose forcing is three times larger.
        """
        w = self.omega
        qpp = _evaluate(_derivative(_derivative(self._coeffs, w), w), w * z)
        return qpp + w * w * self.q(z) - self.gamma * forcing_ratio(self.b0, w, z)


def _trig2(const, cos1, sin1, cos2, sin2):
    """Coefficients of e^{ik theta}, k = -2..2, of a real trig polynomial of degree 2."""
    return np.array([cos2 + 1j * sin2, cos1 + 1j * sin1, 2.0 * const,
                     cos1 - 1j * sin1, cos2 - 1j * sin2]) / 2.0


def _evaluate(c, theta):
    """sum_k c_k e^{ik theta} for the coefficients c_k, k = -m..m, of a real trig polynomial."""
    m = len(c) // 2
    total = c[m].real
    for k, c_k in enumerate(c[m + 1:], start=1):
        total = total + 2.0 * (c_k.real * np.cos(k * theta) - c_k.imag * np.sin(k * theta))
    return total


def _derivative(c, omega):
    """Coefficients of d/dz of sum_k c_k e^{ik omega z}: c_k times ik omega."""
    m = len(c) // 2
    return c * (1j * omega * np.arange(-m, m + 1))


def _antiderivative(c, omega, z, theta):
    """integral_0^z sum_k c_k e^{ik omega s} ds, where theta is omega z or omega z mod 2 pi.

    Each harmonic a_k cos k ws + b_k sin k ws, with a_k - i b_k = 2 c_k,
    integrates to (a_k sin k theta + b_k (1 - cos k theta)) / (k omega).
    """
    m = len(c) // 2
    total = c[m].real * z
    for k, c_k in enumerate(c[m + 1:], start=1):
        a_k, b_k = 2.0 * c_k.real, -2.0 * c_k.imag
        total = total + (a_k * np.sin(k * theta) + b_k * (1.0 - np.cos(k * theta))) / (k * omega)
    return total


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
    scale = -forcing_factor * gamma / np.float64(3.0 * omega * omega)
    a = q0 - scale * c_coeff
    qdot0 = p0 + gamma / b0.imag
    b = (qdot0 - scale * 2.0 * omega * s_coeff) / omega
    return OscillatorSolution(a, b, scale, b0, gamma, omega)


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


def width_drift_rate(b0: complex, gamma: float) -> float:
    """Width-induced drift rate gamma / Im B0 = 2 gamma (delta q)^2.

    ``b0`` is a scalar or an array; every entry must have Im B0 > 0 with
    |B0|^2 and 1 / Im B0 finite, otherwise ``ValueError`` is raised.
    """
    _check_width(b0)
    return gamma / b0.imag


# pi - _PI_LO rounds to math.pi; together they hold pi to about 1e-32
_PI_LO = 1.2246467991473532e-16


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a):
    # Veltkamp: a = hi + lo with both halves 26 bits long, so their
    # products are exact
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _reduce(phi):
    """(k, r) with phi = 2 pi k + r and |r| <= pi, to eps |r|.

    ``phi`` is a pair (hi, lo) of arrays holding phi = hi + lo. 2 pi k is
    formed exactly in two parts, and hi minus its leading part is exact
    (Sterbenz), so r is not rounded against phi itself.
    """
    hi, lo = phi
    k = np.rint(hi / (2.0 * math.pi))
    p, e = _two_product(k, 2.0 * math.pi)
    return k, (hi - p) + ((lo - e) - k * (2.0 * _PI_LO))


def _phase_change(sol: OscillatorSolution, hbar: float, z: np.ndarray) -> np.ndarray:
    """integral_0^z alpha' for an array z, in closed form (see quadratic_trajectory)."""
    omega, gamma, b0 = sol.omega, sol.gamma, sol.b0
    turns, theta = _reduce(_two_product(omega, z))
    sin_theta = np.sin(theta)
    # -hbar Im B / 2 integrates to -(hbar / 2) arg D
    arg_d = 2.0 * math.pi * turns + np.arctan2(
        b0.imag * sin_theta, b0.real * sin_theta + omega * np.cos(theta)
    )
    # with p = q' - gamma / Im B, the rest is f = (q'^2 - omega^2 q^2 - (gamma / Im B)^2) / 2,
    # whose factors are degree-2 trig polynomials in theta = omega z
    q = sol._coeffs
    q_dot = _derivative(q, omega)
    # gamma / Im B = gamma |D|^2 / (omega^2 Im B0)
    g = gamma / np.float64(omega * omega * b0.imag)
    abs_b0 = abs(b0) ** 2
    g_over_im_b = _trig2(g * (abs_b0 + omega * omega) / 2.0, 0.0, 0.0,
                         g * (omega * omega - abs_b0) / 2.0, g * omega * b0.real)
    f = 0.5 * (np.convolve(q_dot, q_dot) - omega * omega * np.convolve(q, q)
               - np.convolve(g_over_im_b, g_over_im_b))
    # its mean is exactly -gamma^2 / (2 omega^2); the product holds it with rounding
    ratio = gamma / omega
    f[4] = -0.5 * ratio * ratio
    return -0.5 * hbar * arg_d + _antiderivative(f, omega, z, theta)


def quadratic_trajectory(
    initial: GaussianParams,
    potential: QuadraticLinear,
    z_values,
    hbar: float = 1.0,
) -> Trajectory:
    """Closed-form samples under a QuadraticLinear potential, as a Trajectory.

    q, p, B and N come from the closed forms above, evaluated on the whole
    array of ``z_values`` (non-decreasing, from z >= 0). The phase obeys

        alpha' = p q' - p^2/2 - omega^2 q^2/2 - hbar Im B / 2

    and integrates exactly. B = D'/D with D = B0 sin wz + omega cos wz, so
    the last term gives -(hbar/2) arg D. The rest is a trig polynomial of
    degree 4 in wz, since q, q' and 1/Im B = |D|^2 / (omega^2 Im B0) are
    each of degree 2. Its period mean is exactly -gamma^2 / (2 omega^2),
    whatever q0, p0 and B0 (the free oscillation's kinetic and potential
    parts cancel), and its harmonics are products of the closed-form
    coefficients, multiplied as polynomials in e^{i wz}.

    omega z = 2 pi m + theta, |theta| <= pi, is reduced once in double-double
    arithmetic: against the rounded product, theta would be off by about
    eps omega z, and alpha by eps z max|alpha'|. Im D = Im B0 sin theta, so D
    is real only at theta = 0 (D = omega) and theta = +-pi (D = -omega), and

        arg D = 2 pi m + atan2(Im B0 sin theta, Re B0 sin theta + omega cos theta),

    the same from both sides of theta = +-pi, where m steps.

    Raises NumericalAbortError at the first sample where q, p, B or alpha
    is non-finite or N is NaN; it carries that z and the samples before
    it. A norm that overflows is inf, as in RK4.
    """
    omega, gamma = potential.omega, potential.gamma
    z = np.array(z_values, dtype=float)
    # a Python loop: numpy's any/diff would page in code on every run
    zs = z.tolist()
    if any(hi < lo for lo, hi in zip([0.0, *zs], zs)):
        raise ValueError("z_values must be non-decreasing")
    # a width or omega near the edge of the accepted range can overflow the closed
    # forms; each sample is checked below instead, as RK4 checks its state
    with np.errstate(all="ignore"):
        sol = center_solution(initial.q, initial.p, initial.b, gamma, omega)
        b = b_evolution(initial.b, omega, z)
        q, p = sol.q(z), sol.p(z)
        norm = initial.norm * sol.norm_ratio(z, hbar=hbar)
        alpha = initial.alpha + _phase_change(sol, hbar, z)
    columns = (z, q, p, b.real, b.imag, norm, alpha)
    # a norm that overflows stays inf, as RK4 reports it; NaN is an abort
    ok = np.isfinite(q) & np.isfinite(p) & np.isfinite(b.real) & np.isfinite(b.imag)
    ok &= np.isfinite(alpha) & ~np.isnan(norm)
    if not ok.all():
        k = int(ok.argmin())
        raise NumericalAbortError(
            f"closed forms became non-finite at z={z[k]:.6g}", z=float(z[k]),
            partial=Trajectory(*(column[:k] for column in columns)),
        )
    return Trajectory(*columns)
