"""Five-parameter Gaussian beam dynamics.

The beam is the Gaussian ansatz

    psi(x, z) = N (Im B / (pi hbar))^(1/4) exp(i (B/2 (x-q)^2 + p (x-q) + alpha) / hbar)

with real center q, momentum p, complex width parameter B (Im B > 0),
norm N >= 0 and phase alpha. Expanding the potential to second order
around q yields closed evolution equations for the five parameters:

    p' = -V_R'(q) + (Re B / Im B) V_I'(q)
    q' = p + V_I'(q) / Im B
    B' = -B^2 - V_R''(q) - i V_I''(q)
    N' = (V_I(q) / hbar + V_I''(q) / (4 Im B)) N
    alpha' = p q' - p^2 / 2 - V_R(q) - hbar Im B / 2

Without gain or loss (V_I = 0) the first two lines are Hamilton's
equations and N is conserved; with V_I the width couples into the motion
of the center, which is the effect this package exists to study.

The integrator is fixed-step classical RK4 on the six real components
(q, p, Re B, Im B, log N, alpha). log N rather than N is integrated so
that strong gain cannot overflow the state. Every stage samples the potential
through one ``Potential.sampler()``, taken once per :func:`integrate` call.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NarrowGridWarning, NumericalAbortError, WidthCollapseError
from .grid import GridSpec, GridState, schedule
from .potentials import DEFAULT_CONSTANTS, PhysicalConstants, Potential, PotentialSample

__all__ = [
    "GaussianParams",
    "GaussianDerivatives",
    "Trajectory",
    "rhs",
    "center_acceleration",
    "widths",
    "integrate",
    "reconstruct_wavefunction",
]

# norm values above exp(_LOG_NORM_CAP) are reported as inf instead of overflowing
_LOG_NORM_CAP = 709.0


@dataclass(frozen=True)
class GaussianParams:
    """The five evolving beam parameters (q, p, B, N, alpha)."""

    q: float
    p: float
    b: complex
    norm: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "norm", float(self.norm))
        object.__setattr__(self, "alpha", float(self.alpha))


def valid_width(b):
    """Im b > 0 with |b|^2 and 1 / Im b finite, entry by entry for an array.

    B enters the beam equations squared and as 1 / Im B, so both must be finite.
    """
    b = np.asarray(b, dtype=complex)
    with np.errstate(all="ignore"):
        return (b.imag > 0) & np.isfinite(b.real * b.real + b.imag * b.imag + 1.0 / b.imag)


class GaussianDerivatives(NamedTuple):
    dq: float
    dp: float
    db: complex
    dnorm: float
    dalpha: float


_FIELDS = ("z", "q", "p", "re_b", "im_b", "norm", "alpha")


@dataclass
class Trajectory:
    """The samples of one propagation, one float array per parameter.

    z is non-decreasing. A stepped run starts from the initial condition
    at z = 0 and its z increases strictly; its step is that of the
    schedule it followed, z_max / n, and is not stored. A run is read as
    its CSV :meth:`columns` and its heatmap :meth:`intensity_rows`.
    """

    z: np.ndarray
    q: np.ndarray
    p: np.ndarray
    re_b: np.ndarray
    im_b: np.ndarray
    norm: np.ndarray
    alpha: np.ndarray

    @property
    def zs(self) -> np.ndarray:
        """The z column."""
        return self.z

    @property
    def samples(self) -> list:
        """(z, GaussianParams) pairs, rebuilt on every access: loops index the columns."""
        return [
            (z, GaussianParams(q, p, complex(re_b, im_b), norm, alpha))
            for z, q, p, re_b, im_b, norm, alpha in zip(
                *(getattr(self, name).tolist() for name in _FIELDS)
            )
        ]

    @property
    def mean_q(self) -> np.ndarray:
        """The center column q, under the name a grid run gives it."""
        return self.q

    def columns(self, hbar: float = 1.0) -> dict:
        """Column arrays (z, q, p, re_b, im_b, norm, alpha, delta_q, delta_p); the widths
        are in hbar = 1 units by default and physical, sqrt(hbar) times those, at ``hbar``."""
        cols = {name: getattr(self, name) for name in _FIELDS}
        scale = math.sqrt(hbar)
        cols["delta_q"], cols["delta_p"] = (scale * w for w in _widths(self.re_b, self.im_b))
        return cols

    def intensity_rows(self, x: np.ndarray, hbar: float, rows) -> np.ndarray:
        """Rows (a slice or index array) of the ansatz's renormalized |psi|^2 on positions x:
        sqrt(Im B / (pi hbar)) exp(-Im B (x - q)^2 / hbar), which the norm does not enter."""
        im_b, u = self.im_b[rows, None], x - self.q[rows, None]
        # a grid far wider than the beam overflows the exponent to -inf: intensity 0
        with np.errstate(over="ignore"):
            intensity = -im_b * u * u / hbar
            np.exp(intensity, out=intensity)
            # Im B / (pi hbar) can overflow where its root, below 3e238, does not
            peak = np.sqrt(im_b / (math.pi * hbar))
            peak = np.where(np.isfinite(peak), peak, np.sqrt(im_b / math.pi) / math.sqrt(hbar))
            intensity *= peak
        return intensity


def _require_width(b: complex, z=None):
    if not b.imag > 0.0:
        raise WidthCollapseError(
            f"Im B = {b.imag:.6g} <= 0: Gaussian is no longer normalizable", z=z
        )


def _rates(q, p, re_b, im_b, sample: PotentialSample, hbar: float):
    """d/dz of (q, p, Re B, Im B, log N, alpha); the equations of motion."""
    v_real, v_imag, dv_real, dv_imag, d2v_real, d2v_imag = sample
    dq = p + dv_imag / im_b
    return (
        dq,
        -dv_real + (re_b / im_b) * dv_imag,
        im_b * im_b - re_b * re_b - d2v_real,
        -2.0 * re_b * im_b - d2v_imag,
        v_imag / hbar + d2v_imag / (4.0 * im_b),
        p * dq - 0.5 * p * p - v_real - 0.5 * hbar * im_b,
    )


def rhs(
    params: GaussianParams,
    sample: PotentialSample,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> GaussianDerivatives:
    """d/dz of (q, p, B, N, alpha) for a potential sampled at the center."""
    _require_width(params.b)
    dq, dp, dbr, dbi, dln, dalpha = _rates(
        params.q, params.p, params.b.real, params.b.imag, sample, constants.hbar
    )
    return GaussianDerivatives(dq, dp, complex(dbr, dbi), dln * params.norm, dalpha)


def center_acceleration(params: GaussianParams, sample: PotentialSample) -> float:
    """Second z-derivative of the center, with p eliminated.

    Differentiating q' = p + V_I'(q) / Im B along the flow (the width
    ratio itself evolves, d/dz (1/Im B) = 2 Re B / Im B + V_I'' / (Im B)^2)
    gives

        q'' = -V_R' + 3 (Re B / Im B) V_I' + (V_I'' / Im B) (q' + V_I' / Im B)

    evaluated at q. Provided as a consistency check on :func:`rhs`, not
    used by the integrator.
    """
    _require_width(params.b)
    im_b = params.b.imag
    dq = params.p + sample.dv_imag / im_b
    return (
        -sample.dv_real
        + 3.0 * (params.b.real / im_b) * sample.dv_imag
        + (sample.d2v_imag / im_b) * (dq + sample.dv_imag / im_b)
    )


def _widths(re_b, im_b):
    # (1, |B|) / sqrt(2 Im B), in hbar = 1 units; scalars or arrays
    root = np.sqrt(2.0 * im_b)
    return 1.0 / root, np.hypot(re_b, im_b) / root


def widths(params: GaussianParams):
    """Position and momentum widths (1/sqrt(2 Im B), |B|/sqrt(2 Im B)), hbar = 1 units."""
    _require_width(params.b)
    return _widths(params.b.real, params.b.imag)


def _norm_from_log(log_norm: float, norm0: float) -> float:
    if norm0 == 0.0:
        return 0.0
    if log_norm > _LOG_NORM_CAP:
        return math.inf
    return norm0 * math.exp(log_norm)


def integrate(
    initial: GaussianParams,
    potential: Potential,
    z_max: float,
    dz: float = 1e-3,
    sample_stride: int = 1,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> Trajectory:
    """Propagate the Gaussian parameters to z_max with fixed-step RK4.

    Steps and samples follow :func:`gainbeam.grid.schedule`, so the
    trajectory starts at z = 0 and ends exactly at z_max.

    Raises WidthCollapseError if Im B <= 0 at any stage evaluation and
    NumericalAbortError if the state becomes non-finite; both carry the
    z reached and the partial trajectory.
    """
    n_steps, dz_eff, sample_steps = schedule(z_max, dz, sample_stride)
    _require_width(initial.b, z=0.0)
    if initial.norm < 0 or not math.isfinite(initial.norm):
        raise ValueError(f"norm must be finite and >= 0, got {initial.norm}")

    sampled = set(sample_steps)
    hbar = constants.hbar
    sample = potential.sampler()
    isfinite = math.isfinite

    q, p = initial.q, initial.p
    br, bi = initial.b.real, initial.b.imag
    ln, al = 0.0, initial.alpha

    # one tuple per sample, in the order of Trajectory's array fields
    rows = [(0.0, q, p, br, bi, initial.norm, al)]

    def record():
        return Trajectory(*np.array(rows).T)

    def collapse(bi, z):
        return WidthCollapseError(f"Im B reached {bi:.6g} at z={z:.6g}", z=z, partial=record())

    h = dz_eff
    half = 0.5 * h
    sixth = h / 6.0
    # Im B is checked before every stage, at the stage's z; the first stage's
    # check is the previous step's last one, or the initial width check.
    # qs and bis hold the next stage's q and Im B; the 1..4 locals are rates.
    # z is formed only where it is read: at a sample, an abort or a collapse
    for step in range(1, n_steps + 1):
        q1, p1, br1, bi1, ln1, al1 = _rates(q, p, br, bi, sample(q), hbar)
        qs, bis = q + half * q1, bi + half * bi1
        if bis <= 0.0:
            raise collapse(bis, (step - 1) * dz_eff + half)
        q2, p2, br2, bi2, ln2, al2 = _rates(
            qs, p + half * p1, br + half * br1, bis, sample(qs), hbar
        )
        qs, bis = q + half * q2, bi + half * bi2
        if bis <= 0.0:
            raise collapse(bis, (step - 1) * dz_eff + half)
        q3, p3, br3, bi3, ln3, al3 = _rates(
            qs, p + half * p2, br + half * br2, bis, sample(qs), hbar
        )
        qs, bis = q + h * q3, bi + h * bi3
        if bis <= 0.0:
            raise collapse(bis, (step - 1) * dz_eff + h)
        q4, p4, br4, bi4, ln4, al4 = _rates(
            qs, p + h * p3, br + h * br3, bis, sample(qs), hbar
        )
        q += sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        p += sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        br += sixth * (br1 + 2.0 * br2 + 2.0 * br3 + br4)
        bi += sixth * (bi1 + 2.0 * bi2 + 2.0 * bi3 + bi4)
        ln += sixth * (ln1 + 2.0 * ln2 + 2.0 * ln3 + ln4)
        al += sixth * (al1 + 2.0 * al2 + 2.0 * al3 + al4)
        if not (
            isfinite(q) and isfinite(p) and isfinite(br)
            and isfinite(bi) and isfinite(ln) and isfinite(al)
        ):
            z_now = step * dz_eff
            raise NumericalAbortError(
                f"state became non-finite by z={z_now:.6g}", z=z_now, partial=record()
            )
        if bi <= 0.0:
            raise collapse(bi, step * dz_eff)
        if step in sampled:
            rows.append((step * dz_eff, q, p, br, bi, _norm_from_log(ln, initial.norm), al))
    return record()


def reconstruct_wavefunction(
    params: GaussianParams,
    grid: GridSpec,
    *,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> GridState:
    """Sample the Gaussian ansatz on a grid, as a GridState (which holds no z).

        psi(x) = N (Im B / (pi hbar))^(1/4) exp(i (B/2 (x-q)^2 + p (x-q) + alpha) / hbar)

    Warns (NarrowGridWarning) if either grid edge is closer than six beam
    widths sqrt(hbar / (2 Im B)) to the center, or the center lies off the
    grid [-half_width, half_width).
    """
    _require_width(params.b)
    hbar = constants.hbar
    delta_q = math.sqrt(hbar) * widths(params)[0]
    edge_distance = grid.half_width - abs(params.q)
    if edge_distance < 6.0 * delta_q:
        warnings.warn(
            f"grid edge only {edge_distance:.3g} from beam center "
            f"(< 6 delta_q = {6.0 * delta_q:.3g}); tails will be truncated"
            if -grid.half_width <= params.q < grid.half_width else
            f"beam center {params.q:.3g} lies outside the grid [-half_width, half_width), "
            f"half_width = {grid.half_width:.3g}",
            NarrowGridWarning,
            stacklevel=2,
        )
    x = grid.positions()
    u = x - params.q
    # a tiny hbar, or a grid far from the beam, overflows the prefactor or
    # the phase to inf/nan, which propagate's check of its initial field rejects
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 0.5 * params.b * u * u + params.p * u + params.alpha
        amps = params.norm * (params.b.imag / (math.pi * hbar)) ** 0.25 * np.exp(1j * phase / hbar)
    return GridState(grid, amps)
