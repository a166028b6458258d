"""Five-parameter Gaussian beam dynamics.

The beam is the Gaussian ansatz

    psi(x, z) = N (Im B / pi)^(1/4) exp(i (B/2 (x-q)^2 + p (x-q) + alpha))

with real center q, momentum p, complex width parameter B (Im B > 0),
norm N >= 0 and phase alpha. Expanding the potential to second order
around q yields closed evolution equations for the five parameters:

    p' = -V_R'(q) + (Re B / Im B) V_I'(q)
    q' = p + V_I'(q) / Im B
    B' = -B^2 - V_R''(q) - i V_I''(q)
    N' = (V_I(q) / hbar + V_I''(q) / (4 Im B)) N
    alpha' = p q' - p^2 / 2 - V_R(q) - Im B / 2

Without gain or loss (V_I = 0) the first two lines are Hamilton's
equations and N is conserved; with V_I the width couples into the motion
of the center, which is the effect this package exists to study.

The integrator is fixed-step classical RK4 on the six real components
(q, p, Re B, Im B, log N, alpha). log N rather than N is integrated so
that strong gain cannot overflow the state.
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


class GaussianDerivatives(NamedTuple):
    dq: float
    dp: float
    db: complex
    dnorm: float
    dalpha: float


@dataclass
class Trajectory:
    """Ordered samples (z, GaussianParams) from one integration.

    z is strictly increasing and the first sample is the initial
    condition at z = 0.
    """

    samples: list
    dz: float
    potential: dict

    @property
    def zs(self) -> np.ndarray:
        return np.array([z for z, _ in self.samples])

    def columns(self) -> dict:
        """Column arrays (z, q, p, re_b, im_b, norm, alpha, delta_q, delta_p)."""
        zs, qs, ps, rb, ib, ns, al = [], [], [], [], [], [], []
        for z, g in self.samples:
            zs.append(z)
            qs.append(g.q)
            ps.append(g.p)
            rb.append(g.b.real)
            ib.append(g.b.imag)
            ns.append(g.norm)
            al.append(g.alpha)
        ib_arr = np.array(ib)
        dq = 1.0 / np.sqrt(2.0 * ib_arr)
        dp = np.hypot(rb, ib) / np.sqrt(2.0 * ib_arr)
        return {
            "z": np.array(zs),
            "q": np.array(qs),
            "p": np.array(ps),
            "re_b": np.array(rb),
            "im_b": ib_arr,
            "norm": np.array(ns),
            "alpha": np.array(al),
            "delta_q": dq,
            "delta_p": dp,
        }


def _require_width(b: complex, z=None):
    if not b.imag > 0.0:
        raise WidthCollapseError(
            f"Im B = {b.imag:.6g} <= 0: Gaussian is no longer normalizable", z=z
        )


def rhs(
    params: GaussianParams,
    sample: PotentialSample,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> GaussianDerivatives:
    """d/dz of (q, p, B, N, alpha) for a potential sampled at the center."""
    _require_width(params.b)
    im_b = params.b.imag
    re_b = params.b.real
    dq = params.p + sample.dv_imag / im_b
    dp = -sample.dv_real + (re_b / im_b) * sample.dv_imag
    db = -params.b * params.b - sample.d2v_real - 1j * sample.d2v_imag
    dnorm = (sample.v_imag / constants.hbar + sample.d2v_imag / (4.0 * im_b)) * params.norm
    dalpha = params.p * dq - 0.5 * params.p * params.p - sample.v_real - 0.5 * im_b
    return GaussianDerivatives(dq, dp, db, dnorm, dalpha)


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


def widths(params: GaussianParams):
    """Position and momentum widths (1/sqrt(2 Im B), |B|/sqrt(2 Im B))."""
    _require_width(params.b)
    root = math.sqrt(2.0 * params.b.imag)
    return 1.0 / root, abs(params.b) / root


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
    sample = potential.sample

    q, p = initial.q, initial.p
    br, bi = initial.b.real, initial.b.imag
    ln, al = 0.0, initial.alpha

    traj = Trajectory(samples=[(0.0, initial)], dz=dz_eff, potential=potential.describe())

    def deriv(q, p, br, bi, ln, al, z):
        if bi <= 0.0:
            raise WidthCollapseError(
                f"Im B reached {bi:.6g} at z={z:.6g}", z=z, partial=traj
            )
        s = sample(q)
        dq = p + s.dv_imag / bi
        dp = -s.dv_real + (br / bi) * s.dv_imag
        dbr = bi * bi - br * br - s.d2v_real
        dbi = -2.0 * br * bi - s.d2v_imag
        dln = s.v_imag / hbar + s.d2v_imag / (4.0 * bi)
        dal = p * dq - 0.5 * p * p - s.v_real - 0.5 * bi
        return dq, dp, dbr, dbi, dln, dal

    h = dz_eff
    for step in range(1, n_steps + 1):
        z0 = (step - 1) * dz_eff
        k1 = deriv(q, p, br, bi, ln, al, z0)
        k2 = deriv(
            q + 0.5 * h * k1[0], p + 0.5 * h * k1[1], br + 0.5 * h * k1[2],
            bi + 0.5 * h * k1[3], ln + 0.5 * h * k1[4], al + 0.5 * h * k1[5],
            z0 + 0.5 * h,
        )
        k3 = deriv(
            q + 0.5 * h * k2[0], p + 0.5 * h * k2[1], br + 0.5 * h * k2[2],
            bi + 0.5 * h * k2[3], ln + 0.5 * h * k2[4], al + 0.5 * h * k2[5],
            z0 + 0.5 * h,
        )
        k4 = deriv(
            q + h * k3[0], p + h * k3[1], br + h * k3[2],
            bi + h * k3[3], ln + h * k3[4], al + h * k3[5],
            z0 + h,
        )
        sixth = h / 6.0
        q += sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        p += sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        br += sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        bi += sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        ln += sixth * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4])
        al += sixth * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5])
        z_now = step * dz_eff
        if not (
            math.isfinite(q) and math.isfinite(p) and math.isfinite(br)
            and math.isfinite(bi) and math.isfinite(ln) and math.isfinite(al)
        ):
            raise NumericalAbortError(
                f"state became non-finite by z={z_now:.6g}", z=z_now, partial=traj
            )
        if bi <= 0.0:
            raise WidthCollapseError(
                f"Im B reached {bi:.6g} at z={z_now:.6g}", z=z_now, partial=traj
            )
        if step in sampled:
            traj.samples.append(
                (
                    z_now,
                    GaussianParams(
                        q, p, complex(br, bi), _norm_from_log(ln, initial.norm), al
                    ),
                )
            )
    return traj


def reconstruct_wavefunction(
    params: GaussianParams, grid: GridSpec, z: float = 0.0
) -> GridState:
    """Sample the Gaussian ansatz on a grid.

        psi(x) = N (Im B / pi)^(1/4) exp(i (B/2 (x-q)^2 + p (x-q) + alpha))

    Warns (NarrowGridWarning) if either grid edge is closer than six beam
    widths to the center.
    """
    _require_width(params.b)
    delta_q, _ = widths(params)
    edge_distance = min(
        grid.half_width - params.q, grid.half_width + params.q
    )
    if edge_distance < 6.0 * delta_q:
        warnings.warn(
            f"grid edge only {edge_distance:.3g} from beam center "
            f"(< 6 delta_q = {6.0 * delta_q:.3g}); tails will be truncated",
            NarrowGridWarning,
            stacklevel=2,
        )
    x = grid.positions()
    u = x - params.q
    phase = 0.5 * params.b * u * u + params.p * u + params.alpha
    amps = params.norm * (params.b.imag / math.pi) ** 0.25 * np.exp(1j * phase)
    return GridState(grid, amps, z)
