"""Split-operator solution of the paraxial equation on a periodic grid.

The field is advanced by Strang splitting, second order in the step dz:

    psi <- exp(-i V(x) dz / (2 hbar)) psi                     half potential step
    psi <- IFFT( exp(-i hbar k^2 dz / (2 n0)) FFT(psi) )      full kinetic step
    psi <- exp(-i V(x) dz / (2 hbar)) psi                     half potential step

V is complex: its imaginary part turns the potential factor into a real
gain/loss amplification, and the norm is deliberately never renormalized
during propagation -- it is one of the primary observables.

The domain [-L, L) is periodic with no absorbing layers; boundary health
is monitored through the fraction of |psi|^2 in the outer 5% of the
domain, which triggers a warning above 1%.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryContaminationWarning, NumericalAbortError
from .potentials import DEFAULT_CONSTANTS, PhysicalConstants, Potential

__all__ = [
    "GridSpec",
    "GridState",
    "GridObservables",
    "propagate",
    "schedule",
    "observables",
    "renormalized_intensity",
    "EDGE_FRACTION",
    "EDGE_MASS_LIMIT",
]

# Outer fraction of the domain (by measure, split between the two edges)
# counted as "edge", and the edge mass above which a sample is flagged.
EDGE_FRACTION = 0.05
EDGE_MASS_LIMIT = 0.01


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_width, half_width)."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        n = self.n_points
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 256, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    def positions(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


@dataclass
class GridState:
    """Complex field amplitudes psi(x_j) at propagation distance z."""

    spec: GridSpec
    amplitudes: np.ndarray
    z: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.spec.n_points,):
            raise ValueError(
                f"amplitudes must have shape ({self.spec.n_points},), got {amps.shape}"
            )
        self.amplitudes = amps

    def copy(self) -> "GridState":
        return GridState(self.spec, self.amplitudes.copy(), self.z)


@dataclass(frozen=True)
class GridObservables:
    """Moments of |psi|^2 plus the spectral momentum expectation."""

    norm: float
    mean_q: float
    mean_p: float
    delta_q: float
    edge_mass: float


def _edge_mask(spec: GridSpec) -> np.ndarray:
    return np.abs(spec.positions()) >= (1.0 - EDGE_FRACTION) * spec.half_width


def observables(state: GridState, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> GridObservables:
    """Norm, center, momentum, width and edge mass of a grid state.

    The momentum expectation uses the spectral derivative
    <p> = Re( sum conj(psi) * (-i hbar d/dx psi) ) dx / norm^2.
    """
    psi = state.amplitudes
    x = state.spec.positions()
    dx = state.spec.spacing
    density = np.abs(psi) ** 2
    mass = float(density.sum() * dx)
    if mass <= 0.0:
        raise ValueError("cannot compute observables of a zero-norm state")
    mean_q = float((x * density).sum() * dx / mass)
    mean_x2 = float((x * x * density).sum() * dx / mass)
    delta_q = math.sqrt(max(mean_x2 - mean_q * mean_q, 0.0))
    k = state.spec.wavenumbers()
    dpsi = np.fft.ifft(1j * k * np.fft.fft(psi))
    mean_p = float(np.real(np.conj(psi) * (-1j * constants.hbar) * dpsi).sum() * dx / mass)
    edge = float(density[_edge_mask(state.spec)].sum() * dx / mass)
    return GridObservables(
        norm=math.sqrt(mass),
        mean_q=mean_q,
        mean_p=mean_p,
        delta_q=delta_q,
        edge_mass=edge,
    )


def renormalized_intensity(state: GridState) -> np.ndarray:
    """|psi|^2 scaled to integrate to one; the quantity shown in heatmaps."""
    density = np.abs(state.amplitudes) ** 2
    mass = density.sum() * state.spec.spacing
    if mass <= 0.0:
        raise ValueError("cannot renormalize a zero-norm state")
    return density / mass


def schedule(z_max: float, dz: float, stride: int):
    """Step count, effective step and sampled step indices of one propagation.

    The step count is n = round(z_max / dz), at least 1, and the effective
    step z_max / n, so the last step lands exactly on z_max. Samples are
    taken at every ``stride``-th step from step 0 (the initial state) and
    at step n. Returns (n, z_max / n, sample_steps) with sample_steps an
    increasing list of step numbers; step k sits at z = k * z_max / n.
    """
    if not z_max > 0:
        raise ValueError(f"z_max must be positive, got {z_max}")
    if not dz > 0:
        raise ValueError(f"dz must be positive, got {dz}")
    if stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {stride}")
    n_steps = max(1, round(z_max / dz))
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return n_steps, z_max / n_steps, steps


def propagate(
    initial: GridState,
    potential: Potential,
    z_max: float,
    dz: float = 1e-3,
    sample_stride: int = 1,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """Propagate a grid state to z_max, returning [(z, GridState), ...].

    Samples follow :func:`schedule`: the first is the initial state at
    z = 0 and the last lands exactly on z_max.

    Raises NumericalAbortError if the field becomes non-finite (gain
    overflow). Samples with more than 1% of |psi|^2 in the outer 5% of the
    domain are counted, and one BoundaryContaminationWarning per call
    reports their number, the first z and the largest edge mass, also
    when the run aborts.
    """
    n_steps, dz_eff, sample_steps = schedule(z_max, dz, sample_stride)
    spec = initial.spec

    v = np.asarray(potential.value(spec.positions()), dtype=complex)
    if not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
        raise ValueError("potential is non-finite on the grid")
    half_potential = np.exp(-0.5j * dz_eff * v / constants.hbar)
    k = spec.wavenumbers()
    kinetic = np.exp(-0.5j * constants.hbar * dz_eff * k * k / constants.n_zero)

    edge_mask = _edge_mask(spec)
    psi = initial.amplitudes.astype(complex, copy=True)
    samples = [(0.0, GridState(spec, psi.copy(), 0.0))]
    sampled = set(sample_steps)
    contaminated = []  # (z, edge mass) of every flagged sample
    aborted_at = None

    fft, ifft = np.fft.fft, np.fft.ifft
    # overflow is detected via the finiteness check at sample times
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            psi *= half_potential
            psi = ifft(kinetic * fft(psi))
            psi *= half_potential
            if step not in sampled:
                continue
            z_now = step * dz_eff
            if not np.all(np.isfinite(psi.real) & np.isfinite(psi.imag)):
                aborted_at = z_now
                break
            density = np.abs(psi) ** 2
            mass = density.sum()
            if mass > 0.0:
                edge = density[edge_mask].sum() / mass
                if edge > EDGE_MASS_LIMIT:
                    contaminated.append((z_now, edge))
            samples.append((z_now, GridState(spec, psi.copy(), z_now)))
    if contaminated:
        warnings.warn(
            f"{len(contaminated)} samples hold more than {EDGE_MASS_LIMIT:.0%} of |psi|^2 "
            f"in the outer {EDGE_FRACTION:.0%} of the domain, the first at "
            f"z={contaminated[0][0]:.6g}, at most {max(e for _, e in contaminated):.3g}; "
            "results may be contaminated by the periodic boundary",
            BoundaryContaminationWarning,
            stacklevel=2,
        )
    if aborted_at is not None:
        raise NumericalAbortError(
            f"field became non-finite by z={aborted_at:.6g} (gain overflow?)",
            z=aborted_at,
            partial=samples,
        )
    return samples
