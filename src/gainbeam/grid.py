"""Split-operator solution of the paraxial equation on a periodic grid.

The field is advanced by Strang splitting, second order in the step dz:

    psi <- H psi                                      half potential step
    psi <- IFFT( K FFT(psi) )                         full kinetic step
    psi <- H psi                                      half potential step

with H = exp(-i V(x) dz / (2 hbar)) and K = exp(-i hbar k^2 dz / (2 n0)).
V is complex: its imaginary part turns the potential factor into a real
gain/loss amplification, and the norm is deliberately never renormalized
during propagation -- it is one of the primary observables.

Between samples the two half potential steps of consecutive steps are one
multiply by H^2. The field (n = 2m points) is held as its even and odd
samples, the two rows of a (2, m) array, and the kinetic step transforms
both rows in one batched FFT call (the radix-2 decimation in time of
Cooley & Tukey, Math. Comp. 19 (1965) 297). With E, O the rows'
transforms and w = exp(-2 pi i / n), the butterflies X_k = E_k + w^k O_k,
X_{k+m} = E_k - w^k O_k of the forward transform, the kinetic factor and
the butterflies of the inverse transform fold into one 2x2 mix per k,

    [S_k; D_k] = [A_k, B_k; C_k, A_k] [E_k; O_k]
    A = (K_lo + K_hi) / n,  B = (K_lo - K_hi) w^k / n,  C = (K_lo - K_hi) w^-k / n

(K_lo, K_hi the first and second halves of K), and one batched unscaled
inverse m-point transform of S and D gives the even and odd samples of
the result. That is the same two FFT calls per step as the textbook
step, each a pair of half-length transforms.

The domain [-L, L) is periodic with no absorbing layers; boundary health
is monitored through the fraction of |psi|^2 in the outer 5% of the
domain, which triggers a warning above 1%.

:func:`propagate` measures each sample in its loop and returns columns
(:class:`GridRun`), keeping only the last field.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryContaminationWarning, NumericalAbortError
from .potentials import DEFAULT_CONSTANTS, PhysicalConstants, Potential

__all__ = [
    "GridSpec",
    "GridState",
    "GridObservables",
    "GridRun",
    "propagate",
    "schedule",
    "step_count",
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
        # the largest wavenumber is pi n / (2 half_width)
        if not math.isfinite(math.pi * n / self.half_width):
            raise ValueError(f"half_width {self.half_width} is too small: wavenumbers overflow")

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


@dataclass(frozen=True)
class GridObservables:
    """Moments of |psi|^2 plus the spectral momentum expectation."""

    norm: float
    mean_q: float
    mean_p: float
    delta_q: float
    edge_mass: float


@dataclass
class GridRun:
    """Samples of a run: a column per observable, an intensity row each, the last field."""

    z: np.ndarray
    norm: np.ndarray
    mean_q: np.ndarray
    mean_p: np.ndarray
    delta_q: np.ndarray
    edge_mass: np.ndarray
    intensity: np.ndarray
    final: GridState

    def __len__(self) -> int:
        return len(self.z)


def _geometry(spec: GridSpec):
    """Positions, wavenumbers, spacing and edge mask: what _measure needs of a grid."""
    x = spec.positions()
    return x, spec.wavenumbers(), spec.spacing, np.abs(x) >= (1.0 - EDGE_FRACTION) * spec.half_width


def _measure(psi, x, k, dx, edge_mask, hbar):
    """(|psi|^2, its integral, the GridObservables fields or None if it is not positive)."""
    density = np.abs(psi) ** 2
    mass = float(density.sum() * dx)
    if mass <= 0.0:
        return density, mass, None
    mean_q = float((x * density).sum() * dx / mass)
    mean_x2 = float((x * x * density).sum() * dx / mass)
    delta_q = math.sqrt(max(mean_x2 - mean_q * mean_q, 0.0))
    mean_p = float(hbar * (k * np.abs(np.fft.fft(psi)) ** 2).sum() * dx / (len(psi) * mass))
    edge = float(density[edge_mask].sum() * dx / mass)
    return density, mass, (math.sqrt(mass), mean_q, mean_p, delta_q, edge)


def observables(state: GridState, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> GridObservables:
    """Norm, center, momentum, width and edge mass of a grid state.

    The spectral momentum <p> = Re( sum conj(psi) (-i hbar d/dx psi) ) dx / norm^2
    is, by Parseval, hbar sum k |FFT(psi)_k|^2 dx / (n norm^2): one FFT.
    """
    _, _, moments = _measure(state.amplitudes, *_geometry(state.spec), constants.hbar)
    if moments is None:
        raise ValueError("cannot compute observables of a zero-norm state")
    return GridObservables(*moments)


def renormalized_intensity(state: GridState) -> np.ndarray:
    """|psi|^2 scaled to integrate to one; the quantity shown in heatmaps."""
    density = np.abs(state.amplitudes) ** 2
    mass = density.sum() * state.spec.spacing
    if mass <= 0.0:
        raise ValueError("cannot renormalize a zero-norm state")
    return density / mass


def step_count(z_max: float, dz: float) -> int:
    """Steps of a propagation to z_max: n = round(z_max / dz), at least 1.

    Raises ValueError unless z_max and dz are positive and n fits a list
    index (at most ``sys.maxsize``).
    """
    if not z_max > 0:
        raise ValueError(f"z_max must be positive, got {z_max}")
    if not dz > 0:
        raise ValueError(f"dz must be positive, got {dz}")
    if not z_max / dz < sys.maxsize:
        raise ValueError(
            f"dz = {dz!r} gives {z_max / dz:.3g} steps to z_max = {z_max!r}, "
            f"more than {sys.maxsize}"
        )
    return max(1, round(z_max / dz))


def schedule(z_max: float, dz: float, stride: int):
    """Step count, effective step and sampled step indices of one propagation.

    The step count is :func:`step_count` and the effective step
    z_max / n, so the last step lands exactly on z_max. Samples are
    taken at every ``stride``-th step from step 0 (the initial state) and
    at step n. Returns (n, z_max / n, sample_steps) with sample_steps an
    increasing list of step numbers; step k sits at z = k * z_max / n.
    """
    if stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {stride}")
    n_steps = step_count(z_max, dz)
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return n_steps, z_max / n_steps, steps


def _rows(a: np.ndarray) -> np.ndarray:
    """The even and odd samples of a field as the two rows of a (2, n/2) view."""
    return a.reshape(-1, 2).T


def propagate(
    initial: GridState,
    potential: Potential,
    z_max: float,
    dz: float = 1e-3,
    sample_stride: int = 1,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> GridRun:
    """Propagate a grid state to z_max, returning the samples as a GridRun.

    Samples follow :func:`schedule`: the first is the initial state at
    z = 0 and the last lands exactly on z_max. Each is measured in the
    loop, bit for bit as :func:`observables` and
    :func:`renormalized_intensity` measure a field.

    Raises NumericalAbortError if the field becomes non-finite (gain
    overflow) or |psi|^2 vanishes (loss underflow); its ``partial`` holds
    the samples taken before. Samples with more than 1% of |psi|^2 in the
    outer 5% of the domain are counted, and one BoundaryContaminationWarning
    per call reports their number, the first z and the largest edge mass,
    also when the run aborts.
    """
    n_steps, dz_eff, sample_steps = schedule(z_max, dz, sample_stride)
    spec = initial.spec
    n, m = spec.n_points, spec.n_points // 2

    x, k, dx, edge_mask = _geometry(spec)
    v = np.asarray(potential.value(x), dtype=complex)
    if not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
        raise ValueError("potential is non-finite on the grid")

    # rows z, norm, mean_q, mean_p, delta_q, edge_mass; a column per sample
    table = np.empty((6, len(sample_steps)))
    intensity = np.empty((len(sample_steps), n))
    psi, final = initial.amplitudes, initial
    taken = 0
    # chi is the field between the half potential steps, held as its even
    # and odd samples: the two rows of the batched half-length FFTs
    chi, halves, mix, odd = (np.empty((2, m), dtype=complex) for _ in range(4))

    # overflow (a tiny hbar in the factors, gain in the field) is detected
    # via the finiteness check at sample times; a field near overflow
    # measures as inf/nan
    with np.errstate(over="ignore", invalid="ignore"):
        half_potential = _rows(np.exp(-0.5j * dz_eff * v / constants.hbar)).copy()
        full_potential = half_potential * half_potential
        kinetic = np.exp(-0.5j * constants.hbar * dz_eff * k * k / constants.n_zero)
        twiddle = np.exp(-2j * np.pi / n * np.arange(m))
        same = (kinetic[:m] + kinetic[m:]) / n
        cross = (kinetic[:m] - kinetic[m:]) / n
        even_rows = np.stack([same, cross * twiddle.conj()])  # [A; C]
        odd_rows = np.stack([cross * twiddle, same])  # [B; A]
        for step in range(n_steps + 1):
            if step:
                np.fft.fft(chi, out=halves)
                np.multiply(halves[0], even_rows, out=mix)
                np.multiply(halves[1], odd_rows, out=odd)
                np.add(mix, odd, out=mix)
                np.fft.ifft(mix, norm="forward", out=chi)
                if step != sample_steps[taken]:
                    chi *= full_potential
                    continue
                # a fresh array, so the last sampled field stays intact
                psi = np.empty(n, dtype=complex)
                np.multiply(chi, half_potential, out=_rows(psi))
            density, mass, moments = _measure(psi, x, k, dx, edge_mask, constants.hbar)
            # the initial field is taken as given; later, a non-finite field
            # is gain overflow and no moments means loss has underflowed |psi|^2
            finite = not step or np.all(np.isfinite(psi.real) & np.isfinite(psi.imag))
            if moments is None or not finite:
                break
            table[:, taken] = (step * dz_eff, *moments)
            np.divide(density, mass, out=intensity[taken])
            final = GridState(spec, psi, step * dz_eff)
            taken += 1
            np.multiply(_rows(psi), half_potential, out=chi)
    run = GridRun(*table[:, :taken], intensity[:taken], final)
    flagged = np.flatnonzero(run.edge_mass > EDGE_MASS_LIMIT)
    if len(flagged):
        warnings.warn(
            f"{len(flagged)} samples hold more than {EDGE_MASS_LIMIT:.0%} of |psi|^2 "
            f"in the outer {EDGE_FRACTION:.0%} of the domain, the first at "
            f"z={run.z[flagged[0]]:.6g}, at most {run.edge_mass[flagged].max():.3g}; "
            "results may be contaminated by the periodic boundary",
            BoundaryContaminationWarning,
            stacklevel=2,
        )
    if taken < len(sample_steps):
        z_abort = sample_steps[taken] * dz_eff
        raise NumericalAbortError(
            f"field became non-finite or vanished by z={z_abort:.6g} "
            "(gain overflow or loss underflow?)",
            z=z_abort,
            partial=run,
        )
    return run
