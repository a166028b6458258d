"""Split-operator solution of the paraxial equation on a periodic grid.

The field obeys psi_z = (A + B) psi with the potential and kinetic
generators A = -i V(x) / hbar and B = -i hbar k^2 / (2 n0). One step is a
Strang step of a modified potential,

    S = H K H,   H = exp(-i V_mod(x) dz / (2 hbar)),   K = exp(-i hbar k^2 dz / (2 n0)),
    V_mod = V - dz^2 V'^2 / (24 n0)

(V'^2 the complex square of V' = V_R' + i V_I'), and the samples are
processed (Blanes, Casas & Ros, SIAM J. Sci. Comput. 21 (1999) 711):

    psi(z_k) = exp(eps C) S^k exp(-eps C) psi(0),   eps = dz^2 / 12,
    C psi = (V'' psi + 2 V' psi') / (2 n0),

with psi' the spectral derivative. Strang's error per step is
dz^3 (-[A,[A,B]] / 24 + [B,[B,A]] / 12); the dz^2 V'^2 term of V_mod,
which is -dz^3 [A,[A,B]] / 24 in the exponent (Takahashi & Imada,
J. Phys. Soc. Jpn. 53 (1984) 3765), turns it into dz^3 [[A,B], A + B] / 12,
a commutator with the generator, which the similarity transform by
exp(eps C) cancels, since C = -[A,B]. What is left is dz^5 per step, so
the samples are fourth order in dz at the cost of one Strang step per
step. hbar cancels from C and from the correction to V. The processor is
applied to second order, I +- eps C + eps^2 C^2 / 2, once to the initial
field and once at each later sample; the kernel steps the unprocessed
field, and the sample at z = 0 is the initial field itself. V' and V''
are read from ``Potential.sample`` at each grid point once per call.
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
step, each a pair of half-length transforms. The processor's spectral
derivatives are the same mix with i k in place of K: four FFT calls per
processed field.

The domain [-L, L) is periodic with no absorbing layers; boundary health
is monitored through the fraction of |psi|^2 in the outer 5% of the
domain, which triggers a warning above 1%, and resolution through the
fraction of |FFT psi|^2 in the outer 5% of |k|, which triggers a warning
above 1e-10.

:func:`propagate` measures each sample in its loop and returns columns
(:class:`GridRun`), keeping only the last field.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BoundaryContaminationWarning, NumericalAbortError, UnderResolvedGridWarning
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
    "K_EDGE_MASS_LIMIT",
]

# Outer fraction of the domain (by measure, split between the two edges)
# counted as "edge", and the edge mass above which a sample is flagged;
# the same fraction of |k| is the momentum edge, and a well-resolved field
# holds far less than K_EDGE_MASS_LIMIT of |FFT psi|^2 there (below 1e-19
# on the built-ins)
EDGE_FRACTION = 0.05
EDGE_MASS_LIMIT = 0.01
K_EDGE_MASS_LIMIT = 1e-10


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
    """Moments of |psi|^2 plus the spectral momentum expectation and momentum-edge mass."""

    norm: float
    mean_q: float
    mean_p: float
    delta_q: float
    edge_mass: float
    k_edge_mass: float


@dataclass
class GridRun:
    """Samples of a run: a column per observable, an intensity row each or None, the last
    field. It is read as a Trajectory is, by :meth:`columns` and :meth:`intensity_rows`."""

    z: np.ndarray
    norm: np.ndarray
    mean_q: np.ndarray
    mean_p: np.ndarray
    delta_q: np.ndarray
    edge_mass: np.ndarray
    k_edge_mass: np.ndarray
    intensity: np.ndarray | None
    final: GridState

    def __len__(self) -> int:
        return len(self.z)

    def columns(self, hbar: float = 1.0) -> dict:
        """The observable columns in CSV order, physical at any hbar."""
        return {name: getattr(self, name) for name in _COLUMNS}

    def intensity_rows(self, x: np.ndarray, hbar: float, rows) -> np.ndarray:
        """Rows (a slice or index array) of the stored intensity, on the run's own x and hbar."""
        if self.intensity is None:
            raise ValueError("the run was propagated with intensity=False: it holds no rows")
        return self.intensity[rows]


_COLUMNS = ("z", "norm", "mean_q", "mean_p", "delta_q", "edge_mass", "k_edge_mass")


def _geometry(spec: GridSpec):
    """Positions, wavenumbers, spacing and the edge masks in x and k: what _measure needs."""
    x, k, dx, edge = spec.positions(), spec.wavenumbers(), spec.spacing, 1.0 - EDGE_FRACTION
    # the largest |k| is pi / dx
    return x, k, dx, np.abs(x) >= edge * spec.half_width, np.abs(k) >= edge * np.pi / dx


def _measure(psi, x, k, dx, edge_mask, k_edge_mask, hbar):
    """(|psi|^2, its integral, the GridObservables fields or None).

    None unless 0 < mass < inf and all six fields are finite: the one rule
    for a field that can be sampled.
    """
    density = np.abs(psi) ** 2
    mass = float(density.sum() * dx)
    if not 0.0 < mass < math.inf:
        return density, mass, None
    mean_q = float((x * density).sum() * dx / mass)
    mean_x2 = float((x * x * density).sum() * dx / mass)
    delta_q = math.sqrt(max(mean_x2 - mean_q * mean_q, 0.0))
    # |FFT psi|^2 sums to len(psi) mass / dx (Parseval)
    spectrum = np.abs(np.fft.fft(psi)) ** 2
    mean_p = float(hbar * (k * spectrum).sum() * dx / (len(psi) * mass))
    edge = float(density[edge_mask].sum() * dx / mass)
    k_edge = float(spectrum[k_edge_mask].sum() * dx / (len(psi) * mass))
    moments = (math.sqrt(mass), mean_q, mean_p, delta_q, edge, k_edge)
    return density, mass, moments if all(map(math.isfinite, moments)) else None


def observables(state: GridState, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> GridObservables:
    """Norm, center, momentum, width and position and momentum edge masses of a grid state.

    The spectral momentum <p> = Re( sum conj(psi) (-i hbar d/dx psi) ) dx / norm^2
    is, by Parseval, hbar sum k |FFT(psi)_k|^2 dx / (n norm^2): one FFT.
    """
    _, _, moments = _measure(state.amplitudes, *_geometry(state.spec), constants.hbar)
    if moments is None:
        raise ValueError("cannot compute observables of a zero-norm or non-finite state")
    return GridObservables(*moments)


def renormalized_intensity(state: GridState) -> np.ndarray:
    """|psi|^2 scaled to integrate to one; the quantity shown in heatmaps."""
    # a ValueError for any state that observables rejects at the default hbar
    geometry = _geometry(state.spec)
    density, mass, moments = _measure(state.amplitudes, *geometry, DEFAULT_CONSTANTS.hbar)
    if moments is None:
        raise ValueError("cannot renormalize a zero-norm or non-finite state")
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


def _mix(multiplier: np.ndarray) -> np.ndarray:
    """The (2, 2, n/2) rows [[A; A], [B; C]] that apply a diagonal spectral multiplier
    between a batched forward and an unscaled inverse transform of the even/odd rows:
    the transforms H of the rows become H * [A; A] + H[::-1] * [B; C]."""
    n = len(multiplier)
    m = n // 2
    twiddle = np.exp(-2j * np.pi / n * np.arange(m))
    same = (multiplier[:m] + multiplier[m:]) / n
    cross = (multiplier[:m] - multiplier[m:]) / n
    return np.array([[same, same], [cross * twiddle, cross * twiddle.conj()]])


def _potential_terms(potential: Potential, x: np.ndarray, dz: float, n_zero: float):
    """V_mod and the processor's eps V'' / (2 n0) and eps V' / n0 on the grid, eps = dz^2 / 12.

    V comes from ``potential.value``, V' and V'' from ``potential.sample``
    at each point. Raises ValueError if any of them is non-finite or
    dz^2 max|V''| / n0 >= 1.
    """
    n = len(x)
    v = np.asarray(potential.value(x), dtype=complex)
    # each sample's fields (v, v', v'') as three complex numbers
    table = np.fromiter(chain.from_iterable(map(potential.sample, x.tolist())), float, 6 * n)
    dv, d2v = table.view(complex).reshape(n, 3)[:, 1:].T
    slope = dz * dv
    v_mod = v - slope * slope / (24.0 * n_zero)
    # V_mod is non-finite wherever V or V' is
    if not (np.all(np.isfinite(v_mod)) and np.all(np.isfinite(d2v))):
        raise ValueError("potential is non-finite on the grid (V, V' or V'')")
    curvature = dz * dz * float(np.max(np.abs(d2v))) / n_zero
    if not curvature < 1.0:
        raise ValueError(
            f"dz = {dz!r} (grid.dz) is too large for the potential's curvature: "
            f"dz^2 max|V''| / n_zero = {curvature:.3g}, which must stay below 1"
        )
    eps = dz * dz / 12.0
    return v_mod, eps / (2.0 * n_zero) * d2v, eps / n_zero * dv


def propagate(
    initial: GridState,
    potential: Potential,
    z_max: float,
    dz: float = 1e-3,
    sample_stride: int = 1,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    intensity: bool = True,
) -> GridRun:
    """Propagate a grid state to z_max, returning the samples as a GridRun.

    The step is the processed Strang step of the module docstring: each
    sample after the first is exp(eps C) S^k exp(-eps C) psi(0), fourth
    order in the effective step z_max / n, with the processor applied to
    second order in eps = dz^2 / 12. V' and V'' come from
    ``potential.sample`` at each grid point, once per call.

    Samples follow :func:`schedule`: the first is the initial state at
    z = 0 and the last lands exactly on z_max. Each is measured in the
    loop, bit for bit as :func:`observables` and
    :func:`renormalized_intensity` measure a field. With ``intensity``
    false no (samples x points) matrix is allocated and the run's
    ``intensity`` is None; the columns are the same.

    A field is sampled only if its mass is positive and finite and all its
    moments are finite, the rule of :func:`observables`. Raises ValueError
    if V, V' or V'' is non-finite on the grid, if dz^2 max|V''| / n0 >= 1
    (the step cannot resolve the potential's curvature), or if the initial
    field cannot be sampled, and NumericalAbortError if a later field
    cannot (gain overflow or loss underflow); its ``partial`` holds the
    samples taken before. Samples with more than 1% of |psi|^2 in the outer
    5% of the domain are counted, and one BoundaryContaminationWarning per
    call reports their number, the first z and the largest edge mass, also
    when the run aborts; likewise one UnderResolvedGridWarning for samples
    with more than 1e-10 of |FFT psi|^2 at |k| >= 0.95 pi / dx.
    """
    n_steps, dz_eff, sample_steps = schedule(z_max, dz, sample_stride)
    spec = initial.spec
    n, m = spec.n_points, spec.n_points // 2
    n_zero = constants.n_zero

    geometry = _geometry(spec)
    x, k = geometry[:2]
    # rows z, norm, mean_q, mean_p, delta_q, edge_mass, k_edge_mass; a column per sample
    table = np.empty((7, len(sample_steps)))
    matrix = np.empty((len(sample_steps), n)) if intensity else None
    psi, final = initial.amplitudes, initial
    taken = 0
    # chi is the field between the half potential steps, held as its even
    # and odd samples: the two rows of the batched half-length FFTs; field
    # is the kernel's unprocessed field at a sample
    chi, field, halves, mix, odd = (np.empty((2, m), dtype=complex) for _ in range(5))

    # overflow (in V at a wide grid, a tiny hbar in the factors, gain in
    # the field) is detected by the finiteness checks on V and at sample
    # times; a field near overflow measures as inf/nan
    with np.errstate(over="ignore", invalid="ignore"):
        v_mod, c_u, c_grad = _potential_terms(potential, x, dz_eff, n_zero)
        half_potential = _rows(np.exp(-0.5j * dz_eff * v_mod / constants.hbar)).copy()
        full_potential = half_potential * half_potential
        kinetic = _mix(np.exp(-0.5j * constants.hbar * dz_eff * k * k / n_zero))
        derivative = _mix(1j * k)
        # g = eps C u = c_u u + c_grad u', and the processor
        # (I + sign eps C + eps^2 C^2 / 2) u = u + (sign + c_u / 2) g + (c_grad / 2) g'
        c_u, c_grad = _rows(c_u).copy(), _rows(c_grad).copy()
        half_grad, plus_scale = 0.5 * c_grad, 1.0 + 0.5 * c_u

        def spectral(f, rows, out=None):
            # one batched pair of half-length transforms with a multiplier folded in
            np.fft.fft(f, out=halves)
            np.multiply(halves, rows[0], out=mix)
            np.multiply(halves[::-1], rows[1], out=odd)
            np.add(mix, odd, out=mix)
            return np.fft.ifft(mix, norm="forward", out=out)

        def process(u, scale, out):
            # once per sample: its temporaries cost nothing next to the steps
            g = c_grad * spectral(u, derivative) + c_u * u
            np.add(u, scale * g + half_grad * spectral(g, derivative), out=out)

        process(_rows(psi), 0.5 * c_u - 1.0, field)
        for step in range(n_steps + 1):
            if step:
                spectral(chi, kinetic, chi)
                if step != sample_steps[taken]:
                    chi *= full_potential
                    continue
                np.multiply(chi, half_potential, out=field)
                # a fresh array, so the last sampled field stays intact
                psi = np.empty(n, dtype=complex)
                process(field, plus_scale, _rows(psi))
            density, mass, moments = _measure(psi, *geometry, constants.hbar)
            if not step and moments is None:
                raise ValueError(
                    "the initial beam puts no |psi|^2 on the grid: initial.norm0 is too "
                    "small or the beam lies outside [-half_width, half_width)" if mass == 0.0 else
                    "the initial beam is non-finite on the grid: constants.hbar is too "
                    "small for the beam's width, initial.norm0 is too large, or the grid "
                    "spans too far from its center"
                )
            # later, a non-finite mass or moment is gain overflow; zero mass, loss underflow
            if moments is None:
                break
            table[:, taken] = (step * dz_eff, *moments)
            if matrix is not None:
                np.divide(density, mass, out=matrix[taken])
            final = GridState(spec, psi, step * dz_eff)
            taken += 1
            np.multiply(field, half_potential, out=chi)
    run = GridRun(*table[:, :taken], None if matrix is None else matrix[:taken], final)
    for column, limit, share, consequence, category in (
        (run.edge_mass, EDGE_MASS_LIMIT,
         f"{EDGE_MASS_LIMIT:.0%} of |psi|^2 in the outer {EDGE_FRACTION:.0%} of the domain",
         "results may be contaminated by the periodic boundary", BoundaryContaminationWarning),
        (run.k_edge_mass, K_EDGE_MASS_LIMIT,
         f"{K_EDGE_MASS_LIMIT:.0e} of |FFT psi|^2 in the outer {EDGE_FRACTION:.0%} of |k|",
         "the grid under-resolves the field: raise grid.n_points", UnderResolvedGridWarning),
    ):
        flagged = np.flatnonzero(column > limit)
        if len(flagged):
            warnings.warn(
                f"{len(flagged)} samples hold more than {share}, the first at "
                f"z={run.z[flagged[0]]:.6g}, at most {column[flagged].max():.3g}; {consequence}",
                category,
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
