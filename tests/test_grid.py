import math
import warnings

import numpy as np
import pytest

from gainbeam.closed_forms import quadratic_trajectory
from gainbeam.dynamics import GaussianParams, integrate, reconstruct_wavefunction, widths
from gainbeam.errors import (
    BoundaryContaminationWarning,
    NumericalAbortError,
    UnderResolvedGridWarning,
)
from gainbeam.grid import (
    GridSpec,
    GridState,
    observables,
    propagate,
    renormalized_intensity,
    schedule,
)
from gainbeam.potentials import (
    DEFAULT_CONSTANTS,
    FreeSpace,
    PhysicalConstants,
    Potential,
    PotentialSample,
    PtTanhGaussian,
    QuadraticLinear,
    hermitian_variant,
)

TANH = PtTanhGaussian(gamma=1.0, omega=1.0, eta=10.0)
QUAD = QuadraticLinear(omega=1.0, gamma=1.0)


class HugeLoss(Potential):
    """A uniform loss of 1000: |psi|^2 shrinks by exp(-2000) per unit z."""

    def sample(self, q):
        return PotentialSample(0.0, -1000.0, 0.0, 0.0, 0.0, 0.0)

    def value(self, x):
        return np.full(np.shape(x), -1000.0j)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 512)
        with pytest.raises(ValueError):
            GridSpec(10.0, 100)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(10.0, 128)  # below minimum
        with pytest.raises(ValueError):
            GridSpec(5e-324, 256)  # the spacing rounds to 0, the wavenumbers overflow

    def test_geometry(self):
        spec = GridSpec(8.0, 256)
        x = spec.positions()
        assert spec.spacing == pytest.approx(16.0 / 256)
        assert x[0] == -8.0
        assert x[-1] == pytest.approx(8.0 - spec.spacing)
        assert 0.0 in x


class TestObservables:
    def test_gaussian_moments(self):
        state = reconstruct_wavefunction(GaussianParams(2.0, 0.5, 1j), GridSpec(12.0, 1024))
        o = observables(state)
        assert o.mean_q == pytest.approx(2.0, abs=1e-8)
        assert o.mean_p == pytest.approx(0.5, abs=1e-8)
        assert o.delta_q == pytest.approx(1 / math.sqrt(2), abs=1e-8)
        assert o.norm == pytest.approx(1.0, abs=1e-8)

    def test_scaling_homogeneity(self):
        spec = GridSpec(10.0, 512)
        base = reconstruct_wavefunction(GaussianParams(1.0, -0.3, 0.8j), spec)
        scaled = GridState(spec, 3.0 * base.amplitudes)
        a, b = observables(base), observables(scaled)
        assert b.norm == pytest.approx(3.0 * a.norm, rel=1e-12)
        assert b.mean_q == pytest.approx(a.mean_q, abs=1e-12)
        assert b.mean_p == pytest.approx(a.mean_p, abs=1e-12)
        assert b.delta_q == pytest.approx(a.delta_q, abs=1e-12)

    def test_wide_beam_width(self):
        state = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 0.5j), GridSpec(15.0, 1024))
        assert observables(state).delta_q == pytest.approx(1.0, abs=1e-8)

    def test_zero_norm_rejected(self):
        spec = GridSpec(8.0, 256)
        with pytest.raises(ValueError):
            observables(GridState(spec, np.zeros(256, dtype=complex)))

    @pytest.mark.parametrize("measure", [observables, renormalized_intensity])
    def test_overflowing_intensity_rejected(self, measure):
        # the field is finite, but |psi|^2 = 1e320 overflows: no norm, no moments
        field = np.zeros(256, dtype=complex)
        field[128] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                measure(GridState(GridSpec(8.0, 256), field))


class TestRenormalizedIntensity:
    def test_integrates_to_one(self):
        spec = GridSpec(10.0, 512)
        state = reconstruct_wavefunction(GaussianParams(0.5, 0.0, 1j, norm=7.3), spec)
        intensity = renormalized_intensity(state)
        assert np.sum(intensity) * spec.spacing == pytest.approx(1.0, abs=1e-10)

    def test_peak_value(self):
        spec = GridSpec(10.0, 1024)
        state = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), spec)
        intensity = renormalized_intensity(state)
        i0 = np.argmin(np.abs(spec.positions()))
        assert intensity[i0] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-8)

    def test_scale_invariance(self):
        spec = GridSpec(10.0, 512)
        base = reconstruct_wavefunction(GaussianParams(0.0, 1.0, 1j), spec)
        scaled = GridState(spec, 5.0 * base.amplitudes)
        assert np.allclose(renormalized_intensity(base), renormalized_intensity(scaled))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            renormalized_intensity(GridState(GridSpec(8.0, 256), np.zeros(256, complex)))


class TestPropagate:
    def test_free_spreading_matches_riccati(self):
        # width after z = 1 matches the closed-form spread b -> b/(1+bz),
        # including the norm and the accumulated phase
        spec = GridSpec(12.0, 1024)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), spec)
        final = propagate(psi0, FreeSpace(), 1.0, dz=1e-3, sample_stride=10**9).final
        b1 = 1j / (1 + 1j)
        alpha1 = -0.5 * math.atan(1.0)  # integral of -Im b(z)/2 for b0 = i
        ref = reconstruct_wavefunction(GaussianParams(0.0, 0.0, b1, alpha=alpha1), spec)
        err = np.linalg.norm(final.amplitudes - ref.amplitudes) / np.linalg.norm(ref.amplitudes)
        assert err < 1e-6
        assert observables(final).delta_q == pytest.approx(widths(GaussianParams(0, 0, b1))[0], abs=1e-6)

    def test_sampling_layout(self):
        spec = GridSpec(12.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), spec)
        zs = propagate(psi0, FreeSpace(), 1.0, dz=1e-2, sample_stride=30).z
        assert zs[0] == 0.0
        assert zs[-1] == pytest.approx(1.0)
        assert np.all(np.diff(zs) > 0)

    def test_hermitian_norm_conserved(self):
        spec = GridSpec(80.0, 2048)
        psi0 = reconstruct_wavefunction(GaussianParams(-4.0, 0.0, 1j), spec)
        run = propagate(psi0, hermitian_variant(TANH), 20.0, dz=1e-3, sample_stride=2000)
        for norm in run.norm:
            assert abs(norm - 1.0) < 1e-8

    @staticmethod
    def error_ratio(spec, potential, g0, z, constants=DEFAULT_CONSTANTS):
        """Terminal L2 error at dz 4e-2 over that at 2e-2, both against dz 5e-3."""
        psi0 = reconstruct_wavefunction(g0, spec, constants=constants)

        def terminal(dz):
            run = propagate(psi0, potential, z, dz=dz, sample_stride=10**9, constants=constants)
            return run.final.amplitudes

        ref = terminal(5e-3)
        return np.linalg.norm(terminal(4e-2) - ref) / np.linalg.norm(terminal(2e-2) - ref)

    def test_strang_splitting_order(self):
        # at least second order. At dz 4e-3 and 2e-3 against 5e-4 both
        # processed errors are round-off (about 4e-11, ratio 1.2), so the
        # steps are ten times those
        ratio = self.error_ratio(GridSpec(80.0, 2048), TANH, GaussianParams(-4.0, 0.0, 1j), 2.0)
        assert ratio >= 3.5

    @pytest.mark.parametrize(
        "spec, potential, g0, constants",
        [
            (GridSpec(80.0, 2048), TANH, GaussianParams(-4.0, 0.0, 1j), DEFAULT_CONSTANTS),
            # n0 enters V_mod and C, hbar neither: a misplaced factor leaves second order
            (GridSpec(20.0, 1024), PtTanhGaussian(gamma=1.0, omega=1.0, eta=5.0),
             GaussianParams(1.0, 0.2, 0.1 + 1j), PhysicalConstants(0.5, 2.0)),
            (GridSpec(20.0, 1024), PtTanhGaussian(gamma=1.0, omega=1.0, eta=5.0),
             GaussianParams(1.0, 0.2, 0.1 + 1j), PhysicalConstants(2.0, 0.7)),
        ],
        ids=["strang-setup", "hbar-0.5-n0-2", "hbar-2-n0-0.7"],
    )
    def test_fourth_order(self, spec, potential, g0, constants):
        # halving dz cuts the processed step's error 16-fold; Strang's, 4-fold
        assert self.error_ratio(spec, potential, g0, 2.0, constants) >= 12

    def test_first_sample_is_the_initial_field(self):
        spec = GridSpec(12.0, 512)
        psi0 = reconstruct_wavefunction(GaussianParams(0.5, -0.3, 0.2 + 1j), spec)
        run = propagate(psi0, TANH, 0.05, dz=1e-3, sample_stride=10)
        first = observables(psi0)
        for name in ("norm", "mean_q", "mean_p", "delta_q", "edge_mass", "k_edge_mass"):
            assert getattr(run, name)[0] == getattr(first, name)
        assert np.array_equal(run.intensity[0], renormalized_intensity(psi0))

    def test_spectral_convergence(self):
        # doubling the grid changes terminal observables below 1e-8
        results = {}
        for n in (2048, 4096):
            spec = GridSpec(80.0, n)
            psi0 = reconstruct_wavefunction(GaussianParams(-4.0, 0.0, 1j), spec)
            state = propagate(psi0, TANH, 5.0, dz=1e-3, sample_stride=10**9).final
            results[n] = observables(state)
        a, b = results[2048], results[4096]
        assert abs(a.mean_q - b.mean_q) < 1e-8
        assert abs(a.delta_q - b.delta_q) < 1e-8
        assert abs(a.norm - b.norm) < 1e-8 * max(a.norm, 1.0)

    def test_gain_loss_factors(self):
        # uniform gain: norm grows exactly exp(g z); V' = V'' = 0, so the step is exact
        class FlatGain(Potential):
            def sample(self, q):
                return PotentialSample(0.0, 0.5, 0.0, 0.0, 0.0, 0.0)

            def value(self, x):
                return np.full(np.shape(x), 0.5j)

        spec = GridSpec(12.0, 512)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), spec)
        state = propagate(psi0, FlatGain(), 2.0, dz=1e-2, sample_stride=10**9).final
        assert observables(state).norm == pytest.approx(math.exp(1.0), rel=1e-9)

    def test_boundary_contamination_warning(self):
        spec = GridSpec(6.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 5.0, 1j), spec)
        with pytest.warns(BoundaryContaminationWarning) as record:
            propagate(psi0, FreeSpace(), 1.2, dz=1e-2, sample_stride=10)
        assert len(record) == 1

    def test_under_resolved_grid_warning(self):
        # a beam launched at k = 64, near the largest wavenumber pi / dx = 67
        spec = GridSpec(6.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 64.0, 1j), spec)
        with pytest.warns(UnderResolvedGridWarning, match="under-resolves") as record:
            run = propagate(psi0, FreeSpace(), 0.01, dz=1e-3, sample_stride=5)
        assert len(record) == 1
        spectrum = np.abs(np.fft.fft(psi0.amplitudes)) ** 2
        edge = np.abs(spec.wavenumbers()) >= 0.95 * np.pi / spec.spacing
        assert run.k_edge_mass[0] == pytest.approx(spectrum[edge].sum() / spectrum.sum(), rel=1e-12)
        assert run.k_edge_mass[0] > 1e-3
        # the same beam at rest holds nothing there
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), spec)
        assert observables(psi0).k_edge_mass < 1e-19

    def test_overflow_aborts_with_z(self):
        class HugeGain(Potential):
            def sample(self, q):
                return PotentialSample(0.0, 2000.0, 0.0, 0.0, 0.0, 0.0)

            def value(self, x):
                return np.full(np.shape(x), 2000.0j)

        spec = GridSpec(8.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), spec)
        with pytest.raises(NumericalAbortError) as err:
            propagate(psi0, HugeGain(), 2.0, dz=1e-2, sample_stride=1)
        assert err.value.z is not None
        assert err.value.partial

    @pytest.mark.parametrize(
        "amplitude, potential, match",
        [
            (0.0, QUAD, "puts no"),
            (math.nan, QUAD, "initial beam is non-finite"),
            (math.inf, QUAD, "initial beam is non-finite"),
            # V = omega^2 x^2 / 2 overflows at x^2 omega^2 > 1.8e308
            (1.0, QuadraticLinear(omega=1e154, gamma=0.5), "potential is non-finite"),
            # V'' = omega^2 = 1e308 at x = 0: no step resolves that curvature
            (1.0, PtTanhGaussian(gamma=1.0, omega=1e154, eta=5.0), "grid.dz"),
        ],
        ids=["zero", "nan", "inf", "potential", "curvature"],
    )
    def test_inputs_that_give_no_sample_are_value_errors(self, amplitude, potential, match):
        spec = GridSpec(20.0, 256)
        field = np.zeros(256, dtype=complex)
        field[128] = amplitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                propagate(GridState(spec, field), potential, 0.01, dz=1e-3)

    def test_record_ends_on_the_final_field(self):
        # the columns are measured in the loop exactly as observables and
        # renormalized_intensity measure the field that is kept
        spec = GridSpec(12.0, 512)
        psi0 = reconstruct_wavefunction(GaussianParams(0.5, -0.3, 0.2 + 1j), spec)
        run = propagate(psi0, TANH, 0.5, dz=1e-3, sample_stride=70)
        assert len(run) == len(run.norm) == len(run.intensity) == 9
        assert run.z[-1] == 0.5
        last = observables(run.final)
        for name in ("norm", "mean_q", "mean_p", "delta_q", "edge_mass", "k_edge_mass"):
            assert getattr(run, name)[-1] == getattr(last, name)
        assert np.array_equal(run.intensity[-1], renormalized_intensity(run.final))

    def test_chained_calls_match_one_call(self):
        # a state holds no z: each call starts at z = 0 and the distance is
        # the sum of the calls' z_max. Between the calls the processor is
        # undone and redone, to second order in eps = dz^2 / 12
        spec = GridSpec(12.0, 512)
        tanh = PtTanhGaussian(gamma=1.0, omega=1.0, eta=5.0)
        psi0 = reconstruct_wavefunction(GaussianParams(0.5, -0.3, 0.2 + 1j), spec)
        half = propagate(psi0, tanh, 0.25, dz=1e-3, sample_stride=10**9)
        chained = propagate(half.final, tanh, 0.25, dz=1e-3, sample_stride=10**9)
        whole = propagate(psi0, tanh, 0.5, dz=1e-3, sample_stride=10**9)
        assert half.z[-1] == chained.z[-1] == 0.25 and whole.z[-1] == 0.5
        want = whole.final.amplitudes
        assert np.max(np.abs(chained.final.amplitudes - want)) <= 1e-13 * np.max(np.abs(want))

    def test_abort_keeps_the_samples_taken(self):
        # |psi|^2 shrinks by exp(-100) per sample and underflows after
        # z = 0.1; the partial record holds the samples before, the last of
        # them with its field
        spec = GridSpec(8.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j, norm=1e-100), spec)
        with pytest.raises(NumericalAbortError) as err:
            propagate(psi0, HugeLoss(), 2.0, dz=1e-2, sample_stride=5)
        partial = err.value.partial
        _, dz_eff, steps = schedule(2.0, 1e-2, 5)
        assert partial.z.tolist() == [k * dz_eff for k in steps[:3]]
        assert partial.z[-1] < err.value.z
        for column in (partial.norm, partial.mean_q, partial.mean_p, partial.delta_q,
                       partial.edge_mass, partial.k_edge_mass, partial.intensity):
            assert len(column) == len(partial)
        last = observables(partial.final)
        assert (partial.norm[-1], partial.mean_q[-1]) == (last.norm, last.mean_q)
        assert np.array_equal(partial.intensity[-1], renormalized_intensity(partial.final))

    @pytest.mark.parametrize("z_max", [4.0, 60.0])
    def test_every_kept_sample_is_finite(self, z_max):
        # a linear gain of 10 holds the beam near x = 9 and raises |psi|^2 by
        # about e^180 per unit z: from z = 5 it overflows while psi is finite,
        # so the run ends there with the five samples before
        psi0 = reconstruct_wavefunction(GaussianParams(2.0, 0.0, 1j), GridSpec(10.0, 256))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryContaminationWarning)
            warnings.simplefilter("ignore", UnderResolvedGridWarning)
            if z_max < 5.0:
                run = propagate(psi0, QuadraticLinear(1.0, 10.0), z_max, dz=1e-2, sample_stride=100)
            else:
                with pytest.raises(NumericalAbortError) as err:
                    propagate(psi0, QuadraticLinear(1.0, 10.0), z_max, dz=1e-2, sample_stride=100)
                assert err.value.z == 5.0
                run = err.value.partial
        assert run.z.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        for column in (run.norm, run.mean_q, run.mean_p, run.delta_q, run.edge_mass,
                       run.k_edge_mass, run.intensity, run.final.amplitudes):
            assert np.all(np.isfinite(column))

    def test_underflow_aborts_with_z(self):
        # a uniform loss shrinks |psi|^2 by exp(-2000 dz) per step: a faint
        # field underflows to 0, which no observable can be taken of
        spec = GridSpec(8.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j, norm=1e-100), spec)
        with pytest.raises(NumericalAbortError, match="vanished") as err:
            propagate(psi0, HugeLoss(), 2.0, dz=1e-2, sample_stride=1)
        assert 0.0 < err.value.z < 2.0
        assert all(norm > 0.0 for norm in err.value.partial.norm)


def reads_as_a_record(run, x):
    """A GridRun reads as a Trajectory does: its columns in grid_observables.csv
    order, the same at any hbar, and its stored intensity rows."""
    assert list(run.columns()) == [
        "z", "norm", "mean_q", "mean_p", "delta_q", "edge_mass", "k_edge_mass"
    ]
    for hbar in (1.0, 0.25):
        assert all(column is getattr(run, name) for name, column in run.columns(hbar).items())
    for rows in (slice(None), slice(1, 3), np.array([2, 0])):
        assert np.array_equal(run.intensity_rows(x, 1.0, rows), run.intensity[rows])
    assert np.array_equal(run.intensity_rows(x, 1.0, -1), renormalized_intensity(run.final))


class TestGridRunReads:
    SPEC = GridSpec(8.0, 256)

    def test_full_run(self):
        psi0 = reconstruct_wavefunction(GaussianParams(0.5, -0.3, 0.2 + 1j), self.SPEC)
        run = propagate(psi0, TANH, 0.1, dz=1e-3, sample_stride=20)
        assert len(run) == 6
        reads_as_a_record(run, self.SPEC.positions())

    def test_partial_run(self):
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j, norm=1e-100), self.SPEC)
        with pytest.raises(NumericalAbortError) as err:
            propagate(psi0, HugeLoss(), 2.0, dz=1e-2, sample_stride=5)
        assert len(err.value.partial) == 3
        reads_as_a_record(err.value.partial, self.SPEC.positions())

    def test_run_without_intensity(self):
        psi0 = reconstruct_wavefunction(GaussianParams(0.5, -0.3, 0.2 + 1j), self.SPEC)
        full = propagate(psi0, TANH, 0.1, dz=1e-3, sample_stride=20)
        bare = propagate(psi0, TANH, 0.1, dz=1e-3, sample_stride=20, intensity=False)
        bare_columns = bare.columns()
        assert list(bare_columns) == list(full.columns())
        assert all(np.array_equal(bare_columns[n], c) for n, c in full.columns().items())
        with pytest.raises(ValueError, match="intensity=False"):
            bare.intensity_rows(self.SPEC.positions(), 1.0, slice(None))


def processed_textbook(potential, spec, dz):
    """The processed Strang step as written in the grid module's docstring.

    Returns (S, P): S(f) is one Strang step of V_mod, P(f, sign) the
    processor I + sign eps C + eps^2 C^2 / 2. C is the commutator of the
    spectral kinetic generator Y and the potential generator X, C f =
    Y(X f) - X(Y f), and V' in V_mod a finite difference of V.
    """
    x, k = spec.positions(), spec.wavenumbers()
    v = potential.value(x)
    h = 1e-3
    dv = (potential.value(x - 2 * h) - 8 * potential.value(x - h)
          + 8 * potential.value(x + h) - potential.value(x + 2 * h)) / (12 * h)

    def generator_x(f):
        return -1j * v * f

    def generator_y(f):
        return np.fft.ifft(-0.5j * k * k * np.fft.fft(f))

    def commutator(f):
        return generator_y(generator_x(f)) - generator_x(generator_y(f))

    eps = dz * dz / 12
    half = np.exp(-0.5j * dz * (v - dz * dz * dv * dv / 24))
    kinetic = np.exp(-0.5j * dz * k * k)

    def strang(f):
        return np.fft.ifft(kinetic * np.fft.fft(half * f)) * half

    def processor(f, sign):
        cf = commutator(f)
        return f + sign * eps * cf + 0.5 * eps * eps * commutator(cf)

    return strang, processor


class Ripple(Potential):
    """V = 3 cos(pi x / L) + i sin(pi x / L): periodic on [-L, L), two Fourier modes."""

    def __init__(self, half_width):
        self.w = math.pi / half_width

    def sample(self, q):
        w, c, s = self.w, math.cos(self.w * q), math.sin(self.w * q)
        return PotentialSample(3 * c, s, -3 * w * s, w * c, -3 * w * w * c, -w * w * s)

    def value(self, x):
        return 3 * np.cos(self.w * x) + 1j * np.sin(self.w * x)


@pytest.mark.filterwarnings("ignore::gainbeam.errors.BoundaryContaminationWarning")
class TestKernel:
    """The batched half-length kernel and the processor against the textbook step."""

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("field", ["random", "beam"])
    def test_one_step(self, n, field):
        # the commutator of the discrete generators is the program's
        # C = (V'' + 2 V' d/dx) / 2 only where V f is resolved on the grid:
        # the random field fills half the band, on a potential of two modes
        spec = GridSpec(20.0, n)
        if field == "random":
            rng = np.random.default_rng(n)
            spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            spectrum[np.abs(np.fft.fftfreq(n, 1 / n)) >= n // 4] = 0
            psi, potential = np.fft.ifft(spectrum) * np.sqrt(n), Ripple(20.0)
        else:
            psi = reconstruct_wavefunction(GaussianParams(-1.0, 0.7, 0.3 + 1j), spec).amplitudes
            potential = TANH
        dz = 1e-2
        got = propagate(GridState(spec, psi), potential, dz, dz=dz).final.amplitudes
        strang, processor = processed_textbook(potential, spec, dz)
        want = processor(strang(processor(psi, -1)), 1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_run_matches_textbook_steps(self):
        spec = GridSpec(12.0, 1024)
        psi = reconstruct_wavefunction(GaussianParams(0.5, -0.3, 0.2 + 1j), spec).amplitudes
        dz = 1e-3
        run = propagate(GridState(spec, psi), TANH, 100 * dz, dz=dz, sample_stride=10)
        assert len(run) == 11
        strang, processor = processed_textbook(TANH, spec, dz)
        kernel = processor(psi, -1)
        for i in range(11):
            if i:
                for _ in range(10):
                    kernel = strang(kernel)
                psi = processor(kernel, 1)
            state = GridState(spec, psi)
            want = observables(state)
            for name in ("norm", "mean_q", "mean_p", "delta_q", "edge_mass", "k_edge_mass"):
                got, ref = getattr(run, name)[i], getattr(want, name)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (name, i)
            ref_row = renormalized_intensity(state)
            assert np.max(np.abs(run.intensity[i] - ref_row)) <= 1e-12 * np.max(ref_row)
        assert np.max(np.abs(run.final.amplitudes - psi)) <= 1e-12 * np.max(np.abs(psi))

    def test_fft_calls(self, monkeypatch):
        # one forward and one inverse call per step; per sample, one forward
        # call for <p>; and two of each for the processor, once on the
        # initial field and once at each later sample. np.fft is looked up
        # at call time, so wrappers put on it see every call
        calls = {"fft": 0, "ifft": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.fft, "fft", counting("fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counting("ifft", np.fft.ifft))
        spec = GridSpec(12.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), spec)
        run = propagate(psi0, TANH, 0.1, dz=1e-3, sample_stride=7)
        assert len(run) == 16  # steps 0, 7, ..., 98 and 100
        assert calls == {"fft": 100 + 16 + 2 * 16, "ifft": 100 + 2 * 16}


class TestExactlyQuadraticOracle:
    """Full grid state against the reconstructed closed-form Gaussian.

    The Gaussian family is exact for this potential, so the only errors
    are splitting error and the periodic-domain gain artifact discussed
    in README ("Numerical notes"): a linear gain slope on a periodic
    domain feeds exponentially growing edge modes (rate roughly
    0.5*gamma*L - 1.4) seeded at the larger of the beam tail and FFT
    roundoff. With L = 8 both beams below stay clean through z = 5.
    """

    @pytest.mark.parametrize(
        "g0",
        [
            GaussianParams(0.0, -1.0, 1j),
            GaussianParams(0.3, -0.8, 1.1j),
        ],
    )
    def test_full_state_match(self, g0):
        spec = GridSpec(8.0, 1024)
        zs = [1.0, 2.0, 5.0]
        state = reconstruct_wavefunction(g0, spec)
        traj = integrate(g0, QUAD, 5.0, dz=1e-3, sample_stride=1000)
        alpha_at = dict(zip((round(z, 9) for z in traj.z.tolist()), traj.alpha.tolist()))
        exact = quadratic_trajectory(g0, QUAD, zs)
        # (q, p, B, N) of the closed forms at each z
        closed = {
            round(z, 9): (q, p, complex(re_b, im_b), norm)
            for z, q, p, re_b, im_b, norm in zip(
                *(getattr(exact, name).tolist() for name in ("z", "q", "p", "re_b", "im_b", "norm"))
            )
        }
        checked = 0
        z = 0.0
        for z_next in zs:
            # the field at z, chained from the last one at the same dz
            state = propagate(state, QUAD, z_next - z, dz=1e-3, sample_stride=10**9).final
            z = z_next
            key = round(z, 9)
            ref = reconstruct_wavefunction(GaussianParams(*closed[key], alpha_at[key]), spec)
            err = np.linalg.norm(state.amplitudes - ref.amplitudes)
            err /= np.linalg.norm(ref.amplitudes)
            assert err < 1e-5, f"rel L2 {err:.2e} at z={z}"
            checked += 1
        assert checked == len(zs)
