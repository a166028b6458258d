import math

import numpy as np
import pytest

from gainbeam.closed_forms import quadratic_trajectory
from gainbeam.dynamics import GaussianParams, integrate, reconstruct_wavefunction, widths
from gainbeam.errors import BoundaryContaminationWarning, NumericalAbortError
from gainbeam.grid import (
    GridSpec,
    GridState,
    observables,
    propagate,
    renormalized_intensity,
    schedule,
)
from gainbeam.potentials import (
    FreeSpace,
    Potential,
    PotentialSample,
    PtTanhGaussian,
    QuadraticLinear,
    hermitian_variant,
)

TANH = PtTanhGaussian(gamma=1.0, omega=1.0, eta=10.0)
QUAD = QuadraticLinear(omega=1.0, gamma=1.0)


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

    def test_strang_splitting_order(self):
        spec = GridSpec(80.0, 2048)
        psi0 = reconstruct_wavefunction(GaussianParams(-4.0, 0.0, 1j), spec)

        def terminal(dz):
            return propagate(psi0, TANH, 2.0, dz=dz, sample_stride=10**9).final.amplitudes

        ref = terminal(5e-4)
        e_coarse = np.linalg.norm(terminal(4e-3) - ref)
        e_fine = np.linalg.norm(terminal(2e-3) - ref)
        assert e_coarse / e_fine >= 3.5

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
        # uniform gain: norm grows exactly exp(g z); Strang is exact here
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

    def test_record_ends_on_the_final_field(self):
        # the columns are measured in the loop exactly as observables and
        # renormalized_intensity measure the field that is kept
        spec = GridSpec(12.0, 512)
        psi0 = reconstruct_wavefunction(GaussianParams(0.5, -0.3, 0.2 + 1j), spec)
        run = propagate(psi0, TANH, 0.5, dz=1e-3, sample_stride=70)
        assert len(run) == len(run.norm) == len(run.intensity) == 9
        assert run.final.z == run.z[-1] == 0.5
        last = observables(run.final)
        for name in ("norm", "mean_q", "mean_p", "delta_q", "edge_mass"):
            assert getattr(run, name)[-1] == getattr(last, name)
        assert np.array_equal(run.intensity[-1], renormalized_intensity(run.final))

    def test_abort_keeps_the_samples_taken(self):
        # |psi|^2 shrinks by exp(-100) per sample and underflows after
        # z = 0.1; the partial record holds the samples before, the last of
        # them with its field
        class HugeLoss(Potential):
            def sample(self, q):
                return PotentialSample(0.0, -1000.0, 0.0, 0.0, 0.0, 0.0)

            def value(self, x):
                return np.full(np.shape(x), -1000.0j)

        spec = GridSpec(8.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j, norm=1e-100), spec)
        with pytest.raises(NumericalAbortError) as err:
            propagate(psi0, HugeLoss(), 2.0, dz=1e-2, sample_stride=5)
        partial = err.value.partial
        _, dz_eff, steps = schedule(2.0, 1e-2, 5)
        assert partial.z.tolist() == [k * dz_eff for k in steps[:3]]
        assert partial.z[-1] < err.value.z
        for column in (partial.norm, partial.mean_q, partial.mean_p, partial.delta_q,
                       partial.edge_mass, partial.intensity):
            assert len(column) == len(partial)
        assert partial.final.z == partial.z[-1]
        last = observables(partial.final)
        assert (partial.norm[-1], partial.mean_q[-1]) == (last.norm, last.mean_q)
        assert np.array_equal(partial.intensity[-1], renormalized_intensity(partial.final))

    def test_underflow_aborts_with_z(self):
        # a uniform loss shrinks |psi|^2 by exp(-2000 dz) per step: a faint
        # field underflows to 0, which no observable can be taken of
        class HugeLoss(Potential):
            def sample(self, q):
                return PotentialSample(0.0, -1000.0, 0.0, 0.0, 0.0, 0.0)

            def value(self, x):
                return np.full(np.shape(x), -1000.0j)

        spec = GridSpec(8.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j, norm=1e-100), spec)
        with pytest.raises(NumericalAbortError, match="vanished") as err:
            propagate(psi0, HugeLoss(), 2.0, dz=1e-2, sample_stride=1)
        assert 0.0 < err.value.z < 2.0
        assert all(norm > 0.0 for norm in err.value.partial.norm)


def textbook_step(psi, potential, spec, dz):
    """One Strang step as written in the grid module's docstring."""
    half = np.exp(-0.5j * dz * potential.value(spec.positions()))
    kinetic = np.exp(-0.5j * dz * spec.wavenumbers() ** 2)
    return np.fft.ifft(kinetic * np.fft.fft(half * psi)) * half


@pytest.mark.filterwarnings("ignore::gainbeam.errors.BoundaryContaminationWarning")
class TestKernel:
    """The batched half-length kernel against the textbook step."""

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("field", ["random", "beam"])
    def test_one_step(self, n, field):
        spec = GridSpec(20.0, n)
        if field == "random":
            rng = np.random.default_rng(n)
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            psi = reconstruct_wavefunction(GaussianParams(-1.0, 0.7, 0.3 + 1j), spec).amplitudes
        dz = 1e-2
        got = propagate(GridState(spec, psi), TANH, dz, dz=dz).final.amplitudes
        want = textbook_step(psi, TANH, spec, dz)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_run_matches_textbook_steps(self):
        spec = GridSpec(12.0, 1024)
        psi = reconstruct_wavefunction(GaussianParams(0.5, -0.3, 0.2 + 1j), spec).amplitudes
        dz = 1e-3
        run = propagate(GridState(spec, psi), TANH, 100 * dz, dz=dz, sample_stride=10)
        assert len(run) == 11
        for i in range(11):
            if i:
                for _ in range(10):
                    psi = textbook_step(psi, TANH, spec, dz)
            state = GridState(spec, psi, i * 10 * dz)
            want = observables(state)
            for name in ("norm", "mean_q", "mean_p", "delta_q", "edge_mass"):
                got, ref = getattr(run, name)[i], getattr(want, name)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (name, i)
            ref_row = renormalized_intensity(state)
            assert np.max(np.abs(run.intensity[i] - ref_row)) <= 1e-12 * np.max(ref_row)
        assert np.max(np.abs(run.final.amplitudes - psi)) <= 1e-12 * np.max(np.abs(psi))

    def test_fft_calls(self, monkeypatch):
        # one forward and one inverse call per step, and one forward call
        # per sample for <p>; np.fft is looked up at call time, so wrappers
        # put on it see every call
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
        assert calls == {"fft": 100 + 16, "ifft": 100}


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
        alpha_at = {round(z, 9): g.alpha for z, g in traj.samples}
        closed = {round(z, 9): g for z, g in quadratic_trajectory(g0, QUAD, zs)}
        checked = 0
        z = 0.0
        for z_next in zs:
            # the field at z, chained from the last one at the same dz
            state = propagate(state, QUAD, z_next - z, dz=1e-3, sample_stride=10**9).final
            z = z_next
            key = round(z, 9)
            g = closed[key]
            ref = reconstruct_wavefunction(
                GaussianParams(g.q, g.p, g.b, g.norm, alpha_at[key]), spec, z
            )
            err = np.linalg.norm(state.amplitudes - ref.amplitudes)
            err /= np.linalg.norm(ref.amplitudes)
            assert err < 1e-5, f"rel L2 {err:.2e} at z={z}"
            checked += 1
        assert checked == len(zs)
