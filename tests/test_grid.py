import math

import numpy as np
import pytest

from gainbeam.closed_forms import quadratic_trajectory
from gainbeam.dynamics import GaussianParams, integrate, reconstruct_wavefunction, widths
from gainbeam.errors import BoundaryContaminationWarning, NumericalAbortError
from gainbeam.grid import GridSpec, GridState, observables, propagate, renormalized_intensity
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
        (_, final) = propagate(psi0, FreeSpace(), 1.0, dz=1e-3, sample_stride=10**9)[-1]
        b1 = 1j / (1 + 1j)
        alpha1 = -0.5 * math.atan(1.0)  # integral of -Im b(z)/2 for b0 = i
        ref = reconstruct_wavefunction(GaussianParams(0.0, 0.0, b1, alpha=alpha1), spec)
        err = np.linalg.norm(final.amplitudes - ref.amplitudes) / np.linalg.norm(ref.amplitudes)
        assert err < 1e-6
        assert observables(final).delta_q == pytest.approx(widths(GaussianParams(0, 0, b1))[0], abs=1e-6)

    def test_sampling_layout(self):
        spec = GridSpec(12.0, 256)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), spec)
        samples = propagate(psi0, FreeSpace(), 1.0, dz=1e-2, sample_stride=30)
        zs = [z for z, _ in samples]
        assert zs[0] == 0.0
        assert zs[-1] == pytest.approx(1.0)
        assert np.all(np.diff(zs) > 0)

    def test_hermitian_norm_conserved(self):
        spec = GridSpec(80.0, 2048)
        psi0 = reconstruct_wavefunction(GaussianParams(-4.0, 0.0, 1j), spec)
        samples = propagate(psi0, hermitian_variant(TANH), 20.0, dz=1e-3, sample_stride=2000)
        for _, s in samples:
            assert abs(observables(s).norm - 1.0) < 1e-8

    def test_strang_splitting_order(self):
        spec = GridSpec(80.0, 2048)
        psi0 = reconstruct_wavefunction(GaussianParams(-4.0, 0.0, 1j), spec)

        def terminal(dz):
            return propagate(psi0, TANH, 2.0, dz=dz, sample_stride=10**9)[-1][1].amplitudes

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
            state = propagate(psi0, TANH, 5.0, dz=1e-3, sample_stride=10**9)[-1][1]
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
        state = propagate(psi0, FlatGain(), 2.0, dz=1e-2, sample_stride=10**9)[-1][1]
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
        psi0 = reconstruct_wavefunction(g0, spec)
        samples = propagate(psi0, QUAD, 5.0, dz=1e-3, sample_stride=1000)
        traj = integrate(g0, QUAD, 5.0, dz=1e-3, sample_stride=1000)
        alpha_at = {round(z, 9): g.alpha for z, g in traj.samples}
        closed = {round(z, 9): g for z, g in quadratic_trajectory(g0, QUAD, zs)}
        checked = 0
        for z, state in samples:
            key = round(z, 9)
            if key not in closed:
                continue
            g = closed[key]
            ref = reconstruct_wavefunction(
                GaussianParams(g.q, g.p, g.b, g.norm, alpha_at[key]), spec, z
            )
            err = np.linalg.norm(state.amplitudes - ref.amplitudes)
            err /= np.linalg.norm(ref.amplitudes)
            assert err < 1e-5, f"rel L2 {err:.2e} at z={z}"
            checked += 1
        assert checked == len(zs)
