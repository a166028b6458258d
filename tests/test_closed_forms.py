import math

import numpy as np
import pytest

from gainbeam.closed_forms import (
    OscillatorSolution,
    adaptive_simpson,
    b_evolution,
    center_evolution,
    center_solution,
    forcing_ratio,
    norm_evolution,
    quadratic_trajectory,
    reduced_forcing_center_solution,
    short_distance,
    stationary_width_solution,
    width_drift_rate,
)
from gainbeam.dynamics import GaussianParams, integrate
from gainbeam.potentials import QuadraticLinear


def random_b0(rng, n, im_range=(0.3, 3.0), re_range=(-2.5, 2.5)):
    out = []
    while len(out) < n:
        b = complex(rng.uniform(*re_range), rng.uniform(*im_range))
        out.append(b)
    return out


def riccati_rk4(b0, omega, z_target, dz=2.5e-4):
    """Independent RK4 for b' = -b^2 - omega^2 (vectorized over b0)."""
    b = np.asarray(b0, dtype=complex)
    n = max(1, round(z_target / dz))
    h = z_target / n
    for _ in range(n):
        k1 = -b * b - omega**2
        b2 = b + 0.5 * h * k1
        k2 = -b2 * b2 - omega**2
        b3 = b + 0.5 * h * k2
        k3 = -b3 * b3 - omega**2
        b4 = b + h * k3
        k4 = -b4 * b4 - omega**2
        b = b + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return b


class TestBEvolution:
    def test_stationary_width(self):
        for omega in (0.5, 1.0, 2.3):
            for z in (0.0, 0.7, math.pi, 12.0):
                assert abs(b_evolution(1j * omega, omega, z) - 1j * omega) < 1e-13 * omega

    def test_quarter_period_inversion(self):
        assert abs(b_evolution(0.5j, 1.0, math.pi / 2) - 2j) < 1e-12

    def test_periodicity(self):
        rng = np.random.default_rng(1)
        b0s = random_b0(rng, 20)
        for b0 in b0s:
            for omega in (0.7, 1.0):
                z = rng.uniform(0, 10)
                d = b_evolution(b0, omega, z + math.pi / omega) - b_evolution(b0, omega, z)
                assert abs(d) < 1e-10
        # an array b0 gives the scalar results entry by entry (numpy's complex
        # division may round the last bit differently from Python's)
        for omega in (0.7, 1.0):
            z = rng.uniform(0, 10)
            got = b_evolution(np.array(b0s), omega, z)
            want = np.array([b_evolution(b0, omega, z) for b0 in b0s])
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_composition(self):
        rng = np.random.default_rng(2)
        for b0 in random_b0(rng, 30):
            z1, z2 = rng.uniform(0, 5, 2)
            once = b_evolution(b_evolution(b0, 1.0, z1), 1.0, z2)
            direct = b_evolution(b0, 1.0, z1 + z2)
            assert abs(once - direct) < 1e-12

    def test_upper_half_plane_preserved(self):
        rng = np.random.default_rng(3)
        for b0 in random_b0(rng, 50, im_range=(1e-6, 5.0), re_range=(-10, 10)):
            zs = rng.uniform(0, 50, 20)
            assert np.all(np.imag(b_evolution(b0, 1.0, zs)) > 0)

    def test_riccati_residual(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for b0 in random_b0(rng, 20):
            z = rng.uniform(0.1, 10)
            db = (b_evolution(b0, 1.0, z + h) - b_evolution(b0, 1.0, z - h)) / (2 * h)
            b = b_evolution(b0, 1.0, z)
            assert abs(db - (-b * b - 1.0)) < 1e-6

    def test_rejects_lower_half_plane(self):
        for b0 in (
            1 - 1j,
            0.5,
            complex(math.nan, 1.0),
            complex(0.0, math.nan),
            np.array([0.3 + 1j, 1 - 1j, 2j]),
            np.array([1j, complex(math.nan, 1.0)]),
        ):
            with pytest.raises(ValueError):
                b_evolution(b0, 1.0, 0.5)


class TestForcingRatio:
    def test_stationary_is_zero(self):
        zs = np.linspace(0, 30, 100)
        assert np.all(forcing_ratio(1j, 1.0, zs) == 0.0)

    def test_known_amplitude(self):
        # b0 = i/2, omega = 1: ratio = -(3/4) sin 2z
        zs = np.linspace(0, 10, 200)
        assert np.allclose(
            forcing_ratio(0.5j, 1.0, zs), -0.75 * np.sin(2 * zs), atol=1e-13
        )
        assert forcing_ratio(0.5j, 1.0, math.pi / 4) == pytest.approx(-0.75, abs=1e-12)

    def test_matches_b_evolution(self):
        rng = np.random.default_rng(5)
        for b0 in random_b0(rng, 50):
            z = rng.uniform(0, 20)
            b = b_evolution(b0, 1.0, z)
            assert abs(forcing_ratio(b0, 1.0, z) - b.real / b.imag) < 1e-12


class TestStationaryWidthSolution:
    def test_balanced_launch_is_static(self):
        for z in np.linspace(0, 25, 40):
            q, p, n = stationary_width_solution(0.0, -1.0, 1.0, 1.0, z)
            assert abs(q) < 1e-14
            assert p == pytest.approx(-1.0, abs=1e-14)
            assert n == pytest.approx(1.0, abs=1e-13)

    def test_hermitian_limit(self):
        for z in (0.0, 1.3, 7.0):
            q, p, n = stationary_width_solution(2.0, 0.5, 0.0, 1.5, z)
            assert q == pytest.approx(2 * math.cos(1.5 * z) + (0.5 / 1.5) * math.sin(1.5 * z))
            assert p == pytest.approx(-1.5 * 2 * math.sin(1.5 * z) + 0.5 * math.cos(1.5 * z))
            assert n == pytest.approx(1.0, abs=1e-14)

    def test_norm_starts_at_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q0, p0, gamma, omega = rng.uniform(-3, 3, 4)
            omega = abs(omega) + 0.1
            _, _, n = stationary_width_solution(q0, p0, gamma, omega, 0.0)
            assert n == 1.0

    def test_matches_rk4(self):
        # general omega: the closed form must track the parameter dynamics
        for omega, gamma in ((1.0, 1.0), (1.7, 0.6)):
            pot = QuadraticLinear(omega=omega, gamma=gamma)
            g0 = GaussianParams(0.8, -0.4, 1j * omega)
            traj = integrate(g0, pot, 6.0, dz=5e-4, sample_stride=3000)
            for z, g in traj.samples:
                q, p, n = stationary_width_solution(0.8, -0.4, gamma, omega, z)
                assert g.q == pytest.approx(q, abs=1e-9)
                assert g.p == pytest.approx(p, abs=1e-9)
                assert g.norm == pytest.approx(n, rel=1e-8)


class TestCenterEvolution:
    def test_reduces_to_stationary_width(self):
        for omega in (1.0, 1.6):
            sol = center_solution(1.2, -0.3, 1j * omega, 0.8, omega)
            # at b0 = i*omega the width forcing vanishes identically
            assert np.all(forcing_ratio(1j * omega, omega, np.linspace(0, 9, 40)) == 0.0)
            for z in np.linspace(0, 10, 30):
                q, _, _ = stationary_width_solution(1.2, -0.3, 0.8, omega, z)
                assert sol.q(z) == pytest.approx(q, abs=1e-12)
        # at omega = 1 the coefficients are q0 and p0 + gamma
        sol = center_solution(1.2, -0.3, 1j, 0.8, 1.0)
        assert sol.a_coeff == pytest.approx(1.2)
        assert sol.b_coeff == pytest.approx(-0.3 + 0.8)

    def test_initial_conditions(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for b0 in random_b0(rng, 10):
            q0, p0, gamma = rng.uniform(-2, 2, 3)
            sol = center_solution(q0, p0, b0, gamma, 1.0)
            assert sol.q(0.0) == pytest.approx(q0, abs=1e-12)
            slope = (sol.q(h) - sol.q(-h)) / (2 * h)
            assert slope == pytest.approx(p0 + gamma / b0.imag, abs=1e-7)

    def test_wider_beam_drifts_into_gain(self):
        sol = center_solution(0.0, -1.0, 0.5j, 1.0, 1.0)
        slope = (sol.q(1e-6) - sol.q(0.0)) / 1e-6
        assert slope == pytest.approx(1.0, abs=1e-5)
        assert sol.q(0.3) > 0

    def test_against_rk4_of_parameter_dynamics(self):
        # brute-force oracle: RK4 at dz = 1e-4 on 20 random parameter sets
        rng = np.random.default_rng(8)
        zs = np.arange(0.0, 20.0 + 1e-9, 0.25)
        worst = 0.0
        for _ in range(20):
            q0, p0 = rng.uniform(-3, 3, 2)
            gamma = rng.uniform(0.2, 2.0)
            omega = rng.uniform(0.5, 2.0)
            b0 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 3.0))
            pot = QuadraticLinear(omega=omega, gamma=gamma)
            traj = integrate(
                GaussianParams(q0, p0, b0), pot, 20.0, dz=1e-4, sample_stride=2500
            )
            sol = center_solution(q0, p0, b0, gamma, omega)
            for z, g in traj.samples:
                worst = max(worst, abs(float(sol.q(z)) - g.q))
        assert worst < 1e-7

    def test_ode_residuals_of_both_variants(self):
        # the true center carries three times the momentum-equation forcing:
        # center_solution fails the single-forcing ODE by 2 gamma |R|, while
        # reduced_forcing_center_solution satisfies it exactly
        full = center_solution(0.0, -1.0, 0.5j, 1.0, 1.0)
        reduced = reduced_forcing_center_solution(0.0, -1.0, 0.5j, 1.0, 1.0)
        zs = np.linspace(0.2, 15.0, 120)
        red_res = np.abs([reduced.reduced_ode_residual(z) for z in zs]).max()
        full_res = np.abs([full.reduced_ode_residual(z) for z in zs]).max()
        assert red_res < 1e-6
        assert full_res > 0.1
        assert full_res == pytest.approx(1.5, abs=0.01)

    def test_center_evolution_wrapper(self):
        assert center_evolution(0.0, -1.0, 1j, 1.0, 1.0, 5.0) == pytest.approx(0.0, abs=1e-12)


class TestNormEvolution:
    def test_zero_center(self):
        assert norm_evolution(lambda z: 0.0, 1.0, 1.0, 10.0) == 1.0

    def test_constant_center(self):
        assert norm_evolution(lambda z: 2.0, 0.7, 1.0, 3.0) == pytest.approx(
            math.exp(0.7 * 2.0 * 3.0), rel=1e-10
        )

    def test_closed_form_matches_quadrature(self):
        sol = center_solution(1.0, 0.3, 0.4 + 0.8j, 1.2, 1.0)
        for z in (0.5, 2.0, 7.7):
            closed = norm_evolution(sol, 1.2, 1.0, z)
            quad = norm_evolution(lambda s: float(sol.q(s)), 1.2, 1.0, z)
            assert closed == pytest.approx(quad, rel=1e-10)

    def test_stationary_case_closed_form(self):
        for z in (0.0, 1.0, 4.4):
            _, _, want = stationary_width_solution(1.5, 0.2, 0.9, 1.0, z)
            sol = center_solution(1.5, 0.2, 1j, 0.9, 1.0)
            got = norm_evolution(lambda s: float(sol.q(s)), 0.9, 1.0, z)
            assert got == pytest.approx(want, rel=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            norm_evolution(lambda z: math.inf, 1.0, 1.0, 1.0)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda x: x**3 - x, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_oscillatory(self):
        got = adaptive_simpson(math.sin, 0.0, 20.0, abs_tol=1e-10)
        assert got == pytest.approx(1.0 - math.cos(20.0), abs=1e-9)

    def test_orientation(self):
        assert adaptive_simpson(math.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, rel=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0


class TestShortDistance:
    def test_drift_slope(self):
        for z in (1e-4, 1e-3, 1e-2):
            r = short_distance(0.0, 0.0, 0.5j, 1.0, 1.0, z)
            assert r.q == pytest.approx(2.0 * z, rel=1e-12)
            assert r.norm_ratio == 1.0

    def test_separation_rate(self):
        assert width_drift_rate(0.5j, 1.0) - width_drift_rate(2j, 1.0) == pytest.approx(1.5)

    def test_width_checked_and_broadcast(self):
        for b0 in (
            complex(math.nan, 1.0),
            complex(1.0, math.inf),
            1 - 1j,
            0.5,
            np.array([1j, complex(math.nan, 1.0)]),
            np.array([2j, 1 - 1j]),
        ):
            with pytest.raises(ValueError):
                short_distance(0.0, 0.0, b0, 1.0, 1.0, 0.1)
            with pytest.raises(ValueError):
                width_drift_rate(b0, 1.0)
        b0s = np.array([0.5j, 0.3 + 0.6j, 2j])
        batch = short_distance(0.7, -0.4, b0s, 1.0, 1.0, 0.1)
        rates = width_drift_rate(b0s, 1.0)
        for i, b0 in enumerate(b0s):
            single = short_distance(0.7, -0.4, b0, 1.0, 1.0, 0.1)
            assert (batch.q[i], batch.p[i]) == (single.q, single.p)
            assert rates[i] == width_drift_rate(b0, 1.0)

    def test_chirp_shifts_momentum(self):
        r = short_distance(0.0, 0.0, 1 + 1j, 1.0, 1.0, 1e-3)
        assert r.p == pytest.approx(1e-3, rel=1e-12)

    def test_quadratic_error_scaling(self):
        # short-distance formulas are first order: errors shrink ~ z^2
        q0, p0, b0, gamma, omega = 0.7, -0.4, 0.3 + 0.6j, 1.0, 1.0
        sol = center_solution(q0, p0, b0, gamma, omega)
        zs = np.array([1e-4, 1e-3, 1e-2, 1e-1])
        q_err = np.array(
            [abs(short_distance(q0, p0, b0, gamma, omega, z).q - float(sol.q(z))) for z in zs]
        )
        n_err = np.array(
            [
                abs(
                    short_distance(q0, p0, b0, gamma, omega, z).norm_ratio
                    - norm_evolution(sol, gamma, 1.0, z)
                )
                for z in zs
            ]
        )
        for err in (q_err, n_err):
            assert err[0] <= 1e-5 * err[3] * 10  # three decades => ~1e-6, allow 10x
            assert np.all(np.diff(err) > 0)


class TestQuadraticTrajectory:
    def test_matches_integrator_everywhere(self):
        pot = QuadraticLinear(omega=1.0, gamma=1.0)
        g0 = GaussianParams(-1.2, 0.8, 0.5 + 1.3j, norm=2.0, alpha=0.25)
        traj = integrate(g0, pot, 8.0, dz=2e-4, sample_stride=5000)
        closed = quadratic_trajectory(g0, pot, [z for z, _ in traj.samples])
        for (_, got), (_, want) in zip(traj.samples, closed):
            assert abs(got.q - want.q) < 1e-9
            assert abs(got.p - want.p) < 1e-9
            assert abs(got.b - want.b) < 1e-9
            assert abs(got.norm - want.norm) < 1e-8 * want.norm
            assert abs(got.alpha - want.alpha) < 1e-8
