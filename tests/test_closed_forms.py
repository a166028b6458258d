import itertools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gainbeam
from gainbeam.closed_forms import (
    OscillatorSolution,
    adaptive_simpson,
    b_evolution,
    center_solution,
    forcing_ratio,
    quadratic_trajectory,
    reduced_forcing_center_solution,
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
        # an array b0 gives the scalar results entry by entry
        for omega in (0.7, 1.0):
            z = rng.uniform(0, 10)
            got = b_evolution(np.array(b0s), omega, z)
            want = np.array([b_evolution(b0, omega, z) for b0 in b0s])
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_matches_high_precision_moebius_map(self):
        # 40-digit B at the same rounded omega z: what is left is the
        # rounding of b_evolution's real arithmetic
        rng = np.random.default_rng(11)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(400):
                b0 = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, math.log10(5.0)))
                omega, z = rng.uniform(0.3, 3.0), rng.uniform(0.0, 50.0)
                wz = mpmath.mpf(omega * z)
                c, s = mpmath.cos(wz), mpmath.sin(wz)
                b, w = mpmath.mpc(b0), mpmath.mpf(omega)
                want = complex(w * (b * c - w * s) / (b * s + w * c))
                err = abs(complex(b_evolution(b0, omega, z)) - want) / max(1.0, abs(want))
                worst = max(worst, err)
        assert worst <= 2e-13, worst

    def test_composition(self):
        rng = np.random.default_rng(2)
        for b0 in random_b0(rng, 30):
            z1, z2 = rng.uniform(0, 5, 2)
            once = b_evolution(b_evolution(b0, 1.0, z1), 1.0, z2)
            direct = b_evolution(b0, 1.0, z1 + z2)
            assert abs(once - direct) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        re_b0=st.floats(-3.0, 3.0),
        im_b0=st.floats(0.05, 5.0),
        omega=st.floats(0.1, 3.0),
        z1=st.floats(0.0, 30.0),
        z2=st.floats(0.0, 30.0),
    )
    def test_group_law(self, re_b0, im_b0, omega, z1, z2):
        b0 = complex(re_b0, im_b0)
        composed = b_evolution(b_evolution(b0, omega, z1), omega, z2)
        direct = b_evolution(b0, omega, z1 + z2)
        assert abs(composed - direct) <= 1e-11 * max(abs(direct), 1.0)

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

    def test_rejects_width_whose_reciprocal_overflows(self):
        # 1 / Im b0 overflows at 5e-324, and 2 omega Im b0 rounds to 0
        with pytest.raises(ValueError, match="1 / Im b0"):
            center_solution(0, 0, 5e-324j, 0, 0.25)
        with pytest.raises(ValueError, match="1 / Im b0"):
            b_evolution(np.array([1j, 0.5 + 5e-324j, 2j]), 1.0, 0.5)


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


def stationary_width(q0, p0, gamma, omega, z):
    """(q, p, N/N0) of center_solution at the stationary width B0 = i omega."""
    sol = center_solution(q0, p0, 1j * omega, gamma, omega)
    return sol.q(z), sol.p(z), sol.norm_ratio(z)


class TestStationaryWidthSolution:
    def test_balanced_launch_is_static(self):
        for z in np.linspace(0, 25, 40):
            q, p, n = stationary_width(0.0, -1.0, 1.0, 1.0, z)
            assert abs(q) < 1e-14
            assert p == pytest.approx(-1.0, abs=1e-14)
            assert n == pytest.approx(1.0, abs=1e-13)

    def test_hermitian_limit(self):
        for z in (0.0, 1.3, 7.0):
            q, p, n = stationary_width(2.0, 0.5, 0.0, 1.5, z)
            assert q == pytest.approx(2 * math.cos(1.5 * z) + (0.5 / 1.5) * math.sin(1.5 * z))
            assert p == pytest.approx(-1.5 * 2 * math.sin(1.5 * z) + 0.5 * math.cos(1.5 * z))
            assert n == pytest.approx(1.0, abs=1e-14)

    def test_norm_starts_at_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q0, p0, gamma, omega = rng.uniform(-3, 3, 4)
            omega = abs(omega) + 0.1
            _, _, n = stationary_width(q0, p0, gamma, omega, 0.0)
            assert n == 1.0

    def test_matches_rk4(self):
        # general omega: the closed form must track the parameter dynamics
        for omega, gamma in ((1.0, 1.0), (1.7, 0.6)):
            pot = QuadraticLinear(omega=omega, gamma=gamma)
            g0 = GaussianParams(0.8, -0.4, 1j * omega)
            traj = integrate(g0, pot, 6.0, dz=5e-4, sample_stride=3000)
            for z, got_q, got_p, got_n in zip(
                traj.z.tolist(), traj.q.tolist(), traj.p.tolist(), traj.norm.tolist()
            ):
                q, p, n = stationary_width(0.8, -0.4, gamma, omega, z)
                assert got_q == pytest.approx(q, abs=1e-9)
                assert got_p == pytest.approx(p, abs=1e-9)
                assert got_n == pytest.approx(n, rel=1e-8)


class TestCenterEvolution:
    def test_reduces_to_stationary_width(self):
        for omega in (1.0, 1.6):
            sol = center_solution(1.2, -0.3, 1j * omega, 0.8, omega)
            # at b0 = i*omega the width forcing vanishes identically
            assert np.all(forcing_ratio(1j * omega, omega, np.linspace(0, 9, 40)) == 0.0)
            for z in np.linspace(0, 10, 30):
                # a plain oscillation, the momentum shifted by gamma / omega
                q = 1.2 * math.cos(omega * z) + ((-0.3 + 0.8 / omega) / omega) * math.sin(omega * z)
                assert sol.q(z) == pytest.approx(q, abs=1e-12)
        # at omega = 1 the coefficients a, b of cos z and sin z are q0 and p0 + gamma;
        # the e^{iz} coefficient is (a - i b) / 2
        sol = center_solution(1.2, -0.3, 1j, 0.8, 1.0)
        assert 2 * sol.coeffs[3].real == pytest.approx(1.2)
        assert -2 * sol.coeffs[3].imag == pytest.approx(-0.3 + 0.8)

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
            for z, q in zip(traj.z.tolist(), traj.q.tolist()):
                worst = max(worst, abs(float(sol.q(z)) - q))
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

    def test_reduced_residual_is_exact(self):
        # q'' comes from the coefficients, not a finite difference: the
        # reduced solution's residual is round-off
        reduced = reduced_forcing_center_solution(0.0, -1.0, 0.5j, 1.0, 1.0)
        zs = np.linspace(0.1, 15.0, 300)
        assert np.abs(reduced.reduced_ode_residual(zs)).max() <= 1e-12

    def test_stationary_beam_stays_at_origin(self):
        # p0 = -gamma / omega with B0 = i omega: the beam center never moves
        sol = center_solution(0.0, -1.0, 1j, 1.0, 1.0)
        assert sol.q(5.0) == pytest.approx(0.0, abs=1e-12)


class TestNormQuadrature:
    # N(z) / N0 = exp(gamma integral_0^z q ds), the integral by adaptive Simpson,
    # or by mpmath's quadrature where it is the reference for norm_ratio
    def test_zero_center(self):
        assert math.exp(1.0 * adaptive_simpson(lambda z: 0.0, 0.0, 10.0)) == 1.0

    def test_constant_center(self):
        assert math.exp(0.7 * adaptive_simpson(lambda z: 2.0, 0.0, 3.0)) == pytest.approx(
            math.exp(0.7 * 2.0 * 3.0), rel=1e-10
        )

    def test_closed_form_matches_quadrature(self):
        sol = center_solution(1.0, 0.3, 0.4 + 0.8j, 1.2, 1.0)
        for z in (0.5, 2.0, 7.7):
            quad = math.exp(1.2 * mpmath.quad(lambda s: float(sol.q(float(s))), [0.0, z]))
            assert sol.norm_ratio(z) == pytest.approx(quad, rel=1e-10)

    def test_stationary_case_closed_form(self):
        for z in (0.0, 1.0, 4.4):
            _, _, want = stationary_width(1.5, 0.2, 0.9, 1.0, z)
            sol = center_solution(1.5, 0.2, 1j, 0.9, 1.0)
            got = math.exp(0.9 * mpmath.quad(lambda s: float(sol.q(float(s))), [0.0, z]))
            assert got == pytest.approx(want, rel=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            adaptive_simpson(lambda z: math.inf, 0.0, 1.0)


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
        # at q0 = p0 = 0 a beam of width Im B0 = 1/2 drifts at gamma / Im B0 = 2
        sol = center_solution(0.0, 0.0, 0.5j, 1.0, 1.0)
        assert sol.q_dot(0.0) == pytest.approx(2.0, rel=1e-12)

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
                width_drift_rate(b0, 1.0)
        b0s = np.array([0.5j, 0.3 + 0.6j, 2j])
        rates = width_drift_rate(b0s, 1.0)
        for i, b0 in enumerate(b0s):
            assert rates[i] == width_drift_rate(b0, 1.0)

    def test_quadratic_error_scaling(self):
        # the first-order expansion q0 + (p0 + gamma / Im B0) z and
        # N/N0 = 1 + (gamma / hbar) q0 z misses the closed forms by ~ z^2
        q0, p0, b0, gamma, omega = 0.7, -0.4, 0.3 + 0.6j, 1.0, 1.0
        zs = np.array([1e-4, 1e-3, 1e-2, 1e-1])
        traj = quadratic_trajectory(GaussianParams(q0, p0, b0), QuadraticLinear(omega, gamma), zs)
        q_err = np.abs(q0 + (p0 + gamma / b0.imag) * zs - traj.q)
        n_err = np.abs(1.0 + gamma * q0 * zs - traj.norm)
        for err in (q_err, n_err):
            assert err[0] <= 1e-5 * err[3] * 10  # three decades => ~1e-6, allow 10x
            assert np.all(np.diff(err) > 0)


class TestQuadraticTrajectory:
    def test_matches_integrator_everywhere(self):
        pot = QuadraticLinear(omega=1.0, gamma=1.0)
        g0 = GaussianParams(-1.2, 0.8, 0.5 + 1.3j, norm=2.0, alpha=0.25)
        traj = integrate(g0, pot, 8.0, dz=2e-4, sample_stride=5000)
        want = quadratic_trajectory(g0, pot, traj.z.tolist())
        for i in range(len(traj.z)):
            assert abs(traj.q[i] - want.q[i]) < 1e-9
            assert abs(traj.p[i] - want.p[i]) < 1e-9
            b_got, b_want = (complex(t.re_b[i], t.im_b[i]) for t in (traj, want))
            assert abs(b_got - b_want) < 1e-9
            assert abs(traj.norm[i] - want.norm[i]) < 1e-8 * want.norm[i]
            assert abs(traj.alpha[i] - want.alpha[i]) < 1e-8

    def test_columns_are_the_scalar_closed_forms(self):
        pot = QuadraticLinear(omega=0.7, gamma=0.4)
        g0 = GaussianParams(0.3, -0.4, 0.1 + 0.48j, norm=1.5, alpha=0.25)
        sol = center_solution(g0.q, g0.p, g0.b, pot.gamma, pot.omega)
        zs = [0.0, 1e-3, 0.5, 0.5, 3.0, 29.9, 30.0, 1000.0]
        traj = quadratic_trajectory(g0, pot, zs, hbar=0.5)
        # p is formed from the B the oracle has already formed, with the bits of sol.p
        assert np.array_equal(traj.p, sol.p(np.array(zs)))
        columns = (getattr(traj, name).tolist() for name in ("z", "q", "p", "re_b", "im_b", "norm"))
        for z, q, p, re_b, im_b, norm in zip(*columns):
            want_b = complex(b_evolution(g0.b, pot.omega, z))
            assert q == pytest.approx(float(sol.q(z)), rel=1e-15, abs=0)
            assert p == pytest.approx(float(sol.p(z)), rel=1e-15, abs=0)
            assert abs(complex(re_b, im_b) - want_b) <= 1e-15 * abs(want_b)
            assert norm == pytest.approx(1.5 * float(sol.norm_ratio(z, hbar=0.5)), rel=1e-15)

    def test_decreasing_z_rejected(self):
        pot = QuadraticLinear(omega=1.0, gamma=1.0)
        g0 = GaussianParams(0.0, -1.0, 1j)
        for zs in ([0.0, 1.0, 0.5], [-0.1], [2.0, 1.0]):
            with pytest.raises(ValueError):
                quadratic_trajectory(g0, pot, zs)

    @pytest.mark.parametrize("hbar", [0.5, 1.0])
    def test_alpha_continuous_where_the_reduction_switches(self, hbar):
        # omega z is reduced modulo 2 pi, so the turn count steps at odd
        # multiples of pi, where D = B0 sin wz + omega cos wz crosses the
        # negative real axis; a small Im B0 and a negative Re B0 make arg D
        # turn fastest there. Even multiples are where the rest's harmonics
        # restart. Across each point alpha moves by at most max|alpha'| dz
        omega, gamma = 1.3, 0.6
        pot = QuadraticLinear(omega=omega, gamma=gamma)
        g0 = GaussianParams(0.3, -0.4, complex(-0.8, 0.05), alpha=0.25)
        period = quadratic_trajectory(
            g0, pot, np.linspace(0.0, 2 * math.pi / omega, 20001), hbar=hbar
        )
        p, q = period.p, period.q
        q_dot = p + gamma / period.im_b
        rate = p * q_dot - p * p / 2 - omega**2 * q * q / 2 - hbar * period.im_b / 2
        max_rate = np.abs(rate).max()
        odd = [(2 * j + 1) * math.pi for j in range(6)]
        even = [2 * j * math.pi for j in range(1, 6)]
        for centre in odd + even:
            for delta in (1e-6, 1e-9, 1e-12):
                lo, hi = (centre - delta) / omega, (centre + delta) / omega
                alpha = quadratic_trajectory(g0, pot, [lo, hi], hbar=hbar).alpha
                jump = abs(alpha[1] - alpha[0])
                assert jump <= max_rate * (hi - lo) + 1e-13 * max(1.0, abs(alpha[0])), (
                    centre, delta, jump
                )

    def test_import_leaves_out_numpy_polynomial(self):
        # importing numpy.polynomial (for a quadrature rule, say) would add
        # to every run's set-up time and peak memory
        src = os.path.dirname(os.path.dirname(gainbeam.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, gainbeam; print('numpy.polynomial' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_import_leaves_out_unused_modules(self):
        # gainbeam starts no process or thread (tests/test_source.py rejects
        # the imports at any depth), and mpmath, scipy and hypothesis serve
        # the tests only: gainbeam takes no dependency on them
        src = os.path.dirname(os.path.dirname(gainbeam.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        names = ["signal", "multiprocessing", "concurrent.futures", "mpmath", "scipy", "hypothesis"]
        code = f"import sys, gainbeam; print([n for n in {names!r} if n in sys.modules])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    # Im b0 = 0.012 puts a sharp Im B peak twice a period, where alpha'
    # reaches 1.7e3 while alpha is about 0.07. The oracle's harmonics are
    # formed from the closed-form coefficients, not from samples of alpha',
    # so they carry no rounding of those peaks.
    @pytest.mark.parametrize(
        "gamma, im_b0, omega",
        [*itertools.product([0.2, 0.6], [0.02, 0.48, 8.0], [0.7, 2.0]),
         (0.2, 0.012, 2.0), (0.6, 0.012, 2.0), (0.2, 0.012, 0.7), (0.6, 0.012, 0.7)],
    )
    def test_alpha_matches_high_precision_quadrature(self, gamma, im_b0, omega):
        hbar = 0.5
        pot = QuadraticLinear(omega=omega, gamma=gamma)
        g0 = GaussianParams(0.3, -0.4, complex(0.1, im_b0), alpha=0.25)
        dense = np.linspace(0.0, 30.0, 61)
        got = quadratic_trajectory(g0, pot, dense, hbar=hbar).alpha.tolist()
        got += [quadratic_trajectory(g0, pot, [z], hbar=hbar).alpha[0] for z in (30.0, 1000.0)]
        want = 0.25 + _alpha_reference(g0, gamma, omega, hbar, [*dense, 30.0, 1000.0])
        err = np.abs(np.array(got) - want)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want))), err.max()


def _alpha_reference(g0: GaussianParams, gamma: float, omega: float, hbar: float, zs):
    """integral_0^z alpha' at each z by 30-digit tanh-sinh quadrature.

    q is the closed-form center, its coefficients formed in 30 digits from
    the initial data: the double-rounded coefficients of center_solution
    shift the period mean of alpha' by up to ~1e-13 when Im b0 is small.
    alpha' = p q' - p^2/2 - omega^2 q^2/2 - hbar Im B / 2 has period
    2 pi / omega, so each z is split into whole periods and a remainder;
    the remainders are integrated in increasing order.
    """
    mp = mpmath.mp
    with mpmath.workdps(30):
        w, g, h = mp.mpf(omega), mp.mpf(gamma), mp.mpf(hbar)
        b_re, b_im = mp.mpf(g0.b.real), mp.mpf(g0.b.imag)
        s_coeff = (b_re**2 + b_im**2 - w * w) / (2 * w * b_im)
        c_coeff = b_re / b_im
        scale = -g / (w * w)
        a = mp.mpf(g0.q) - scale * c_coeff
        b = (mp.mpf(g0.p) + g / b_im - scale * 2 * w * s_coeff) / w

        def rate(z):
            c, s = mp.cos(w * z), mp.sin(w * z)
            c2, s2 = mp.cos(2 * w * z), mp.sin(2 * w * z)
            q = a * c + b * s + scale * (s_coeff * s2 + c_coeff * c2)
            qd = w * (b * c - a * s) + 2 * w * scale * (s_coeff * c2 - c_coeff * s2)
            im_b = w * w * b_im / ((b_re * s + w * c) ** 2 + (b_im * s) ** 2)
            p = qd - g / im_b
            return p * qd - p * p / 2 - w * w * q * q / 2 - h * im_b / 2

        period = 2 * mp.pi / w
        # Im B peaks twice a period, where b_re sin(w z) + w cos(w z) = 0,
        # and the peaks narrow with Im b0: each one in [lo, hi) is a panel end
        half = period / 2
        first_peak = (mp.atan2(w, -b_re) / w) % half

        def integral(lo, hi):
            pieces = max(1, int(mp.ceil(16 * (hi - lo) / period)))
            first, end = (int(mp.ceil((x - first_peak) / half)) for x in (lo, hi))
            peaks = [first_peak + k * half for k in range(first, end)]
            return mp.quad(rate, sorted([*mp.linspace(lo, hi, pieces + 1), *peaks]))

        whole = integral(0, period)
        turns = [mp.floor(mp.mpf(z) / period) for z in zs]
        rests = [mp.mpf(z) - k * period for z, k in zip(zs, turns)]
        out = np.empty(len(zs))
        done, lo = mp.mpf(0), mp.mpf(0)
        for i in sorted(range(len(zs)), key=lambda i: rests[i]):
            done += integral(lo, rests[i])
            lo = rests[i]
            out[i] = float(turns[i] * whole + done)
    return out
