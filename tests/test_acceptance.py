"""Acceptance suite.

One test (or one parametrized group) per acceptance criterion, each
printing a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see every line; failing checks always show their output).

Three clauses are known to be physically unattainable as stated and are
implemented faithfully anyway; the measured values and the mechanism are
documented in README.md ("Numerical notes" and "Known deviations"):

* criterion 1, grid clause: a linear gain slope on a periodic domain
  feeds exponentially growing modes (growth rate about 0.5*gamma*L), so
  |norm - 1| < 1e-6 cannot hold through z = 20 on the grid;
* criterion 2, grid clause: same mechanism; the faithful-region size
  required by the random beams forces growth rates far above the budget
  that 1e-5 at z = 10 allows;
* criterion 8, grid slope for b0 = i: the exact (grid) drift at z = 0+ is
  p0 + 2 Cov(x, V_I) = -0.01234 for eta = 10 (quartic-moment correction
  of the tanh gain profile), not 0; only the quadratic-order Gaussian
  dynamics is exactly stationary there.
"""

import math
import time

import numpy as np
import pytest

from gainbeam.closed_forms import (
    b_evolution,
    center_solution,
    forcing_ratio,
    quadratic_trajectory,
    reduced_forcing_center_solution,
)
from gainbeam.config import FilterConfig
from gainbeam.dynamics import GaussianParams, integrate, reconstruct_wavefunction
from gainbeam.grid import GridSpec, propagate
from gainbeam.harness import filter_experiment
from gainbeam.potentials import PtTanhGaussian, QuadraticLinear, hermitian_variant

QUAD = QuadraticLinear(omega=1.0, gamma=1.0)
TANH10 = PtTanhGaussian(gamma=1.0, omega=1.0, eta=10.0)


def check(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert ok, f"{label}: {detail}"


def random_initial_conditions(n=10, seed=0):
    """The criterion-2 draws: Im b0 in [0.3, 3], |b0| <= 3, |q0|,|p0| <= 3."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q0, p0 = rng.uniform(-3, 3, 2)
        im = rng.uniform(0.3, 3.0)
        re_max = math.sqrt(9.0 - im * im)
        re = rng.uniform(-re_max, re_max)
        out.append(GaussianParams(q0, p0, complex(re, im)))
    return out


class TestCriterion1StationaryBeam:
    def test_1a_gaussian_quadratic(self):
        t0 = time.perf_counter()
        traj = integrate(GaussianParams(0.0, -1.0, 1j), QUAD, 20.0, dz=1e-3, sample_stride=100)
        max_q = max(abs(q) for q in traj.q.tolist())
        max_n = max(abs(norm - 1.0) for norm in traj.norm.tolist())
        check(
            "1a gaussian/quadratic stationary",
            max_q < 1e-6 and max_n < 1e-6,
            f"max|q|={max_q:.2e}, max|norm-1|={max_n:.2e}, {time.perf_counter()-t0:.1f}s",
        )

    def test_1b_grid_quadratic(self):
        # known unattainable: periodic-domain gain modes (see module docstring)
        t0 = time.perf_counter()
        spec = GridSpec(20.0, 4096)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, -1.0, 1j), spec)
        run = propagate(psi0, QUAD, 20.0, dz=1e-3, sample_stride=100)
        max_q = max(abs(mean_q) for mean_q in run.mean_q)
        max_n = max(abs(norm - 1.0) for norm in run.norm)
        check(
            "1b grid/quadratic stationary",
            max_q < 1e-6 and max_n < 1e-6,
            f"max|mean_q|={max_q:.2e}, max|norm-1|={max_n:.2e}, {time.perf_counter()-t0:.1f}s",
        )

    def test_1c_gaussian_tanh(self):
        t0 = time.perf_counter()
        traj = integrate(GaussianParams(0.0, -1.0, 1j), TANH10, 20.0, dz=1e-3, sample_stride=100)
        max_q = max(abs(q) for q in traj.q.tolist())
        check(
            "1c gaussian/tanh near-stationary",
            max_q < 0.05,
            f"max|q|={max_q:.2e}, {time.perf_counter()-t0:.1f}s",
        )


class TestCriterion2QuadraticOracle:
    def test_2a_oracle_vs_rk4(self):
        t0 = time.perf_counter()
        worst = {"q": 0.0, "p": 0.0, "b": 0.0, "norm": 0.0}
        for g0 in random_initial_conditions():
            got = integrate(g0, QUAD, 10.0, dz=1e-3, sample_stride=10**9)
            want = quadratic_trajectory(g0, QUAD, [10.0])
            b_got, b_want = (complex(t.re_b[-1], t.im_b[-1]) for t in (got, want))
            worst["q"] = max(worst["q"], abs(got.q[-1] - want.q[-1]))
            worst["p"] = max(worst["p"], abs(got.p[-1] - want.p[-1]))
            worst["b"] = max(worst["b"], abs(b_got - b_want))
            worst["norm"] = max(worst["norm"], abs(got.norm[-1] - want.norm[-1]) / want.norm[-1])
        elapsed = time.perf_counter() - t0
        check(
            "2a oracle vs gaussian-RK4 at z=10",
            worst["q"] < 1e-8 and worst["p"] < 1e-8 and worst["b"] < 1e-8
            and worst["norm"] < 1e-7,
            f"sup dq={worst['q']:.1e} dp={worst['p']:.1e} db={worst['b']:.1e} "
            f"dnorm={worst['norm']:.1e}, {elapsed:.1f}s",
        )
        check("2a runtime", elapsed < 120.0, f"{elapsed:.1f}s < 120s")

    @staticmethod
    def sized_grid(g0):
        """Grid wide and fine enough for the closed-form beam over z in [0, 10]."""
        zs = np.linspace(0.0, 10.0, 2001)
        sol = center_solution(g0.q, g0.p, g0.b, QUAD.gamma, QUAD.omega)
        q = np.asarray(sol.q(zs), dtype=float)
        b = np.asarray(b_evolution(g0.b, QUAD.omega, zs))
        dq = 1.0 / np.sqrt(2.0 * b.imag)
        dp = np.abs(b) / np.sqrt(2.0 * b.imag)
        p = np.asarray(sol.p(zs), dtype=float)
        half_width = float(np.abs(q).max() + 8.0 * dq.max() + 2.0)
        k_need = float(np.abs(p).max() + 8.0 * dp.max())
        dx = min(0.02, math.pi / (2.0 * k_need))
        n = 1024
        while n < 2.0 * half_width / dx and n < 16384:
            n *= 2
        return GridSpec(half_width, n)

    def test_2b_grid_matches_reconstruction(self):
        # known unattainable for generic draws (see module docstring)
        t0 = time.perf_counter()
        errors = []
        for g0 in random_initial_conditions():
            spec = self.sized_grid(g0)
            psi0 = reconstruct_wavefunction(g0, spec)
            state = propagate(psi0, QUAD, 10.0, dz=1e-3, sample_stride=10**9).final
            traj = integrate(g0, QUAD, 10.0, dz=1e-3, sample_stride=10**9)
            want = quadratic_trajectory(g0, QUAD, [10.0])
            ref = reconstruct_wavefunction(
                GaussianParams(
                    want.q.item(), want.p.item(), complex(want.re_b.item(), want.im_b.item()),
                    want.norm.item(), traj.alpha[-1].item(),
                ),
                spec,
            )
            err = float(
                np.linalg.norm(state.amplitudes - ref.amplitudes)
                / np.linalg.norm(ref.amplitudes)
            )
            errors.append(err)
            print(
                f"  ic q0={g0.q:+.2f} p0={g0.p:+.2f} b0={g0.b:.2f} "
                f"grid L={spec.half_width:.1f} n={spec.n_points}: rel L2 = {err:.3e}"
            )
        elapsed = time.perf_counter() - t0
        check("2b runtime", elapsed < 120.0, f"{elapsed:.1f}s < 120s")
        check(
            "2b grid matches reconstructed Gaussian at z=10",
            max(errors) <= 1e-5,
            f"worst rel L2 = {max(errors):.3e}",
        )


class TestCriterion3Riccati:
    def test_moebius_identity(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        b0 = np.array(
            [complex(rng.uniform(-2.5, 2.5), rng.uniform(0.3, 3.0)) for _ in range(20)]
        )

        def rk4_segment(b, length, dz=2.5e-4):
            n = max(1, round(length / dz))
            h = length / n
            for _ in range(n):
                k1 = -b * b - 1.0
                b2 = b + 0.5 * h * k1
                k2 = -b2 * b2 - 1.0
                b3 = b + 0.5 * h * k2
                k3 = -b3 * b3 - 1.0
                b4 = b + h * k3
                k4 = -b4 * b4 - 1.0
                b = b + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            return b

        worst = 0.0
        b = b0.copy()
        prev = 0.0
        for z in (1.0, math.pi, 10.0):
            b = rk4_segment(b, z - prev)
            prev = z
            worst = max(worst, float(np.abs(b_evolution(b0, 1.0, z) - b).max()))
        check("3 b_evolution vs RK4 at z in {1, pi, 10}", worst < 1e-8, f"sup={worst:.1e}")

        comp = 0.0
        for _ in range(50):
            c0 = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.3, 3.0))
            z1, z2 = rng.uniform(0, 8, 2)
            comp = max(
                comp,
                abs(
                    b_evolution(b_evolution(c0, 1.0, z1), 1.0, z2)
                    - b_evolution(c0, 1.0, z1 + z2)
                ),
            )
        elapsed = time.perf_counter() - t0
        check("3 composition property", comp < 1e-12, f"sup={comp:.1e}")
        check("3 runtime", elapsed < 5.0, f"{elapsed:.1f}s < 5s")


class TestCriterion4ForcingSpectrum:
    def test_two_omega_line(self):
        n = 4096
        zs = np.arange(n) * (20.0 * math.pi / n)
        r = np.asarray(forcing_ratio(0.5j, 1.0, zs), dtype=float)
        spectrum = np.fft.fft(r)
        power = np.abs(spectrum) ** 2
        bin_2w = 20  # frequency 2 rad/unit on a 20 pi domain
        fraction = (power[bin_2w] + power[n - bin_2w]) / power.sum()
        amplitude = 2.0 * np.abs(spectrum[bin_2w]) / n
        check("4 spectral purity at 2w", fraction > 1 - 1e-6, f"fraction={fraction:.12f}")
        check("4 amplitude 3/4", abs(amplitude - 0.75) < 1e-9, f"amp={amplitude:.12f}")


class TestCriterion5HermitianLimit:
    @pytest.mark.parametrize(
        "potential,label,grid_half_width",
        [
            (hermitian_variant(TANH10), "tanh", 80.0),
            (QuadraticLinear(omega=1.0, gamma=0.0), "quadratic", 20.0),
        ],
        ids=["tanh", "quadratic"],
    )
    def test_conservation(self, potential, label, grid_half_width):
        g0 = GaussianParams(-2.0, 0.5, 1j)
        traj = integrate(g0, potential, 20.0, dz=1e-3, sample_stride=200)
        norm_dev = max(abs(norm - 1.0) for norm in traj.norm.tolist())
        e0 = 0.5 * g0.p**2 + potential.sample(g0.q).v_real
        energy_dev = max(
            abs(0.5 * p**2 + potential.sample(q).v_real - e0)
            for q, p in zip(traj.q.tolist(), traj.p.tolist())
        )
        check(f"5 gaussian norm constant ({label})", norm_dev < 1e-9, f"dev={norm_dev:.1e}")
        check(
            f"5 center energy conserved ({label})",
            energy_dev < 1e-8 * abs(e0),
            f"dev={energy_dev:.1e} vs E={e0:.3f}",
        )
        spec = GridSpec(grid_half_width, 4096)
        psi0 = reconstruct_wavefunction(g0, spec)
        norms = propagate(psi0, potential, 20.0, dz=1e-3, sample_stride=2000).norm
        grid_dev = max(abs(norm - 1.0) for norm in norms)
        check(f"5 grid norm conserved ({label})", grid_dev < 1e-8, f"dev={grid_dev:.1e}")


class TestCriterion6SemiclassicalTrend:
    def test_error_decreases_with_eta(self):
        t0 = time.perf_counter()
        sups = {}
        for eta, q0 in ((5.0, 1.0), (10.0, 2.0), (15.0, 3.0)):
            pot = PtTanhGaussian(gamma=1.0, omega=1.0, eta=eta)
            g0 = GaussianParams(q0, 0.0, 1j)
            traj = integrate(g0, pot, 15.0, dz=1e-3, sample_stride=100)
            spec = GridSpec(8.0 * eta, 4096)
            qs_grid = propagate(
                reconstruct_wavefunction(g0, spec), pot, 15.0, dz=1e-3, sample_stride=100
            ).mean_q
            qs_gauss = traj.q
            sups[eta] = float(np.abs(qs_gauss - qs_grid).max())
        elapsed = time.perf_counter() - t0
        detail = ", ".join(f"eta={k:g}: {v:.3e}" for k, v in sups.items())
        check(
            "6 sup_q_error decreases with eta",
            sups[5.0] > sups[10.0] > sups[15.0],
            f"{detail}, {elapsed:.0f}s",
        )
        check("6 runtime", elapsed < 300.0, f"{elapsed:.0f}s < 300s")


class TestCriterion7WidthFilter:
    def test_separation_rate(self):
        t0 = time.perf_counter()
        cfg = FilterConfig(
            name="acceptance",
            widths=(0.5j, 2j),
            q0=0.0,
            p0=0.0,
            z_max=0.02,
            dz=5e-5,
            probe_z=(1e-3, 1e-2),
        )
        pair = filter_experiment(cfg).pairs[0]
        rate_small = pair.measured_rates[1e-3]
        rate_large = pair.measured_rates[1e-2]
        elapsed = time.perf_counter() - t0
        check(
            "7 rate at z=0.01 within 5%",
            abs(rate_large - 1.5) < 0.05 * 1.5,
            f"measured={rate_large:.6f}",
        )
        check(
            "7 rate at z=0.001 within 0.5%",
            abs(rate_small - 1.5) < 0.005 * 1.5,
            f"measured={rate_small:.6f}",
        )
        check("7 runtime", elapsed < 10.0, f"{elapsed:.1f}s < 10s")


class TestCriterion8WidthDependentSplit:
    Z1 = 0.01
    CASES = [(0.5j, "+"), (1j, "0"), (2j, "-")]

    @staticmethod
    def classify(slope):
        if abs(slope) < 1e-6:
            return "0"
        return "+" if slope > 0 else "-"

    @pytest.mark.parametrize("b0,expected", CASES, ids=["i_half", "i", "2i"])
    def test_gaussian_slope(self, b0, expected):
        traj = integrate(GaussianParams(0.0, -1.0, b0), TANH10, self.Z1, dz=1e-3)
        slope = (traj.q[-1].item() - 0.0) / self.Z1
        check(
            f"8 gaussian slope sign for b0={b0}",
            self.classify(slope) == expected,
            f"slope={slope:+.3e}, want {expected}",
        )

    @pytest.mark.parametrize("b0,expected", CASES, ids=["i_half", "i", "2i"])
    def test_grid_slope(self, b0, expected):
        # b0 = i is known unattainable: exact drift is p0 + 2 Cov(x, V_I)
        # = -1.23e-2 at eta = 10 (see module docstring)
        spec = GridSpec(80.0, 4096)
        psi0 = reconstruct_wavefunction(GaussianParams(0.0, -1.0, b0), spec)
        mean_q = propagate(psi0, TANH10, self.Z1, dz=1e-3, sample_stride=10).mean_q
        slope = (mean_q[-1] - mean_q[0]) / self.Z1
        check(
            f"8 grid slope sign for b0={b0}",
            self.classify(slope) == expected,
            f"slope={slope:+.3e}, want {expected}",
        )


class TestCriterion9ForcingResponseDocumentation:
    def test_residuals(self):
        # the solution built on the single-forcing response satisfies
        # q'' = -w^2 q + gamma R to 1e-6, while the coefficients that track
        # the actual beam (three-fold forcing) miss that equation by ~2 gamma R;
        # README "Numerical notes" records which one tracks the dynamics
        reduced = reduced_forcing_center_solution(0.0, -1.0, 0.5j, 1.0, 1.0)
        full = center_solution(0.0, -1.0, 0.5j, 1.0, 1.0)
        zs = np.linspace(0.1, 12.0, 97)
        res_reduced = max(abs(float(reduced.reduced_ode_residual(z))) for z in zs)
        res_full = max(abs(float(full.reduced_ode_residual(z))) for z in zs)
        check(
            "9 single-forcing coefficients solve the reduced ODE",
            res_reduced < 1e-6,
            f"residual={res_reduced:.1e}",
        )
        check(
            "9 dynamics-matched coefficients violate the reduced ODE",
            res_full > 0.1 * 1.0,
            f"residual={res_full:.2f}",
        )
