import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainbeam.closed_forms import quadratic_trajectory
from gainbeam.dynamics import (
    GaussianParams,
    center_acceleration,
    integrate,
    reconstruct_wavefunction,
    rhs,
    widths,
)
from gainbeam.errors import NarrowGridWarning, NumericalAbortError, WidthCollapseError
from gainbeam.grid import GridSpec, observables, propagate
from gainbeam.potentials import (
    FreeSpace,
    PhysicalConstants,
    Potential,
    PotentialSample,
    PtTanhGaussian,
    QuadraticLinear,
    hermitian_variant,
)

QUAD = QuadraticLinear(omega=1.0, gamma=1.0)
TANH = PtTanhGaussian(gamma=1.0, omega=1.0, eta=10.0)
QUAD_SMALL_GAIN = QuadraticLinear(omega=1.0, gamma=0.2)
STATIONARY = GaussianParams(q=0.0, p=-1.0, b=1j)


class TestRhs:
    def test_stationary_point(self):
        d = rhs(STATIONARY, QUAD.sample(0.0))
        assert d.dq == 0.0 and d.dp == 0.0 and d.db == 0 and d.dnorm == 0.0
        assert d.dalpha == -1.0

    def test_tanh_stationary_point(self):
        # the tanh well shares the fixed point: same local expansion at q = 0
        d = rhs(STATIONARY, TANH.sample(0.0))
        assert d.dq == 0.0 and d.dp == 0.0 and d.db == 0 and d.dnorm == 0.0

    def test_hermitian_reduces_to_hamilton(self):
        rng = np.random.default_rng(3)
        pot = hermitian_variant(TANH)
        for _ in range(20):
            g = GaussianParams(
                q=rng.uniform(-5, 5),
                p=rng.uniform(-3, 3),
                b=complex(rng.uniform(-1, 1), rng.uniform(0.2, 3)),
                norm=rng.uniform(0.1, 2),
            )
            s = pot.sample(g.q)
            d = rhs(g, s)
            assert d.dp == -s.dv_real
            assert d.dq == g.p
            assert d.dnorm == 0.0

    def test_free_spreading_onset(self):
        d = rhs(GaussianParams(0.0, 0.0, 1j), FreeSpace().sample(0.0))
        assert d.db == 1.0

    def test_width_collapse_signalled(self):
        with pytest.raises(WidthCollapseError):
            rhs(GaussianParams(0.0, 0.0, 1 - 0.5j), QUAD.sample(0.0))
        with pytest.raises(WidthCollapseError):
            rhs(GaussianParams(0.0, 0.0, 1 + 0j), QUAD.sample(0.0))


def rk4_step_from_rhs(g, pot, h):
    """One classical RK4 step of (q, p, B, log N, alpha) built from the public rhs."""

    def rates(q, p, b):
        # at norm 1, dnorm is d(log N)/dz
        d = rhs(GaussianParams(q, p, b), pot.sample(q))
        return d.dq, d.dp, d.db, d.dnorm, d.dalpha

    k1 = rates(g.q, g.p, g.b)
    k2 = rates(g.q + 0.5 * h * k1[0], g.p + 0.5 * h * k1[1], g.b + 0.5 * h * k1[2])
    k3 = rates(g.q + 0.5 * h * k2[0], g.p + 0.5 * h * k2[1], g.b + 0.5 * h * k2[2])
    k4 = rates(g.q + h * k3[0], g.p + h * k3[1], g.b + h * k3[2])
    return [
        x + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip((g.q, g.p, g.b, 0.0, g.alpha), k1, k2, k3, k4)
    ]


POTENTIALS = st.one_of(
    st.builds(
        PtTanhGaussian,
        gamma=st.floats(-2.0, 2.0),
        omega=st.floats(0.5, 2.0),
        eta=st.floats(2.0, 10.0),
    ),
    st.builds(QuadraticLinear, omega=st.floats(0.5, 2.0), gamma=st.floats(-2.0, 2.0)),
)


@settings(max_examples=200, deadline=None)
@given(
    pot=POTENTIALS,
    q=st.floats(-3.0, 3.0),
    p=st.floats(-2.0, 2.0),
    re_b=st.floats(-1.0, 1.0),
    im_b=st.floats(0.3, 3.0),
    alpha=st.floats(-1.0, 1.0),
    norm=st.floats(0.1, 10.0),
    h=st.floats(1e-4, 0.05),
)
def test_integrate_step_is_rk4_of_rhs(pot, q, p, re_b, im_b, alpha, norm, h):
    g0 = GaussianParams(q, p, complex(re_b, im_b), norm, alpha)
    got = integrate(g0, pot, z_max=h, dz=h).samples[-1][1]
    want_q, want_p, want_b, want_log_norm, want_alpha = rk4_step_from_rhs(g0, pot, h)
    for value, want in (
        (got.q, want_q),
        (got.p, want_p),
        (got.b, want_b),
        (math.log(got.norm / norm), want_log_norm),
        (got.alpha, want_alpha),
    ):
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want))


@settings(max_examples=25, deadline=None)
@given(
    pot=POTENTIALS.map(hermitian_variant),
    q=st.floats(-2.0, 2.0),
    p=st.floats(-1.0, 1.0),
    re_b=st.floats(-1.0, 1.0),
    im_b=st.floats(0.3, 3.0),
    norm=st.floats(0.1, 10.0),
)
def test_hermitian_limit_conserves_norm(pot, q, p, re_b, im_b, norm):
    # with V_I = 0 every split-operator step is unitary, and the RK4 rate
    # of log N is exactly 0
    g0 = GaussianParams(q, p, complex(re_b, im_b), norm)
    norms = propagate(
        reconstruct_wavefunction(g0, GridSpec(16.0, 256)), pot, 0.5, dz=1e-3, sample_stride=100
    ).norm
    assert np.all(np.abs(norms / norms[0] - 1.0) <= 1e-12)
    traj = integrate(g0, pot, 0.5, dz=1e-3, sample_stride=100)
    assert np.all(traj.columns()["norm"] == norm)


@settings(max_examples=25, deadline=None)
@given(
    pot=POTENTIALS.map(hermitian_variant),
    q=st.floats(-2.0, 2.0),
    p=st.floats(-1.0, 1.0),
    re_b=st.floats(-1.0, 1.0),
    im_b=st.floats(0.3, 3.0),
)
def test_hermitian_limit_conserves_energy(pot, q, p, re_b, im_b):
    # with V_I = 0, q' = p and p' = -V_R'(q) are Hamilton's equations, so RK4
    # keeps p^2/2 + V_R(q) to its truncation error (at most 9.4e-14 relative
    # over the corners of these ranges). The grid's <H> = <hbar^2 k^2 / (2 n0)>
    # + <V_R> drifts by the Strang splitting error, which scales as dz^2
    # (at most 0.94 dz^2 relative over the same corners)
    g0 = GaussianParams(q, p, complex(re_b, im_b))
    traj = integrate(g0, pot, 0.5, dz=1e-3, sample_stride=100)
    energy = traj.p**2 / 2 + np.array([pot.sample(x).v_real for x in traj.q])
    assert np.all(np.abs(energy - energy[0]) <= 1e-12 * max(1.0, abs(energy[0])))
    spec = GridSpec(16.0, 256)
    k, v = spec.wavenumbers(), pot.value(spec.positions()).real
    # the fields at z = 0, 0.1, ..., 0.5, each chained from the last at the same dz
    states = [reconstruct_wavefunction(g0, spec)]
    for _ in range(5):
        states.append(propagate(states[-1], pot, 0.1, dz=1e-3, sample_stride=10**9).final)
    hamiltonian = []
    for state in states:
        density = np.abs(state.amplitudes) ** 2
        spectrum = np.abs(np.fft.fft(state.amplitudes)) ** 2
        hamiltonian.append(
            (spectrum * k * k / 2).sum() / spectrum.sum() + (density * v).sum() / density.sum()
        )
    drift = np.abs(np.array(hamiltonian) - hamiltonian[0])
    assert np.all(drift <= 4 * 1e-3**2 * max(1.0, abs(hamiltonian[0])))


# On quadratic_linear the Gaussian family is exact, so RK4 and the grid
# differ from the closed forms only by their truncation errors. Over these
# ranges (z <= 1) the worst ratios found at the corners and on 300 random
# draws are 88 dz^4 for RK4 and 1.7 dz^2 for the grid's max-abs field error
QUADRATIC_DRAWS = dict(
    q=st.floats(-1.0, 1.0),
    p=st.floats(-1.0, 1.0),
    re_b=st.floats(-1.0, 1.0),
    im_b=st.floats(0.5, 2.0),
    omega=st.floats(0.7, 1.4),
    hbar=st.floats(0.5, 1.5),
    z=st.floats(0.1, 1.0),
    dz=st.floats(0.005, 0.05),
)


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(0.0, 1.0), **QUADRATIC_DRAWS)
def test_rk4_is_exact_to_dz4_on_quadratic(gamma, q, p, re_b, im_b, omega, hbar, z, dz):
    g0 = GaussianParams(q, p, complex(re_b, im_b))
    pot = QuadraticLinear(omega=omega, gamma=gamma)
    traj = integrate(g0, pot, z, dz=dz, constants=PhysicalConstants(hbar=hbar))
    closed = quadratic_trajectory(g0, pot, traj.z, hbar=hbar)
    bound = 300 * traj.dz**4 + 1e-12
    for name in ("q", "p", "re_b", "im_b", "alpha"):
        got, want = getattr(traj, name), getattr(closed, name)
        assert np.all(np.abs(got - want) <= bound * np.maximum(1.0, np.abs(want))), name
    assert np.all(np.abs(traj.norm / closed.norm - 1.0) <= bound)


@settings(max_examples=30, deadline=None)
@given(**QUADRATIC_DRAWS)
def test_grid_is_exact_to_dz2_on_quadratic(q, p, re_b, im_b, omega, hbar, z, dz):
    # gamma = 0: a gain slope on the periodic domain amplifies round-off
    # (README, "Known deviations")
    g0 = GaussianParams(q, p, complex(re_b, im_b))
    pot = QuadraticLinear(omega=omega, gamma=0.0)
    constants = PhysicalConstants(hbar=hbar)
    spec = GridSpec(16.0, 512)
    run = propagate(
        reconstruct_wavefunction(g0, spec, constants=constants),
        pot, z, dz=dz, sample_stride=10**9, constants=constants,
    )
    (_, g), = quadratic_trajectory(g0, pot, [z], hbar=hbar)
    want = reconstruct_wavefunction(g, spec, z, constants=constants).amplitudes
    err = np.max(np.abs(run.final.amplitudes - want)) / np.max(np.abs(want))
    assert err <= 5 * (z / round(z / dz)) ** 2


class TestWidths:
    @pytest.mark.parametrize(
        "b,expected",
        [
            (1j, (1 / math.sqrt(2), 1 / math.sqrt(2))),
            (0.5j, (1.0, 0.5)),
            (2j, (0.5, 1.0)),
        ],
    )
    def test_values(self, b, expected):
        dq, dp = widths(GaussianParams(0.0, 0.0, b))
        assert (dq, dp) == pytest.approx(expected)

    def test_collapse(self):
        with pytest.raises(WidthCollapseError):
            widths(GaussianParams(0.0, 0.0, -1j))


def assert_partial_run(exc, g0):
    # the samples taken before the abort: equal columns from the initial
    # condition at z = 0, strictly increasing and short of the abort's z
    partial = exc.partial
    assert len({len(column) for column in partial.columns().values()}) == 1
    assert partial.samples[0] == (0.0, g0)
    assert np.all(np.diff(partial.z) > 0)
    assert partial.z[-1] < exc.z


class TestIntegrate:
    def test_free_riccati(self):
        traj = integrate(GaussianParams(0.0, 0.0, 1j), FreeSpace(), 1.0, dz=1e-3)
        b = traj.samples[-1][1].b
        assert abs(b - 1j / (1 + 1j)) < 1e-10

    def test_stationary_beam(self):
        traj = integrate(STATIONARY, QUAD, 20.0, dz=1e-3, sample_stride=100)
        for _, g in traj.samples:
            assert abs(g.q) < 1e-9
            assert abs(g.norm - 1.0) < 1e-9

    def test_oscillation_and_norm_modulation(self):
        # beam launched deep in the loss region oscillates with period near
        # 2 pi and its norm swings as it crosses loss and gain
        traj = integrate(GaussianParams(-4.0, 0.0, 1j), TANH, 30.0, dz=1e-3, sample_stride=10)
        cols = traj.columns()
        q, z, norm = cols["q"], cols["z"], cols["norm"]
        # dominant period from the spectrum of q(z) (local peak finding is
        # confused by the 2 omega width modulation riding on the oscillation)
        spectrum = np.abs(np.fft.rfft(q - q.mean()))
        freqs = np.fft.rfftfreq(len(q), d=z[1] - z[0])
        dominant_period = 1.0 / freqs[spectrum.argmax()]
        assert abs(dominant_period - 2 * math.pi) < 0.15 * 2 * math.pi
        assert norm.max() > 2.0 and norm.min() < 0.5

    def test_trajectory_invariants(self):
        traj = integrate(GaussianParams(-1.0, 0.0, 0.5j), TANH, 2.0, dz=1e-3, sample_stride=37)
        zs = traj.zs
        assert zs[0] == 0.0
        assert traj.samples[0][1] == GaussianParams(-1.0, 0.0, 0.5j)
        assert np.all(np.diff(zs) > 0)
        assert zs[-1] == pytest.approx(2.0, abs=1e-12)

    def test_hermitian_conservation(self):
        pot = hermitian_variant(TANH)
        g0 = GaussianParams(-4.0, 0.0, 1j)
        traj = integrate(g0, pot, 20.0, dz=1e-3, sample_stride=100)
        e0 = 0.5 * g0.p**2 + pot.sample(g0.q).v_real
        for _, g in traj.samples:
            assert g.norm == 1.0
            e = 0.5 * g.p**2 + pot.sample(g.q).v_real
            assert abs(e - e0) < 1e-8 * abs(e0)

    def test_rk4_convergence_order(self):
        g0 = GaussianParams(-4.0, 0.0, 1j)
        ref = integrate(g0, TANH, 10.0, dz=1e-3, sample_stride=1000).columns()["q"]

        def err(dz):
            t = integrate(g0, TANH, 10.0, dz=dz, sample_stride=round(1.0 / dz))
            return np.abs(t.columns()["q"] - ref).max()

        assert err(8e-3) / err(4e-3) >= 12.0

    def test_exact_on_quadratic(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            g0 = GaussianParams(
                q=rng.uniform(-2, 2),
                p=rng.uniform(-2, 2),
                b=complex(rng.uniform(-1, 1), rng.uniform(0.5, 2)),
            )
            traj = integrate(g0, QUAD, 20.0, dz=1e-3, sample_stride=2000)
            exact = quadratic_trajectory(g0, QUAD, [z for z, _ in traj.samples])
            for (_, got), (_, want) in zip(traj.samples, exact):
                assert abs(got.q - want.q) < 1e-8
                assert abs(got.p - want.p) < 1e-8
                assert abs(got.b - want.b) < 1e-8
                assert abs(got.norm - want.norm) < 1e-7 * want.norm

    def test_width_collapse_aborts_with_z(self):
        class ImaginaryFocusing(Potential):
            # V = i x^2: d2v_imag = 2 shrinks Im B linearly from the start
            def sample(self, q):
                return PotentialSample(0.0, q * q, 0.0, 2 * q, 0.0, 2.0)

        g0 = GaussianParams(0.0, 0.0, 1j)
        with pytest.raises(WidthCollapseError) as err:
            integrate(g0, ImaginaryFocusing(), 2.0, dz=1e-3)
        assert err.value.z is not None
        assert 0.3 < err.value.z < 0.7
        assert_partial_run(err.value, g0)
        assert len(err.value.partial.z) > 100

    def test_non_finite_aborts(self):
        class Broken(Potential):
            def sample(self, q):
                return PotentialSample(0.0, 0.0, math.nan, 0.0, 0.0, 0.0)

        g0 = GaussianParams(0.0, 0.0, 1j)
        with pytest.raises(NumericalAbortError) as err:
            integrate(g0, Broken(), 1.0, dz=1e-3)
        assert err.value.z is not None
        assert_partial_run(err.value, g0)

    def test_strong_gain_uses_log_norm(self):
        # constant gain of 80 per unit length: norm reaches e^160 without overflow
        class FlatGain(Potential):
            def sample(self, q):
                return PotentialSample(0.0, 80.0, 0.0, 0.0, 0.0, 0.0)

        traj = integrate(GaussianParams(0.0, 0.0, 1j), FlatGain(), 2.0, dz=1e-3)
        assert traj.samples[-1][1].norm == pytest.approx(math.exp(160.0), rel=1e-6)


class TestCenterAcceleration:
    def test_stationary(self):
        assert center_acceleration(STATIONARY, QUAD.sample(0.0)) == 0.0

    def test_hermitian(self):
        pot = hermitian_variant(TANH)
        g = GaussianParams(-2.0, 1.0, 0.3 + 0.8j)
        s = pot.sample(g.q)
        assert center_acceleration(g, s) == -s.dv_real

    def test_matches_flow_derivative_of_dq(self):
        # advance the full state by +/- eps along the flow and difference dq
        rng = np.random.default_rng(8)
        eps = 1e-5
        for pot in (QUAD, TANH):
            for _ in range(10):
                g = GaussianParams(
                    q=rng.uniform(-3, 3),
                    p=rng.uniform(-2, 2),
                    b=complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.5)),
                )
                d = rhs(g, pot.sample(g.q))
                plus = GaussianParams(
                    g.q + eps * d.dq, g.p + eps * d.dp, g.b + eps * d.db, g.norm, g.alpha
                )
                minus = GaussianParams(
                    g.q - eps * d.dq, g.p - eps * d.dp, g.b - eps * d.db, g.norm, g.alpha
                )
                fd = (
                    rhs(plus, pot.sample(plus.q)).dq - rhs(minus, pot.sample(minus.q)).dq
                ) / (2 * eps)
                assert center_acceleration(g, pot.sample(g.q)) == pytest.approx(
                    fd, abs=1e-6, rel=1e-6
                )

    def test_matches_trajectory_curvature(self):
        traj = integrate(GaussianParams(-4.0, 0.0, 0.5j), TANH, 5.0, dz=1e-3, sample_stride=1)
        q, z = traj.q, traj.z
        dz = z[1] - z[0]
        for i in range(1, len(q) - 1, 50):
            fd = (q[i + 1] - 2 * q[i] + q[i - 1]) / (dz * dz)
            g = GaussianParams(q[i], traj.p[i], complex(traj.re_b[i], traj.im_b[i]))
            assert center_acceleration(g, TANH.sample(g.q)) == pytest.approx(fd, abs=1e-4)


class TestReconstruct:
    def test_normalized(self):
        grid = GridSpec(8.0, 1024)
        state = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), grid)
        norm = math.sqrt(float(np.sum(np.abs(state.amplitudes) ** 2) * grid.spacing))
        assert abs(norm - 1.0) <= 1e-8

    def test_moments(self):
        grid = GridSpec(12.0, 1024)
        state = reconstruct_wavefunction(GaussianParams(2.0, 0.5, 1j), grid)
        obs = observables(state)
        assert obs.mean_q == pytest.approx(2.0, abs=1e-10)
        assert obs.mean_p == pytest.approx(0.5, abs=1e-8)
        assert obs.delta_q == pytest.approx(1 / math.sqrt(2), abs=1e-8)

    def test_norm_and_phase_scaling(self):
        grid = GridSpec(8.0, 512)
        a = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j, norm=3.0), grid)
        b = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j, norm=1.0), grid)
        assert np.allclose(a.amplitudes, 3.0 * b.amplitudes)
        c = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j, alpha=0.7), grid)
        assert np.allclose(c.amplitudes, np.exp(0.7j) * b.amplitudes)

    def test_grid_follows_ansatz_at_small_hbar(self):
        # width, phase and the phase equation's -hbar Im B / 2 all carry hbar
        constants = PhysicalConstants(hbar=0.5)
        spec = GridSpec(10.0, 1024)
        g0 = GaussianParams(1.0, 0.3, 0.2 + 1j)
        g = integrate(g0, QUAD_SMALL_GAIN, 2.0, dz=1e-3, constants=constants).samples[-1][1]
        state = propagate(
            reconstruct_wavefunction(g0, spec, constants=constants),
            QUAD_SMALL_GAIN, 2.0, dz=1e-3, sample_stride=2000, constants=constants,
        ).final
        ref = reconstruct_wavefunction(g, spec, constants=constants).amplitudes
        assert np.linalg.norm(state.amplitudes - ref) <= 1e-6 * np.linalg.norm(ref)
        _, exact = quadratic_trajectory(g0, QUAD_SMALL_GAIN, [2.0], hbar=0.5).samples[-1]
        assert abs(exact.alpha - g.alpha) < 1e-9

    def test_narrow_grid_warns(self):
        grid = GridSpec(8.0, 512)
        with pytest.warns(NarrowGridWarning):
            reconstruct_wavefunction(GaussianParams(6.0, 0.0, 0.1j), grid)
