import numpy as np
import pytest

from gainbeam.potentials import (
    FreeSpace,
    PhysicalConstants,
    Potential,
    PtTanhGaussian,
    QuadraticLinear,
    hermitian_variant,
)

TANH = PtTanhGaussian(gamma=1.0, omega=1.0, eta=10.0)
QUAD = QuadraticLinear(omega=1.0, gamma=1.0)


def fields(s):
    return (s.v_real, s.v_imag, s.dv_real, s.dv_imag, s.d2v_real, s.d2v_imag)


class TestSamples:
    def test_tanh_gaussian_at_origin(self):
        s = TANH.sample(0.0)
        assert fields(s) == (-100.0, 0.0, 0.0, 1.0, 1.0, 0.0)

    def test_quadratic_linear_values(self):
        assert fields(QUAD.sample(2.0)) == (2.0, 2.0, 2.0, 1.0, 1.0, 0.0)
        s = QUAD.sample(-4.0)
        assert (s.v_real, s.v_imag) == (8.0, -4.0)

    def test_pure_harmonic(self):
        s = QuadraticLinear(omega=2.0, gamma=0.0).sample(1.5)
        assert s.v_imag == 0.0 and s.dv_imag == 0.0
        assert s.v_real == pytest.approx(0.5 * 4.0 * 1.5**2)

    def test_quadratic_gradient(self):
        pot = QuadraticLinear(omega=1.7, gamma=0.3)
        for x in (-5.0, -0.3, 0.0, 2.2, 9.0):
            assert pot.sample(x).dv_real == pytest.approx(1.7**2 * x)
            assert pot.sample(x).dv_imag == 0.3
            assert pot.sample(x).d2v_imag == 0.0

    def test_tanh_depth_independent_of_gain(self):
        for gamma in (0.0, 1.0, -2.5):
            for omega in (0.5, 1.0, 2.0):
                pot = PtTanhGaussian(gamma=gamma, omega=omega, eta=7.0)
                assert pot.sample(0.0).v_real == -49.0

    def test_harmonic_curvature_at_origin(self):
        # curvature of the real part at the origin is omega^2, whatever eta
        for eta in (1.0, 5.0, 10.0, 50.0):
            pot = PtTanhGaussian(gamma=1.0, omega=1.3, eta=eta)
            assert pot.sample(0.0).d2v_real == 1.3 * 1.3

    def test_pt_symmetry(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-30, 30, 50):
            plus, minus = TANH.sample(x), TANH.sample(-x)
            assert plus.v_real == pytest.approx(minus.v_real, abs=1e-13, rel=1e-13)
            assert plus.v_imag == pytest.approx(-minus.v_imag, abs=1e-13, rel=1e-13)

    @pytest.mark.parametrize("pot", [PtTanhGaussian(gamma=1.0, omega=1.0, eta=1e-154),
                                     PtTanhGaussian(gamma=1.0, omega=1e154, eta=5.0)],
                             ids=["eta-1e-154", "omega-1e154"])
    def test_underflowed_envelope_gives_finite_fields(self, pot):
        # the envelope underflows away from x = 0, where inf * 0 made NaN
        # derivatives; there they are 0, and V keeps its value
        xs = np.linspace(-20.0, 20.0, 256, endpoint=False)
        with np.errstate(over="ignore"):
            values = pot.value(xs)
        for x, v in zip(xs, values):
            s = pot.sample(float(x))
            assert np.all(np.isfinite(fields(s)))
            assert complex(s.v_real, s.v_imag) == pytest.approx(v, rel=1e-12, abs=1e-300)
            if x:
                assert fields(s)[2:] == (0.0,) * 4
        s = pot.sample(0.0)
        # the curvature of V_R at 0 is omega^2, the slope of V_I gamma
        assert (s.dv_real, s.dv_imag, s.d2v_real, s.d2v_imag) == (0.0, 1.0, pot.omega**2, 0.0)

    def test_free_space(self):
        assert fields(FreeSpace().sample(3.0)) == (0.0,) * 6

    def test_base_class_has_no_default_value(self):
        # a potential that reaches the grid must say how to evaluate itself there
        with pytest.raises(NotImplementedError):
            Potential().value(np.zeros(4))

    def test_value_matches_sample(self):
        xs = np.linspace(-25, 25, 11)
        for pot in (TANH, QUAD, FreeSpace(), hermitian_variant(TANH)):
            v = pot.value(xs)
            for x, vx in zip(xs, v):
                s = pot.sample(float(x))
                assert vx == pytest.approx(complex(s.v_real, s.v_imag), abs=1e-12)


class TestDerivativeConsistency:
    # first derivatives against central differences (step 1e-5),
    # second derivatives with a wider step to dodge cancellation noise
    @pytest.mark.parametrize(
        "pot,span",
        [(TANH, 30.0), (PtTanhGaussian(gamma=2.0, omega=0.7, eta=5.0), 15.0), (QUAD, 10.0)],
    )
    def test_finite_difference(self, pot, span):
        rng = np.random.default_rng(5)
        h1, h2 = 1e-5, 1e-4
        for x in rng.uniform(-span, span, 100):
            s = pot.sample(x)
            sp, sm = pot.sample(x + h1), pot.sample(x - h1)
            for got, a, b in (
                (s.dv_real, sp.v_real, sm.v_real),
                (s.dv_imag, sp.v_imag, sm.v_imag),
            ):
                fd = (a - b) / (2 * h1)
                assert got == pytest.approx(fd, rel=1e-6, abs=1e-6)
            sp2, sm2 = pot.sample(x + h2), pot.sample(x - h2)
            for got, a, mid, b in (
                (s.d2v_real, sp2.v_real, s.v_real, sm2.v_real),
                (s.d2v_imag, sp2.v_imag, s.v_imag, sm2.v_imag),
            ):
                fd = (a - 2 * mid + b) / (h2 * h2)
                assert got == pytest.approx(fd, rel=1e-4, abs=1e-4)


class TestHermitianVariant:
    def test_zeroed_imaginary_part(self):
        herm = hermitian_variant(PtTanhGaussian(gamma=1.0, omega=1.0, eta=10.0))
        s = herm.sample(3.0)
        assert s.v_imag == 0.0 and s.dv_imag == 0.0 and s.d2v_imag == 0.0
        assert s.v_real == TANH.sample(3.0).v_real

    def test_matches_zero_gamma(self):
        herm = hermitian_variant(QUAD)
        bare = QuadraticLinear(omega=1.0, gamma=0.0)
        for x in (-4.0, 0.0, 1.3):
            assert fields(herm.sample(x)) == fields(bare.sample(x))
        herm_t = hermitian_variant(TANH)
        bare_t = PtTanhGaussian(gamma=0.0, omega=1.0, eta=10.0)
        for x in (-12.0, 0.5, 7.0):
            assert fields(herm_t.sample(x)) == pytest.approx(fields(bare_t.sample(x)))

    def test_sets_gamma_to_zero(self):
        assert hermitian_variant(QuadraticLinear(1, 1)) == QuadraticLinear(1, 0)

    def test_potential_without_gamma_returned_as_is(self):
        free = FreeSpace()
        assert hermitian_variant(free) is free

    def test_idempotent(self):
        once = hermitian_variant(TANH)
        twice = hermitian_variant(once)
        assert twice is once


class TestValidation:
    def test_parameter_invariants(self):
        with pytest.raises(ValueError):
            PtTanhGaussian(gamma=1.0, omega=1.0, eta=0.0)
        with pytest.raises(ValueError):
            PtTanhGaussian(gamma=1.0, omega=-1.0, eta=5.0)
        with pytest.raises(ValueError):
            QuadraticLinear(omega=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=0.0)
        with pytest.raises(ValueError):
            PhysicalConstants(n_zero=-1.0)
