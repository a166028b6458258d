import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainbeam.dynamics import GaussianParams, integrate, reconstruct_wavefunction
from gainbeam.grid import GridSpec, propagate
from gainbeam.potentials import (
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
        # a potential that reaches a propagator must say how to evaluate itself there;
        # the default sampler is sample itself, so it raises the same and never recurses
        for read in (lambda p: p.value(np.zeros(4)), lambda p: p.sample(0.0),
                     lambda p: p.sampler()(0.0)):
            with pytest.raises(NotImplementedError):
                read(Potential())

    def test_value_matches_sample(self):
        xs = np.linspace(-25, 25, 11)
        for pot in (TANH, QUAD, FreeSpace(), hermitian_variant(TANH)):
            v = pot.value(xs)
            for x, vx in zip(xs, v):
                s = pot.sample(float(x))
                assert vx == pytest.approx(complex(s.v_real, s.v_imag), abs=1e-12)


KINDS = st.one_of(
    st.builds(PtTanhGaussian, gamma=st.floats(-3.0, 3.0), omega=st.floats(0.1, 10.0),
              eta=st.floats(0.1, 100.0)),
    st.builds(QuadraticLinear, omega=st.floats(0.1, 10.0), gamma=st.floats(-3.0, 3.0)),
    st.just(FreeSpace()),
)
# q = 0 and -0 take the curvature term's q == 0 branch, and ±1e300 underflow
# the tanh envelope for every omega and eta drawn
POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, 1e3, -1e3, 1e300, -1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# at q = NaN the fields of a kind that depend on q, its first N, are NaN
NAN_FIELDS = {PtTanhGaussian: 6, QuadraticLinear: 3, FreeSpace: 0}


def written_out(pot, q):
    """The six fields as each kind's formula reads with its attributes inline: the
    reference that binding the constants into a closure must match bit for bit."""
    if isinstance(pot, FreeSpace):
        return (0.0,) * 6
    w2 = pot.omega * pot.omega
    if isinstance(pot, QuadraticLinear):
        return (0.5 * w2 * q * q, pot.gamma * q, w2 * q, pot.gamma, w2, 0.0)
    eta = pot.eta
    e = math.exp(-w2 * q * q / (2.0 * eta * eta))
    g = eta * eta * e
    t = math.tanh(q / eta)
    c = pot.gamma / eta
    if e == 0.0:
        return (-g, c * t * g, 0.0, 0.0, 0.0, 0.0)
    dg = -w2 * q * e
    d2g = (-w2 + (w2 * w2 * q * q / (eta * eta) if q else 0.0)) * e
    sech2 = 1.0 - t * t
    dt = sech2 / eta
    d2t = -2.0 * t * sech2 / (eta * eta)
    return (-g, c * t * g, -dg, c * (dt * g + t * dg), -d2g,
            c * (d2t * g + 2.0 * dt * dg + t * d2g))


class TestSampler:
    @settings(max_examples=300, deadline=None)
    @given(pot=KINDS, hermitian=st.booleans(), q=POINTS)
    @example(pot=TANH, hermitian=False, q=1e3)
    def test_sampler_is_sample_bit_for_bit(self, pot, hermitian, q):
        if hermitian:
            pot = hermitian_variant(pot)
        got, want = pot.sampler()(q), pot.sample(q)
        assert type(got) is tuple and type(want) is PotentialSample
        assert struct.pack("6d", *got) == struct.pack("6d", *want)
        assert struct.pack("6d", *got) == struct.pack("6d", *written_out(pot, q))
        if isinstance(pot, PtTanhGaussian) and abs(q) * pot.omega / pot.eta >= 40.0:
            # exp(-800) underflows, and the underflowed envelope zeroes every derivative
            assert got[2:] == (0.0,) * 4
        if math.isnan(q):
            n = NAN_FIELDS[type(pot)]
            assert all(math.isnan(v) for v in got[:n])
            assert not any(math.isnan(v) for v in got[n:])

    @pytest.mark.parametrize("pot", [TANH, QUAD, FreeSpace()], ids=lambda p: type(p).__name__)
    def test_value_semantics_ignore_the_bound_sampler(self, pot):
        twin = dataclasses.replace(pot)
        assert twin == pot and hash(twin) == hash(pot) and repr(twin) == repr(pot)
        copied = pickle.loads(pickle.dumps(pot))
        assert copied == pot and copied.sample(1.5) == pot.sample(1.5)
        if isinstance(pot, QuadraticLinear):
            assert dataclasses.replace(pot, gamma=2.0).sample(1.5).v_imag == 3.0

    def test_propagators_take_one_sampler_per_call(self):
        class Tally(Potential):
            def __init__(self, inner):
                self.inner, self.taken = inner, 0

            def sample(self, q):
                return self.inner.sample(q)

            def sampler(self):
                self.taken += 1
                return self.inner.sampler()

            def value(self, x):
                return self.inner.value(x)

        pot = Tally(TANH)
        integrate(GaussianParams(0.5, 0.0, 1j), pot, z_max=0.1, dz=1e-2)
        assert pot.taken == 1
        state = reconstruct_wavefunction(GaussianParams(0.0, 0.0, 1j), GridSpec(8.0, 256))
        propagate(state, pot, z_max=0.1, dz=1e-2)
        assert pot.taken == 2


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
