"""Error references, computed without the code under test.

Everything here uses only NumPy and SciPy: the potentials are written out
again from their defining formulas, the Gaussian parameter ODE is solved
with SciPy's DOP853 at tight tolerance, and the paraxial equation is
stepped with a sixth-order (Yoshida 1990, solution A) composition of
Strang steps on the same periodic grid. Nothing here imports
``gainbeam``, so a defect in a propagator cannot hide by also shifting
its reference.

References are cached per input under ``bench/.cache``; the key hashes
the generated inputs together with ``REFERENCE_VERSION``.
"""

import hashlib
import json
import math
import os

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_VERSION = 2

# DOP853 tolerances for the Gaussian parameter ODE
ODE_RTOL = 1e-13
ODE_ATOL = 1e-13

# Yoshida's sixth-order composition (1990, solution A): seven Strang
# steps with these weights make one step. It is neither the Strang step
# the program uses nor the fourth-order triple jump it may adopt. At
# GRID_REF_STEP it is converged to round-off on the generated inputs:
# halving the step moves it by <= 6e-11 at z=30 (<= 1e-12 at z=3), where
# the program's Strang error at dz=1e-3 is ~1e-6 (~1e-7), and a
# fourth-order triple jump at h=2.5e-4 agrees with it to 2e-10, that
# run's own round-off. test_grid_reference_is_converged checks this.
_Y6 = (0.784513610477560, 0.235573213359357, -1.17767998417887)
GRID_REF_WEIGHTS = (*_Y6, 1.0 - 2.0 * sum(_Y6), *reversed(_Y6))
# largest reference step
GRID_REF_STEP = 0.005

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")


def potential_derivatives(spec: dict, q: float):
    """(V_R, V_I, V_R', V_I', V_R'', V_I'') of a potential spec at q."""
    kind = spec["kind"]
    if kind == "quadratic_linear":
        w2 = spec["omega"] ** 2
        gamma = 0.0 if spec.get("hermitian") else spec["gamma"]
        return 0.5 * w2 * q * q, gamma * q, w2 * q, gamma, w2, 0.0
    if kind == "pt_tanh_gaussian":
        eta, w2 = spec["eta"], spec["omega"] ** 2
        c = 0.0 if spec.get("hermitian") else spec["gamma"] / eta
        # V = -g + i c t g with g = eta^2 exp(-w2 q^2 / (2 eta^2)), t = tanh(q / eta)
        e = math.exp(-w2 * q * q / (2.0 * eta * eta))
        g = eta * eta * e
        g1 = -w2 * q * e
        g2 = (w2 * w2 * q * q / (eta * eta) - w2) * e
        t = math.tanh(q / eta)
        t1 = (1.0 - t * t) / eta
        t2 = -2.0 * t * t1 / eta
        return -g, c * t * g, -g1, c * (t1 * g + t * g1), -g2, c * (t2 * g + 2.0 * t1 * g1 + t * g2)
    raise ValueError(f"no reference for potential kind {kind!r}")


def potential_on_grid(spec: dict, x: np.ndarray) -> np.ndarray:
    kind = spec["kind"]
    gain = 0.0 if spec.get("hermitian") else 1.0
    if kind == "quadratic_linear":
        return 0.5 * spec["omega"] ** 2 * x * x + 1j * gain * spec["gamma"] * x
    if kind == "pt_tanh_gaussian":
        eta = spec["eta"]
        g = eta * eta * np.exp(-(spec["omega"] ** 2) * x * x / (2.0 * eta * eta))
        return -g + 1j * gain * (spec["gamma"] / eta) * np.tanh(x / eta) * g
    raise ValueError(f"no reference for potential kind {kind!r}")


def gaussian_reference(spec: dict, initial: dict, z_samples) -> dict:
    """DOP853 solution of the Gaussian parameter ODE at the given z values.

    Returns arrays q, p, re_b, im_b, norm and alpha (norm relative to 1).
    """
    def rhs(_z, y):
        q, p, br, bi, _ln, _al = y
        vr, vi, dvr, dvi, d2vr, d2vi = potential_derivatives(spec, q)
        dq = p + dvi / bi
        return (
            dq,
            -dvr + (br / bi) * dvi,
            bi * bi - br * br - d2vr,
            -2.0 * br * bi - d2vi,
            vi + d2vi / (4.0 * bi),
            p * dq - 0.5 * p * p - vr - 0.5 * bi,
        )

    z = np.asarray(z_samples, dtype=float)
    b0 = initial["b0"]
    y0 = [initial["q0"], initial["p0"], b0[0], b0[1], 0.0, initial.get("alpha0", 0.0)]
    sol = solve_ivp(
        rhs, (0.0, float(z[-1])), y0, method="DOP853",
        t_eval=z, rtol=ODE_RTOL, atol=ODE_ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    q, p, br, bi, ln, al = sol.y
    return {"z": z, "q": q, "p": p, "re_b": br, "im_b": bi,
            "norm": initial.get("norm0", 1.0) * np.exp(ln), "alpha": al}


def grid_fields(spec: dict, initial: dict, half_width: float, n_points: int,
                z_max: float, n_samples: int, max_step: float = GRID_REF_STEP):
    """Sixth-order split-step fields at n_samples + 1 equally spaced z values.

    Yields one complex field per sample, starting with the initial beam.
    """
    dx = 2.0 * half_width / n_points
    x = -half_width + dx * np.arange(n_points)
    k = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    v = potential_on_grid(spec, x)
    b = complex(*initial["b0"])
    u = x - initial["q0"]
    psi = (initial.get("norm0", 1.0) * (b.imag / math.pi) ** 0.25
           * np.exp(1j * (0.5 * b * u * u + initial["p0"] * u + initial.get("alpha0", 0.0))))
    steps_per_sample = math.ceil(z_max / n_samples / max_step)
    h = z_max / n_samples / steps_per_sample
    stages = [(np.exp(-0.5j * w * h * v), np.exp(-0.5j * w * h * k * k)) for w in GRID_REF_WEIGHTS]
    yield x, psi
    for _ in range(n_samples):
        for _ in range(steps_per_sample):
            for half_v, kinetic in stages:
                psi = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * psi))
        yield x, psi


def field_observables(x: np.ndarray, psi: np.ndarray):
    """(norm, mean_q, renormalized intensity) of one field."""
    dx = x[1] - x[0]
    density = np.abs(psi) ** 2
    mass = density.sum() * dx
    return math.sqrt(mass), float((x * density).sum() * dx / mass), density / mass


def grid_reference(spec: dict, initial: dict, half_width: float, n_points: int,
                   z_max: float, n_samples: int, max_step: float = GRID_REF_STEP) -> dict:
    norms, centers, intensity = [], [], []
    for x, psi in grid_fields(spec, initial, half_width, n_points, z_max, n_samples, max_step):
        norm, mean_q, dens = field_observables(x, psi)
        norms.append(norm)
        centers.append(mean_q)
        intensity.append(dens)
    return {
        "z": np.linspace(0.0, z_max, n_samples + 1),
        "x": x,
        "norm": np.array(norms),
        "mean_q": np.array(centers),
        "intensity": np.array(intensity),
    }


def cached(kind: str, inputs: dict, compute) -> str:
    """Path of the cached reference for ``inputs``, computing it once."""
    key = json.dumps({"kind": kind, "inputs": inputs, "version": REFERENCE_VERSION,
                      "ode": [ODE_RTOL, ODE_ATOL], "grid": [GRID_REF_STEP, GRID_REF_WEIGHTS]},
                     sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    path = os.path.join(CACHE_DIR, f"{kind}-{digest}.npz")
    if not os.path.exists(path):
        ref = compute()
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = path + ".tmp.npz"
        np.savez(tmp, **ref)
        os.replace(tmp, path)
    return path
