"""Built-in scenario library.

Names follow the figure layout of the accompanying study: fig2a-fig2d
sweep the potential scale eta with the beam center off axis, fig4/fig5
compare propagation with and without gain-loss for two widths, fig6 shows
the width-dependent fate of beams launched with the stationary momentum,
and fig7 replays fig6/fig4 initial conditions on the locally quadratic
potential (where the closed-form oracle applies).

The caption value B0 = i is used for the fig2 family; "-alt" variants
with B0 = i/2 are included because the narrower width shows a stronger
width contribution.
"""

from .config import InitialBeam, ScenarioConfig

__all__ = ["scenario_library"]


def _tanh_potential(eta, gamma=1.0, omega=1.0, hermitian=False):
    return {
        "kind": "pt_tanh_gaussian",
        "gamma": gamma,
        "omega": omega,
        "eta": eta,
        "hermitian": hermitian,
    }


def _quadratic_potential(omega=1.0, gamma=1.0):
    return {"kind": "quadratic_linear", "omega": omega, "gamma": gamma, "hermitian": False}


def _scenario(name, potential, q0, p0, b0, **settings):
    # every other setting keeps the ScenarioConfig default: z_max = 30,
    # dz = 1e-3 for both propagators, 4096 grid points on the potential's
    # default half width, one sample per 100 steps
    return ScenarioConfig(
        name=name, potential=potential, initial=InitialBeam(q0=q0, p0=p0, b0=b0), **settings
    )


def scenario_library() -> dict:
    """Named built-in scenarios, ready to run or to use as templates."""
    lib = {}

    # eta sweep: same q0/eta for the first three, then large eta with small q0
    for name, eta, q0 in (
        ("fig2a", 5.0, 1.0),
        ("fig2b", 10.0, 2.0),
        ("fig2c", 15.0, 3.0),
        ("fig2d", 15.0, 1.0),
    ):
        lib[name] = _scenario(name, _tanh_potential(eta), q0=q0, p0=0.0, b0=1j)
        alt = f"{name}-alt"
        lib[alt] = _scenario(alt, _tanh_potential(eta), q0=q0, p0=0.0, b0=0.5j)

    # with and without gain-loss: fig4 at a large displacement into the
    # loss region, fig5 closer to the gain-loss slope
    for family, q0 in (("fig4", -4.0), ("fig5", -1.0)):
        for name, b0 in ((f"{family}-top", 1j), (f"{family}-bottom", 0.5j)):
            for suffix, hermitian in (("", False), ("-hermitian", True)):
                potential = _tanh_potential(10.0, hermitian=hermitian)
                lib[name + suffix] = _scenario(name + suffix, potential, q0=q0, p0=0.0, b0=b0)

    # width-dependent fate of beams launched with the stationary momentum
    for name, b0 in (("fig6-top", 0.5j), ("fig6-mid", 1j), ("fig6-bottom", 2j)):
        lib[name] = _scenario(name, _tanh_potential(10.0), q0=0.0, p0=-1.0, b0=b0)

    # fig6 / fig4-top initial conditions on the locally quadratic potential.
    # No grid propagator here: a linear gain slope on a periodic domain feeds
    # exponentially growing edge modes over long distances (see README,
    # "Numerical notes"), and the reference figures use the parameter
    # dynamics only for this potential.
    for name, q0, p0, b0 in (
        ("fig7-top", 0.0, -1.0, 0.5j),
        ("fig7-mid", 0.0, -1.0, 2j),
        ("fig7-bottom", -4.0, 0.0, 1j),
    ):
        lib[name] = _scenario(
            name,
            _quadratic_potential(),
            q0=q0,
            p0=p0,
            b0=b0,
            propagators=("gaussian", "oracle"),
        )
    return lib
