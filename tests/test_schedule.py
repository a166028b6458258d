import numpy as np
import pytest

from gainbeam.config import GaussianSettings, GridSettings, InitialBeam, ScenarioConfig
from gainbeam.grid import schedule
from gainbeam.harness import run_scenario


def test_schedule_ends_on_z_max():
    n_steps, dz_eff, steps = schedule(1.0, 0.3, 2)
    assert (n_steps, dz_eff) == (3, 1.0 / 3)
    assert steps == [0, 2, 3]
    assert schedule(1e-4, 1.0, 5)[2] == [0, 1]


@pytest.mark.parametrize("z_max, dz, stride", [(0.0, 1e-3, 1), (1.0, 0.0, 1), (1.0, 1e-3, 0)])
def test_schedule_rejects_bad_arguments(z_max, dz, stride):
    with pytest.raises(ValueError):
        schedule(z_max, dz, stride)


def test_propagators_with_different_steps_share_exact_samples():
    # gaussian samples every 0.04, grid every 0.1: they meet every 0.2
    config = ScenarioConfig(
        name="pairing",
        potential={"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0},
        initial=InitialBeam(q0=0.5, p0=0.0, b0=0.5j),
        propagators=("gaussian", "grid"),
        z_max=1.0,
        gaussian=GaussianSettings(dz=1e-3),
        grid=GridSettings(half_width=8.0, n_points=256, dz=2.5e-3),
        sample_stride=40,
    )
    report = run_scenario(config).reports[("gaussian", "grid")]
    assert np.allclose(report.samples[:, 0], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], rtol=0, atol=1e-15)
    assert report.sup_q_error < 1e-4
