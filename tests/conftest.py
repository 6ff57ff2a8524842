import dataclasses
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

import resokit as rk
from resokit import fitting


def draw_notch_params(rng, q_in_range=(1e3, 1e5), q_e_range=(6e3, 9e3),
                      phi_range=(-0.3, 0.3), tau_range=(0.0, 60e-9)):
    """One random physical notch configuration."""
    q_in = 10 ** rng.uniform(np.log10(q_in_range[0]), np.log10(q_in_range[1]))
    q_e = rng.uniform(*q_e_range)
    phi = rng.uniform(*phi_range)
    q_l = 1.0 / (1.0 / q_in + math.cos(phi) / q_e)
    return rk.NotchParams(
        f_r=rng.uniform(6e9, 14e9), q_loaded=q_l, q_ext_mag=q_e,
        mismatch_phi=phi, env_gain=rng.uniform(0.5, 2.0),
        env_phase=rng.uniform(-3.0, 3.0),
        cable_delay=rng.uniform(*tau_range)), q_in


def central_differences(residual, scale=1.0):
    """A Jacobian p -> J by fitting.numeric_jacobian, stepped in units
    of scale: max(|p / scale|, 1) * JACOBIAN_STEP_REL of them."""
    unit = np.asarray(scale, dtype=float)
    return lambda p: fitting.numeric_jacobian(
        lambda x: residual(x * unit), p / unit) / unit


def drop_exact_jacobians(monkeypatch):
    """Make every nonlinear_ls call differentiate by central differences."""
    solve = fitting.nonlinear_ls
    monkeypatch.setattr(fitting, "nonlinear_ls", lambda problem: solve(
        dataclasses.replace(problem, normal_equations=fitting.from_jacobian(
            central_differences(problem.residual, problem.scale)))))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
