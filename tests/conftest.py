import numpy as np
import pytest

from handsoff.model import Ball, Box, PiecewiseConstantControl, Problem
from handsoff.problems import (
    example_1,
    example_1_reference_control,
    example_2,
    example_2_reference_control,
)


@pytest.fixture
def ex1() -> Problem:
    return example_1()


@pytest.fixture
def ex2() -> Problem:
    return example_2()


@pytest.fixture(scope="session")
def ex1_synth():
    from handsoff.synth import synth_l0

    return synth_l0(example_1())


@pytest.fixture(scope="session")
def ex2_synth():
    from handsoff.synth import synth_l0

    return synth_l0(example_2())


@pytest.fixture
def ex1_control() -> PiecewiseConstantControl:
    return example_1_reference_control()


@pytest.fixture
def ex2_control() -> PiecewiseConstantControl:
    return example_2_reference_control()


def d3_plant(seed: int = 0) -> Problem:
    """The ROADMAP d=3 plant; another seed perturbs every entry of F, G
    and A by at most 0.01, like the benchmark's sparse_d3 family."""
    rng = np.random.default_rng(0)
    f = rng.uniform(-1, 1, (3, 3)) - 1.5 * np.eye(3)
    g = rng.uniform(-1, 1, (3, 1))
    a = rng.uniform(-1, 1, 3)
    if seed:
        spread = np.random.default_rng([seed, 3])
        f = f + spread.uniform(-0.01, 0.01, f.shape)
        g = g + spread.uniform(-0.01, 0.01, g.shape)
        a = a + spread.uniform(-0.01, 0.01, a.shape)
    return Problem(F=f, G=g, a=0, b=6, A=a, B=np.zeros(3), U=Box([-1.0], [1.0]))


def ball_plant() -> Problem:
    """The ROADMAP d=3 ball plant: the d=3 plant's F, then G (3, 2) and A."""
    rng = np.random.default_rng(0)
    f = rng.uniform(-1, 1, (3, 3)) - 1.5 * np.eye(3)
    g = rng.uniform(-1, 1, (3, 2))
    return Problem(F=f, G=g, a=0, b=6, A=rng.uniform(-1, 1, 3), B=np.zeros(3), U=Ball(1.0))


def pendulum_phi(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The forced pendulum zdot = (z_2, -sin z_1 + u) at stacked points."""
    return np.stack([z[..., 1], -np.sin(z[..., 0]) + u[..., 0]], axis=-1)


def pendulum_jac(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d(pendulum_phi)/dz at stacked points."""
    jac = np.zeros(np.shape(z) + (2,))
    jac[..., 0, 1] = 1.0
    jac[..., 1, 0] = -np.cos(z[..., 0])
    return jac


def random_problem(rng: np.random.Generator, d: int = 2, m: int = 1, stable: bool = True) -> Problem:
    """Random LTI steering task with a unit box input set."""
    f = rng.uniform(-1.0, 1.0, (d, d))
    if stable:
        f = f - (np.abs(np.linalg.eigvals(f).real).max() + 0.2) * np.eye(d)
    g = rng.uniform(-1.0, 1.0, (d, m))
    return Problem(
        F=f,
        G=g,
        a=0.0,
        b=float(rng.uniform(2.0, 6.0)),
        A=rng.uniform(-2.0, 2.0, d),
        B=rng.uniform(-2.0, 2.0, d),
        U=Box(-np.ones(m), np.ones(m)),
    )


def random_control(
    rng: np.random.Generator, a: float, b: float, m: int = 1, max_segments: int = 6
) -> PiecewiseConstantControl:
    """Random piecewise-constant control with some exactly-zero segments."""
    k = int(rng.integers(1, max_segments + 1))
    interior = np.sort(rng.uniform(a, b, k - 1))
    breakpoints = np.concatenate([[a], interior, [b]])
    breakpoints = np.unique(breakpoints)
    values = rng.uniform(-1.0, 1.0, (breakpoints.size - 1, m))
    off = rng.random(breakpoints.size - 1) < 0.4
    values[off] = 0.0
    return PiecewiseConstantControl(breakpoints, values)
