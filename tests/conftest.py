from pathlib import Path

import numpy as np
import pytest

from koopsyn import bounds, cli, controller, edmd, lmi, plants, sdp, uncertainty
from koopsyn.lifting import make_lifting, poly, sine

EXACT_A = np.array([[-2.0, 0.0, 0.0], [0.0, -4.0, 5.0], [0.0, 0.0, 1.0]])
EXACT_B0 = np.array([[0.0], [1.0], [1.0]])


@pytest.fixture(scope="session")
def figures_dir(tmp_path_factory):
    """Every ``reproduce`` output; fig2, fig3_ball, fig4_thm1 and fig5_thm1
    are the designs of the four built-in examples."""
    out = tmp_path_factory.mktemp("figures")
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
        rc = cli.cmd_reproduce(fig, out)
        assert rc == 0
    return Path(out)


@pytest.fixture(scope="session")
def lifting_cooked():
    return make_lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))])])


@pytest.fixture(scope="session")
def lifting_cooked_xy():
    return make_lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))]),
                            poly([(1.0, (1, 1))])])


@pytest.fixture(scope="session")
def lifting_pendulum():
    return make_lifting(2, [sine(0)])


@pytest.fixture(scope="session")
def plant_cooked():
    return plants.make_example("cooked_up")


@pytest.fixture(scope="session")
def plant_pendulum():
    return plants.make_example("pendulum")


@pytest.fixture(scope="session")
def d0_cooked(plant_cooked, lifting_cooked):
    """The default grid and the default Monte-Carlo d0 of the planar
    example, (grid, mc), at c_r = 0.1 and delta = 0.05."""
    grid = bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 0.05)
    mc = bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 0.05,
                           bounds.QuadratureSpec(method="mc"))
    return grid, mc


@pytest.fixture(scope="session")
def surrogate_exact(lifting_cooked):
    """Analytic lifted model of the planar example (zero bilinear channel)."""
    return edmd.Surrogate(A=EXACT_A, B0=EXACT_B0, B=(np.zeros((3, 3)),),
                          c_r=0.1, delta=0.05, lifting=lifting_cooked)


@pytest.fixture(scope="session")
def surrogate_fitted(plant_cooked, lifting_cooked):
    samples = plants.collect_samples(plant_cooked, 5000, seed=7)
    data = edmd.build_data_matrices(lifting_cooked, samples)
    surrogate, report = edmd.fit(data, lifting=lifting_cooked, c_r=0.1, delta=0.05)
    return surrogate


@pytest.fixture(scope="session")
def region_cooked():
    return uncertainty.identity_region(3, 500.0)


def solve_design(surrogate, region, theorem, maximize_roa=True, options=None):
    build = lmi.build_theorem1 if theorem == 1 else lmi.build_theorem2
    problem = build(surrogate, region)
    if maximize_roa:
        problem = lmi.add_roa_objective(problem)
    assignment, report = sdp.solve_problem(problem, options)
    if report.status != "feasible":
        raise RuntimeError(f"fixture design infeasible: {report.status}")
    check = sdp.verify(problem, assignment)
    if not check.ok:
        raise RuntimeError("fixture design failed verification")
    design = controller.DesignResult.from_assignment(theorem, assignment,
                                                     margins=check.margins)
    return design, problem, assignment


@pytest.fixture(scope="session")
def design_cooked(surrogate_fitted, region_cooked):
    design, _, _ = solve_design(surrogate_fitted, region_cooked, theorem=1)
    return design


@pytest.fixture(scope="session")
def surrogate_pendulum(plant_pendulum, lifting_pendulum):
    samples = plants.collect_samples(plant_pendulum, 15000, seed=7)
    data = edmd.build_data_matrices(lifting_pendulum, samples)
    surrogate, _ = edmd.fit(data, lifting=lifting_pendulum, c_r=0.02, delta=0.05)
    return surrogate


@pytest.fixture(scope="session")
def region_pendulum_shaped(surrogate_pendulum):
    region, log = uncertainty.procedure1_qz(surrogate_pendulum, theorem=2,
                                            rz=5.0, rz_step1=12.0)
    return region, log


@pytest.fixture(scope="session")
def design_pendulum_shaped(surrogate_pendulum, region_pendulum_shaped):
    region, _ = region_pendulum_shaped
    design, _, _ = solve_design(surrogate_pendulum, region, theorem=1)
    return design


@pytest.fixture(scope="session")
def design_pendulum_shaped_thm2(surrogate_pendulum, region_pendulum_shaped):
    region, _ = region_pendulum_shaped
    design, _, _ = solve_design(surrogate_pendulum, region, theorem=2)
    return design


def sample_roa_starts(design, lifting, n, seed, v_cap=0.99):
    """Rejection-sample states with certificate value below v_cap."""
    rng = np.random.default_rng(seed)
    boundary = controller.roa_boundary_2d(design, lifting, resolution=90)
    rmax = float(np.max(boundary.radii))
    starts = []
    while len(starts) < n:
        x = rng.uniform(-rmax, rmax, size=lifting.n)
        if controller.roa_membership(design, lifting, x)[1] <= v_cap:
            starts.append(x)
    return starts
