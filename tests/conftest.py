from pathlib import Path

import numpy as np
import pytest

from koopsyn import bounds, cli, controller, edmd, lmi, plants, sdp, uncertainty
from koopsyn.lifting import Lifting, Observable, poly, sine
from koopsyn.matops import block, mT

EXACT_A = np.array([[-2.0, 0.0, 0.0], [0.0, -4.0, 5.0], [0.0, 0.0, 1.0]])
EXACT_B0 = np.array([[0.0], [1.0], [1.0]])


@pytest.fixture(scope="session")
def figures_dir(tmp_path_factory):
    """Every ``reproduce`` output; fig2, fig3_ball, fig4_thm1 and fig5_thm1
    are the designs of the four built-in examples."""
    out = tmp_path_factory.mktemp("figures")
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
        cli.cmd_reproduce(fig, out)      # raises when a figure fails
    return Path(out)


@pytest.fixture(scope="session")
def lifting_cooked():
    return Lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))])])


@pytest.fixture(scope="session")
def lifting_cooked_xy():
    return Lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))]),
                            poly([(1.0, (1, 1))])])


@pytest.fixture(scope="session")
def lifting_pendulum():
    return Lifting(2, [sine(0)])


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


def theorem1_stability_reference(surrogate, region):
    """The single-input stability block as the paper states theorem 1
    (scalar multiplier lam, no scheduling gain), probed on theorem 1's
    variables, where lam is the 1x1 ``Lam``.  Kept apart from ``lmi`` so that both builders, which share
    one block formula, are checked against a formula they do not run.  Like
    every block formula it broadcasts over a leading axis of stacked
    assignments."""
    N = surrogate.N
    A, B0, Bt = surrogate.A, surrogate.B0, surrogate.B_tilde
    crinv2 = surrogate.c_r ** -2.0
    tS_col = region.tS.reshape(N, 1)
    variables = (lmi.VariableSpec("P", "sym", (N, N)),
                 lmi.VariableSpec("L", "full", (1, N)),
                 lmi.VariableSpec("Lam", "scalar", ()),
                 lmi.VariableSpec("tau", "scalar", ()),
                 lmi.VariableSpec("nu", "scalar", ()))

    def stability(a):
        P, L, lam, tau = a["P"], a["L"], a["Lam"], a["tau"]
        X = A @ P + B0 @ L
        b11 = -X - mT(X) - tau * np.eye(N)
        b21 = -L - lam * (tS_col.T @ Bt.T)
        b22 = lam * np.array([[region.tR]])
        b31 = -block([[P], [L]])
        b32 = np.zeros((N + 1, 1))
        b33 = 0.5 * tau * crinv2 * np.eye(N + 1)
        b41 = lam * Bt.T
        b42 = np.zeros((N, 1))
        b43 = np.zeros((N, N + 1))
        b44 = -lam * region.inv_tQ
        return block([
            [b11,   mT(b21), mT(b31), mT(b41)],
            [b21,   b22,     mT(b32), mT(b42)],
            [b31,   b32,     b33,     mT(b43)],
            [b41,   b42,     b43,     b44],
        ])

    return lmi.AffineMatrixExpr.from_function(stability, variables)


def outside_catalog(fn, lie=None):
    """An observable the catalog does not hold: ``fn`` maps states (..., n)
    to values (...) and ``lie`` states and directions (..., n) to Lie
    derivatives (...); the derivative is zero unless given."""
    return Observable(kind="outside_catalog", params={}, fn=fn,
                      lie=lie or (lambda X, V: np.zeros(np.shape(X)[:-1])))


def constraint(problem, name):
    """The constraint of ``problem`` called ``name``."""
    return next(c for c in problem.constraints if c.name == name)


def matches_theorem1_reference(surrogate, region):
    """True when the stability expressions of both builders equal the
    reference entry for entry (theorem 2's ``Lw`` coefficients have no
    counterpart)."""
    ref = theorem1_stability_reference(surrogate, region)
    e1 = constraint(lmi.build_theorem1(surrogate, region), "stability").expr
    e2 = constraint(lmi.build_theorem2(surrogate, region), "stability").expr
    return (np.array_equal(ref.constant, e1.constant)
            and np.array_equal(ref.constant, e2.constant)
            and e1.coeffs.keys() == ref.coeffs.keys()
            and all(np.array_equal(M, e1.coeffs[name])
                    and np.array_equal(M, e2.coeffs[name])
                    for name, M in ref.coeffs.items()))


def multiplier_inverse_reference(region, Lam):
    """The closed-form inverse of ``uncertainty.multiplier(region,
    inv(Lam))`` as the paper states it, from the region's inverse blocks:
    [[Lam kron tQ, Lam kron tS], [Lam kron tS^T, Lam kron tR]]."""
    Lam = np.atleast_2d(Lam)
    tS = region.tS.reshape(-1, 1)
    return np.block([[np.kron(Lam, region.tQ), np.kron(Lam, tS)],
                     [np.kron(Lam, tS.T), np.kron(Lam, [[region.tR]])]])


def containment_margins(design, region, lifting, resolution=180, radial=8):
    """Region margins of the lifts of swept certified states: the invariance
    inequality guarantees they are nonnegative.  The states lie on the
    boundary sweep and on ``radial`` rings inside it; those that the
    bisection left marginally outside the certified set (V > 1) are pulled
    back in, since the guarantee covers only the set itself."""
    boundary = controller.roa_boundary_2d(design, lifting, resolution=resolution)
    fractions = np.linspace(1.0 / radial, 1.0, radial)
    dirs = np.column_stack([np.cos(boundary.angles), np.sin(boundary.angles)])
    X = ((boundary.radii[:, None] * fractions)[:, :, None]
         * dirs[:, None, :]).reshape(-1, lifting.n)
    value_many = controller.ClosedLoop.of(design, lifting).value_many
    outside = np.arange(len(X))
    for _ in range(60):
        outside = outside[~(value_many(X[outside]) <= 1.0)]
        if not outside.size:
            break
        X[outside] *= 0.999999
    return uncertainty.margins(region, lifting.lift_reduced_many(X))


def solve_design(surrogate, region, theorem, maximize_roa=True, options=None):
    problem = lmi.build_problem(theorem, surrogate, region)
    if maximize_roa:
        problem = lmi.add_roa_objective(problem)
    assignment, report = sdp.solve_problem(problem, options)
    if report.status != "feasible":
        raise RuntimeError(f"fixture design infeasible: {report.status}")
    check = sdp.verify(problem, assignment)
    if not check.ok:
        raise RuntimeError("fixture design failed verification")
    design = controller.DesignResult.from_assignment(assignment, margins=check.margins)
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
    return uncertainty.procedure1_qz(surrogate_pendulum, theorem=2,
                                     rz=5.0, rz_step1=12.0)[0]


@pytest.fixture(scope="session")
def design_pendulum_shaped(surrogate_pendulum, region_pendulum_shaped):
    design, _, _ = solve_design(surrogate_pendulum, region_pendulum_shaped, theorem=1)
    return design


@pytest.fixture(scope="session")
def design_pendulum_shaped_thm2(surrogate_pendulum, region_pendulum_shaped):
    design, _, _ = solve_design(surrogate_pendulum, region_pendulum_shaped, theorem=2)
    return design

