"""Direct tests of the bundled interior-point method (``koopsyn.ipm``)."""

import tracemalloc

import numpy as np
import pytest

from koopsyn import edmd, ipm, lmi, sdp, uncertainty


def random_sym(rng, *shape):
    G = rng.standard_normal(shape)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def random_spd(rng, n):
    G = rng.standard_normal((n, n))
    return G @ G.T + n * np.eye(n)


def test_known_optimum_mixed_blocks():
    # min t + s  s.t.  t I - A >= 0 (4x4),  s - 2 >= 0 (1x1),
    #                  [[t + 10, 1], [1, s]] >= 0 (2x2, inactive)
    # optimum: t = lambda_max(A), s = 2
    rng = np.random.default_rng(3)
    A = random_sym(rng, 4, 4)
    blocks = [
        (-A, np.stack([np.eye(4), np.zeros((4, 4))])),
        (np.array([[-2.0]]), np.array([[[0.0]], [[1.0]]])),
        (np.array([[10.0, 1.0], [1.0, 0.0]]),
         np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])),
    ]
    res = ipm.solve_sdp(np.array([1.0, 1.0]), blocks)
    lam_max = np.linalg.eigvalsh(A)[-1]
    assert res.status == "optimal"
    assert np.allclose(res.z, [lam_max, 2.0], rtol=0.0, atol=1e-7)
    assert abs(-res.dual_obj - (lam_max + 2.0)) <= 1e-7


def test_no_variables():
    # p = 0: every Fi is empty, and the only point is z = () with F0 > 0
    res = ipm.solve_sdp(np.zeros(0), [(np.eye(2), np.zeros((0, 2, 2))),
                                      (np.array([[1.0]]), np.zeros((0, 1, 1)))])
    assert res.status == "optimal"
    assert res.z.shape == (0,)


def test_empty_blocks_rejected():
    # with no PSD block the barrier has no cone (and mu = gap / 0)
    with pytest.raises(ValueError, match="at least one constraint block"):
        ipm.solve_sdp(np.array([1.0]), [])


def schur_operands(rng, p, sizes):
    As, X, Sinv = [], [], []
    for n in sizes:
        As.append(random_sym(rng, p, n, n))
        X.append(random_spd(rng, n))
        Sinv.append(random_spd(rng, n))
    Aflat = [A_k.reshape(p, A_k.shape[1] ** 2) for A_k in As]
    return Aflat, As, X, Sinv


def schur_buffers(p, sizes, rows):
    """The flat product buffer for p variables and a chunk buffer of
    ``rows`` matrices of the largest block."""
    nsq = max(sizes) ** 2
    return np.empty(p * nsq), np.empty(rows * nsq)


def test_schur_matches_einsum_reference():
    rng = np.random.default_rng(11)
    p = 7
    Aflat, As, X, Sinv = schur_operands(rng, p, (1, 3, 8))
    M = ipm._schur(Aflat, As, X, Sinv, *schur_buffers(p, (1, 3, 8), p))
    ref = sum(np.einsum("imn,jnm->ij", A_k, np.einsum("mn,jnl,lo->jmo", X_k, A_k, Si_k))
              for A_k, X_k, Si_k in zip(As, X, Sinv))
    assert M.shape == (p, p)
    assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("rows", [1, 3, 7, 10],
                         ids=["one", "not_a_divisor", "p", "more_than_p"])
def test_buffered_schur_equals_whole_stack_products(rows):
    # chunks of 1 and 3 rows of the largest block (8x8): p = 7 is not a
    # multiple of 3; the smaller blocks fit more rows per chunk
    rng = np.random.default_rng(5)
    p, sizes = 7, (1, 3, 8, 5)
    Aflat, As, X, Sinv = schur_operands(rng, p, sizes)
    whole = sum(Af_k @ (X_k @ A_k @ Si_k).reshape(Af_k.shape).T
                for Af_k, A_k, X_k, Si_k in zip(Aflat, As, X, Sinv))
    M = ipm._schur(Aflat, As, X, Sinv, *schur_buffers(p, sizes, rows))
    assert np.array_equal(M, whole)


def ladder_problem(N, m, objective=True):
    """Theorem-2 design (with the ROA objective unless ``objective`` is
    false) on a seeded synthetic stable surrogate with a radius-10 ball
    region, as in the benchmark's design ladder."""
    rng = np.random.default_rng([0, N, m])
    A = rng.standard_normal((N, N)) / np.sqrt(N)
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(N)
    B0 = rng.standard_normal((N, m))
    B = tuple(0.1 * rng.standard_normal((N, N)) / np.sqrt(N) for _ in range(m))
    surrogate = edmd.Surrogate(A=A, B0=B0, B=B, c_r=0.05, delta=0.05)
    problem = lmi.build_theorem2(surrogate, uncertainty.identity_region(N, 10.0))
    return lmi.add_roa_objective(problem) if objective else problem


def traced_solve(program):
    """(report, tracemalloc peak of sdp.solve, largest coefficient stack)."""
    largest = max(Fi.nbytes for _, _, Fi, _ in program.blocks)
    tracemalloc.start()
    try:
        report = sdp.solve(program, sdp.SolverOptions())
        return report, tracemalloc.get_traced_memory()[1], largest
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("objective", [True, False],
                         ids=["objective", "feasibility"])
def test_solve_holds_two_stacks_at_most(objective):
    # the lowering scaled in place plus one product buffer; a scaled copy
    # and two fresh product temporaries made it 3.6 stacks, and a phase-I
    # margin appended to a copy of every stack made a feasibility solve 2.9
    problem = ladder_problem(10, 2, objective)
    report, peak, largest = traced_solve(sdp.lower(problem))
    assert report.status == "feasible"
    assert peak <= 2 * largest
    assert sdp.verify(problem, report.assignment).ok


@pytest.mark.parametrize("objective", [True, False],
                         ids=["objective", "feasibility"])
def test_program_solved_once(objective):
    problem = ladder_problem(4, 2, objective)
    program = sdp.lower(problem)
    assert sdp.solve(program).status == "feasible"
    assert all(not Fi.flags.writeable for _, _, Fi, _ in program.blocks)
    with pytest.raises(ValueError, match="lower the problem again"):
        sdp.solve(program)
    # a fresh lowering solves the same problem again
    assert sdp.solve(sdp.lower(problem)).status == "feasible"


def test_solve_sdp_consumes_its_stacks():
    blocks = [(np.eye(2), np.stack([np.eye(2), np.zeros((2, 2))])),
              scalar_block(1.0, 0.0, -1.0)]
    res = ipm.solve_sdp(np.array([1.0, -1.0]), blocks)
    assert res.status == "optimal"
    with pytest.raises(ValueError, match="lower the problem again"):
        ipm.solve_sdp(np.array([1.0, -1.0]), blocks)


def test_theorem2_scaling_n15():
    """Theorem-2 ROA design at (N, m) = (15, 3): 309 variables, largest block
    81.  A dense Schur step that costs O(p n^4) per block takes minutes here;
    the batched one takes seconds.  The solve holds the scaled lowering and
    one product buffer, not a scaled copy and fresh products."""
    problem = ladder_problem(15, 3)
    report, peak, largest = traced_solve(sdp.lower(problem))
    assert report.status == "feasible"
    assert report.iterations <= 13
    assert peak <= 2 * largest
    assert sdp.verify(problem, report.assignment).ok


def scalar_block(f0, *fi):
    """A 1x1 block f0 + sum_i z_i fi >= 0."""
    return np.array([[f0]]), np.array(fi, dtype=float).reshape(-1, 1, 1)


def test_linear_program_known_optimum():
    # every block is 1x1, so the whole problem is one linear cone:
    # min -z1 - 2 z2  s.t.  z1, z2 >= 0,  z1 + z2 <= 4,  z1 + 3 z2 <= 6
    # optimum at the vertex (3, 1), value -5
    blocks = [scalar_block(0.0, 1.0, 0.0), scalar_block(0.0, 0.0, 1.0),
              scalar_block(4.0, -1.0, -1.0), scalar_block(6.0, -1.0, -3.0)]
    res = ipm.solve_sdp(np.array([-1.0, -2.0]), blocks)
    assert res.status == "optimal"
    assert np.allclose(res.z, [3.0, 1.0], rtol=0.0, atol=1e-7)
    assert abs(res.dual_obj - 5.0) <= 1e-7


def test_active_scalar_block_pins_mixed_optimum():
    # max z1 + z2  s.t.  [[1, z1], [z1, 1]] >= 0 (active: z1 <= 1),
    #                    0.5 - z2 >= 0 (1x1, active: it pins z2),
    #                    [[4, z1 + z2], [z1 + z2, 4]] >= 0 (inactive)
    # optimum (1, 0.5), value 1.5
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    blocks = [
        (np.eye(2), np.stack([off, np.zeros((2, 2))])),
        scalar_block(0.5, 0.0, -1.0),
        (4.0 * np.eye(2), np.stack([off, off])),
    ]
    res = ipm.solve_sdp(np.array([-1.0, -1.0]), blocks)
    assert res.status == "optimal"
    assert np.allclose(res.z, [1.0, 0.5], rtol=0.0, atol=1e-7)
    assert abs(res.dual_obj - 1.5) <= 1e-7
