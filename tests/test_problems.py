import numpy as np
import pytest

from demuon.linalg import nuclear_norm, spectral_norm
from demuon.problems import (
    ProblemFormatError,
    ProblemSet,
    QUADRATIC,
    average_gradient,
    dump_problem,
    exact_gradient,
    load_problem,
    make_nonconvex_gram,
    make_quadratic,
    objective_at,
    value,
)


def fd_directional(problem, i, x, d, h=1e-5):
    up = value(problem, i, x + h * d)
    down = value(problem, i, x - h * d)
    return (up - down) / (2.0 * h)


def identity_quadratic(b):
    b = np.asarray(b, dtype=float)
    return ProblemSet(QUADRATIC, 1, b.shape[0], b.shape[1], a=(np.eye(b.shape[0]),), b=(b,), f_low=0.0)


def test_quadratic_fixed_values():
    prob = identity_quadratic(np.zeros((2, 2)))
    assert value(prob, 0, np.zeros((2, 2))) == 0.0
    prob_i = identity_quadratic(np.eye(2))
    assert value(prob_i, 0, np.zeros((2, 2))) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(exact_gradient(prob_i, 0, np.zeros((2, 2))), -np.eye(2))
    x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(exact_gradient(prob, 0, x0), x0)


def test_gram_fixed_values(rng):
    x = rng.standard_normal((3, 2))
    prob = ProblemSet("nonconvex_gram", 1, 3, 2, c=(x @ x.T,), f_low=0.0)
    assert value(prob, 0, x) == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(exact_gradient(prob, 0, x), np.zeros((3, 2)), atol=1e-12)


def test_gradients_match_finite_differences(rng):
    quad = make_quadratic(3, 4, 3, 5, heterogeneity=0.4, seed=2)
    gram = make_nonconvex_gram(3, 4, 3, heterogeneity=0.4, seed=2)
    for problem in (quad, gram):
        for _ in range(20):
            i = int(rng.integers(problem.n_nodes))
            x = rng.standard_normal((problem.m, problem.n))
            d = rng.standard_normal((problem.m, problem.n))
            grad_dot = float(np.sum(exact_gradient(problem, i, x) * d))
            fd = fd_directional(problem, i, x, d)
            assert abs(grad_dot - fd) <= 1e-5 * max(1.0, abs(fd))


def test_gradient_fd_sweep_100_pairs(rng):
    problems_pool = [
        make_quadratic(2, 3, 2, 4, heterogeneity=0.2, seed=5),
        make_nonconvex_gram(2, 3, 2, heterogeneity=0.2, seed=5),
    ]
    for trial in range(100):
        problem = problems_pool[trial % 2]
        i = int(rng.integers(problem.n_nodes))
        x = rng.standard_normal((problem.m, problem.n))
        d = rng.standard_normal((problem.m, problem.n))
        grad_dot = float(np.sum(exact_gradient(problem, i, x) * d))
        fd = fd_directional(problem, i, x, d)
        assert abs(grad_dot - fd) <= 1e-4 * max(1.0, abs(fd))


def test_average_gradient():
    # identical local objectives and identical iterates: average = node 0 gradient
    a = np.array([[1.0, 0.5], [0.0, 2.0]])
    b = np.array([[0.5, 0.1], [0.2, 0.3]])
    prob = ProblemSet(QUADRATIC, 3, 2, 2, a=(a, a, a), b=(b, b, b))
    xs = [np.ones((2, 2))] * 3
    np.testing.assert_allclose(average_gradient(prob, xs), exact_gradient(prob, 0, xs[0]), atol=1e-14)
    # hand case: N=2, A=I, B1=0, B2=2 (1x1), x=0 -> average gradient -1
    two = ProblemSet(
        QUADRATIC, 2, 1, 1,
        a=(np.eye(1), np.eye(1)),
        b=(np.zeros((1, 1)), 2.0 * np.ones((1, 1))),
    )
    avg = average_gradient(two, [np.zeros((1, 1)), np.zeros((1, 1))])
    assert avg[0, 0] == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(ValueError):
        average_gradient(two, [np.zeros((1, 1))])


def test_make_quadratic_consensus_optimum():
    prob = make_quadratic(4, 3, 2, 5, heterogeneity=0.0, seed=21)
    stacked = np.vstack(prob.a)
    target = np.vstack(prob.b)
    x_star = np.linalg.lstsq(stacked, target, rcond=None)[0]
    np.testing.assert_allclose(average_gradient(prob, [x_star] * 4), np.zeros((3, 2)), atol=1e-10)
    assert prob.f_low == 0.0
    assert objective_at(prob, x_star) <= 1e-20


def test_make_quadratic_single_node_zero_gap():
    prob = make_quadratic(1, 3, 3, 4, heterogeneity=0.0, seed=4)
    stacked = np.vstack(prob.a)
    x_star = np.linalg.lstsq(stacked, np.vstack(prob.b), rcond=None)[0]
    assert value(prob, 0, x_star) == pytest.approx(0.0, abs=1e-18)
    assert prob.f_low == 0.0


def test_make_quadratic_deterministic():
    p1 = make_quadratic(3, 4, 2, 5, heterogeneity=0.7, seed=123)
    p2 = make_quadratic(3, 4, 2, 5, heterogeneity=0.7, seed=123)
    for a1, a2 in zip(p1.a, p2.a):
        np.testing.assert_array_equal(a1, a2)
    for b1, b2 in zip(p1.b, p2.b):
        np.testing.assert_array_equal(b1, b2)
    assert p1.f_low == p2.f_low


def test_f_low_is_lower_bound(rng):
    prob = make_quadratic(3, 3, 2, 4, heterogeneity=0.8, seed=6)
    for _ in range(1000):
        x = 3.0 * rng.standard_normal((3, 2))
        assert objective_at(prob, x) >= prob.f_low


def test_smoothness_certificate(rng):
    prob = make_quadratic(3, 4, 3, 6, heterogeneity=0.5, seed=8)
    for _ in range(100):
        i = int(rng.integers(3))
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 3))
        lhs = nuclear_norm(exact_gradient(prob, i, x) - exact_gradient(prob, i, y))
        assert lhs <= prob.lipschitz_star * spectral_norm(x - y) * (1.0 + 1e-12)
    assert prob.lipschitz_stacked == pytest.approx(3 * prob.lipschitz_star)


def test_gram_certificate_inside_ball(rng):
    prob = make_nonconvex_gram(2, 3, 2, heterogeneity=0.3, seed=11)
    r = prob.ball_radius
    for _ in range(100):
        i = int(rng.integers(2))
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        x *= min(1.0, 0.9 * r / max(spectral_norm(x), 1e-12))
        y *= min(1.0, 0.9 * r / max(spectral_norm(y), 1e-12))
        lhs = nuclear_norm(exact_gradient(prob, i, x) - exact_gradient(prob, i, y))
        assert lhs <= prob.lipschitz_star * spectral_norm(x - y) * (1.0 + 1e-12)


def test_heterogeneity_deltas_cancel():
    prob = make_quadratic(4, 2, 2, 3, heterogeneity=1.5, seed=14)
    residual = sum(prob.b[i] - prob.a[i] @ np.zeros((2, 2)) for i in range(4))
    # sum_i B_i = (sum_i A_i) X*: the heterogeneity offsets cancel
    stacked = np.vstack(prob.a)
    x_star = np.linalg.lstsq(stacked, np.vstack(prob.b), rcond=None)[0]
    hom = make_quadratic(4, 2, 2, 3, heterogeneity=0.0, seed=14)
    np.testing.assert_allclose(
        sum(prob.b[i] for i in range(4)), sum(hom.b[i] for i in range(4)), atol=1e-10
    )
    assert residual.shape == (3, 2)


def test_node_and_shape_errors():
    prob = make_quadratic(2, 3, 2, 4, seed=0)
    with pytest.raises(IndexError):
        value(prob, 2, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        value(prob, 0, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        exact_gradient(prob, 0, np.zeros((4, 2)))


def test_problem_file_roundtrip(tmp_path):
    for problem in (
        make_quadratic(4, 3, 2, 4, heterogeneity=0.6, seed=19),
        make_nonconvex_gram(2, 3, 2, heterogeneity=0.4, seed=19),
    ):
        path = tmp_path / f"{problem.kind}.txt"
        dump_problem(problem, path)
        loaded = load_problem(path)
        assert loaded.kind == problem.kind
        assert (loaded.n_nodes, loaded.m, loaded.n) == (problem.n_nodes, problem.m, problem.n)
        x = np.ones((problem.m, problem.n)) * 0.25
        for i in range(problem.n_nodes):
            assert value(loaded, i, x) == pytest.approx(value(problem, i, x), rel=1e-12)


def test_problem_file_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ProblemFormatError):
        load_problem(empty)

    bad_header = tmp_path / "header.txt"
    bad_header.write_text("mystery 2 2 2\n")
    with pytest.raises(ProblemFormatError):
        load_problem(bad_header)

    # A_1 block has a row with the wrong arity: error names node 1
    wrong_shape = tmp_path / "shape.txt"
    wrong_shape.write_text(
        "quadratic 2 2 1 1\n"
        "1.0,0.0\n"  # A_0 (1x2)
        "0.0\n"      # B_0 (1x1)
        "1.0\n"      # A_1 row should have 2 values
        "0.0\n"
    )
    with pytest.raises(ProblemFormatError, match="node 1"):
        load_problem(wrong_shape)

    truncated = tmp_path / "short.txt"
    truncated.write_text("quadratic 2 2 1 1\n1.0,0.0\n")
    with pytest.raises(ProblemFormatError):
        load_problem(truncated)


def test_problem_file_rejects_non_finite_entries(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("quadratic 1 2 1 1\n1.0,nan\n0.0\n")
    with pytest.raises(ProblemFormatError, match="finite"):
        load_problem(path)


def test_problem_set_stacks_node_data_once():
    a = (np.eye(2), 2.0 * np.eye(2))
    b = (np.ones((2, 1)), np.zeros((2, 1)))
    prob = ProblemSet(QUADRATIC, 2, 2, 1, a=a, b=b)
    assert isinstance(prob.a, np.ndarray) and prob.a.shape == (2, 2, 2)
    assert isinstance(prob.b, np.ndarray) and prob.b.shape == (2, 2, 1)
    np.testing.assert_array_equal(prob.a[1], a[1])
    with pytest.raises(ValueError, match="shape"):
        ProblemSet(QUADRATIC, 3, 2, 1, a=a, b=b)
    with pytest.raises(ValueError, match="needs node data"):
        ProblemSet("nonconvex_gram", 2, 2, 1, a=a, b=b)
