import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demuon import config, problems
from demuon.linalg import nuclear_norm, spectral_norm
from demuon.problems import (
    NONCONVEX_GRAM,
    ProblemFormatError,
    ProblemSet,
    QUADRATIC,
    dump_problem,
    exact_gradient,
    load_problem,
    make_nonconvex_gram,
    make_quadratic,
    objective_at,
)
from reference_engine import local_gradient, local_value


def fd_directional(problem, i, x, d, h=1e-5):
    up = local_value(problem, i, x + h * d)
    down = local_value(problem, i, x - h * d)
    return (up - down) / (2.0 * h)


def replicated(problem, x):
    """One iterate `x` on every node: the (N, m, n) stack the gradient oracle takes."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(x, (problem.n_nodes, *x.shape))


def identity_quadratic(b):
    b = np.asarray(b, dtype=float)
    return ProblemSet(QUADRATIC, 1, b.shape[0], b.shape[1], a=(np.eye(b.shape[0]),), b=(b,), known_f_low=0.0)


def test_quadratic_fixed_values():
    # One node: the objective is f_0.
    prob = identity_quadratic(np.zeros((2, 2)))
    assert objective_at(prob, np.zeros((2, 2))) == 0.0
    prob_i = identity_quadratic(np.eye(2))
    assert objective_at(prob_i, np.zeros((2, 2))) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(exact_gradient(prob_i, replicated(prob_i, np.zeros((2, 2))))[0], -np.eye(2))
    x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(exact_gradient(prob, replicated(prob, x0))[0], x0)


def test_gram_fixed_values(rng):
    x = rng.standard_normal((3, 2))
    prob = ProblemSet("nonconvex_gram", 1, 3, 2, c=(x @ x.T,), known_f_low=0.0)
    assert objective_at(prob, x) == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(exact_gradient(prob, replicated(prob, x))[0], np.zeros((3, 2)), atol=1e-12)


def test_gradients_match_finite_differences(rng):
    quad = make_quadratic(3, 4, 3, 5, heterogeneity=0.4, seed=2)
    gram = make_nonconvex_gram(3, 4, 3, heterogeneity=0.4, seed=2)
    for problem in (quad, gram):
        for _ in range(20):
            i = int(rng.integers(problem.n_nodes))
            x = rng.standard_normal((problem.m, problem.n))
            d = rng.standard_normal((problem.m, problem.n))
            grad_dot = float(np.sum(exact_gradient(problem, replicated(problem, x))[i] * d))
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
        grad_dot = float(np.sum(exact_gradient(problem, replicated(problem, x))[i] * d))
        fd = fd_directional(problem, i, x, d)
        assert abs(grad_dot - fd) <= 1e-4 * max(1.0, abs(fd))


def test_average_gradient():
    # identical local objectives and identical iterates: average = node 0 gradient
    a = np.array([[1.0, 0.5], [0.0, 2.0]])
    b = np.array([[0.5, 0.1], [0.2, 0.3]])
    prob = ProblemSet(QUADRATIC, 3, 2, 2, a=(a, a, a), b=(b, b, b))
    xs = [np.ones((2, 2))] * 3
    np.testing.assert_allclose(exact_gradient(prob, xs).mean(axis=0), local_gradient(prob, 0, xs[0]), atol=1e-14)
    # hand case: N=2, A=I, B1=0, B2=2 (1x1), x=0 -> average gradient -1
    two = ProblemSet(
        QUADRATIC, 2, 1, 1,
        a=(np.eye(1), np.eye(1)),
        b=(np.zeros((1, 1)), 2.0 * np.ones((1, 1))),
    )
    avg = exact_gradient(two, [np.zeros((1, 1)), np.zeros((1, 1))]).mean(axis=0)
    assert avg[0, 0] == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(ValueError):
        exact_gradient(two, [np.zeros((1, 1))])


def test_make_quadratic_consensus_optimum():
    prob = make_quadratic(4, 3, 2, 5, heterogeneity=0.0, seed=21)
    stacked = np.vstack(prob.a)
    target = np.vstack(prob.b)
    x_star = np.linalg.lstsq(stacked, target, rcond=None)[0]
    np.testing.assert_allclose(exact_gradient(prob, [x_star] * 4).mean(axis=0), np.zeros((3, 2)), atol=1e-10)
    assert prob.f_low == 0.0
    assert objective_at(prob, x_star) <= 1e-20


def test_make_quadratic_single_node_zero_gap():
    prob = make_quadratic(1, 3, 3, 4, heterogeneity=0.0, seed=4)
    stacked = np.vstack(prob.a)
    x_star = np.linalg.lstsq(stacked, np.vstack(prob.b), rcond=None)[0]
    assert objective_at(prob, x_star) == pytest.approx(0.0, abs=1e-18)
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
        gx, gy = (exact_gradient(prob, replicated(prob, z))[i] for z in (x, y))
        lhs = nuclear_norm(gx - gy)
        assert lhs <= prob.lipschitz_star * spectral_norm(x - y) * (1.0 + 1e-12)


def test_gram_certificate_inside_ball(rng):
    prob = make_nonconvex_gram(2, 3, 2, heterogeneity=0.3, seed=11)
    r = prob.ball_radius
    for _ in range(100):
        i = int(rng.integers(2))
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        x *= min(1.0, 0.9 * r / max(spectral_norm(x), 1e-12))
        y *= min(1.0, 0.9 * r / max(spectral_norm(y), 1e-12))
        gx, gy = (exact_gradient(prob, replicated(prob, z))[i] for z in (x, y))
        lhs = nuclear_norm(gx - gy)
        assert lhs <= prob.lipschitz_star * spectral_norm(x - y) * (1.0 + 1e-12)


def per_node_quadratic(n_nodes, m, n, p, heterogeneity, seed):
    """make_quadratic's (A, B) built one node at a time, each A_i from its own draw and SVD."""
    rng = np.random.default_rng(seed)
    a = []
    for _ in range(n_nodes):
        u, _, vt = np.linalg.svd(rng.standard_normal((p, m)), full_matrices=False)
        a.append((u * np.linspace(1.0, 1.0 / 3.0, min(p, m))) @ vt)
    x_star = 0.5 * rng.standard_normal((m, n))
    deltas = [rng.standard_normal((p, n)) for _ in range(n_nodes - 1)]
    deltas.append(-np.sum(deltas, axis=0) if deltas else np.zeros((p, n)))
    return a, [a_i @ x_star + heterogeneity * d for a_i, d in zip(a, deltas)]


def per_node_gram(n_nodes, m, n, heterogeneity, seed):
    """make_nonconvex_gram's C built one node at a time, each symmetric offset from its own draw."""
    rng = np.random.default_rng(seed)
    x_star = 0.5 * rng.standard_normal((m, n))
    sym = []
    for _ in range(n_nodes - 1):
        g = rng.standard_normal((m, m))
        sym.append(0.5 * (g + g.T))
    sym.append(-np.sum(sym, axis=0) if sym else np.zeros((m, m)))
    return [x_star @ x_star.T + heterogeneity * s for s in sym]


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(1, 5),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    p=st.integers(1, 8),
    heterogeneity=st.sampled_from([0.0, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_nodes=1, m=1, n=1, p=1, heterogeneity=0.0, seed=0)  # 1x1
@example(n_nodes=4, m=5, n=2, p=3, heterogeneity=0.5, seed=1)  # p < m
@example(n_nodes=3, m=2, n=4, p=7, heterogeneity=0.0, seed=2)  # p > m, m < n
@example(n_nodes=2, m=2, n=5, p=4, heterogeneity=2.0, seed=3)  # m < n, heterogeneous
def test_generated_problems_equal_the_per_node_construction(n_nodes, m, n, p, heterogeneity, seed):
    # One stacked draw per kind of node data takes the same numbers from the
    # stream as one draw per node, so the node data are bit for bit the same.
    quad = make_quadratic(n_nodes, m, n, p, heterogeneity=heterogeneity, seed=seed)
    a, b = per_node_quadratic(n_nodes, m, n, p, heterogeneity, seed)
    assert np.array_equal(quad.a, a) and np.array_equal(quad.b, b)
    gram = make_nonconvex_gram(n_nodes, m, n, heterogeneity=heterogeneity, seed=seed)
    assert np.array_equal(gram.c, per_node_gram(n_nodes, m, n, heterogeneity, seed))
    # ||A_i^T A_i||_* is the trace ||A_i||_F^2 of a positive semidefinite matrix.
    l_star = max(nuclear_norm(a_i.T @ a_i) for a_i in a)
    assert quad.lipschitz_star == pytest.approx(l_star, rel=1e-12)
    # The first read gives the closed forms bit for bit, with or without a known lower bound.
    direct = ProblemSet(QUADRATIC, n_nodes, m, n, a=a, b=b)
    x_opt = np.linalg.lstsq(np.vstack(a), np.vstack(b), rcond=None)[0]
    assert quad.lipschitz_star == direct.lipschitz_star == max(float(np.sum(np.square(a_i))) for a_i in a)
    assert quad.f_low == (0.0 if heterogeneity == 0 else objective_at(quad, x_opt))
    assert direct.f_low == objective_at(quad, x_opt)
    assert gram.lipschitz_star == 3.0 * min(m, n) * gram.ball_radius**2 + max(nuclear_norm(c_i) for c_i in gram.c)
    assert gram.f_low == 0.0


@pytest.mark.parametrize("p, m", [(1, 1), (2, 5), (6, 3), (4, 4)])
def test_loaded_quadratic_certificate_is_the_largest_nuclear_norm(tmp_path, rng, p, m):
    # Unconditioned, rank-deficient (p < m) and square node matrices, through the file loader.
    a = rng.standard_normal((3, p, m)) * np.array([1.0, 10.0, 0.1])[:, None, None]
    path = tmp_path / "quad.txt"
    dump_problem(ProblemSet(QUADRATIC, 3, m, 2, a=a, b=rng.standard_normal((3, p, 2))), path)
    loaded = load_problem(path)
    l_star = max(nuclear_norm(a_i.T @ a_i) for a_i in loaded.a)
    assert loaded.lipschitz_star == pytest.approx(l_star, rel=1e-12)


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
    # A lone m x n iterate is not a node stack either.
    for bad in (np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((3, 2)), np.zeros((1, 3, 2))):
        with pytest.raises(ValueError, match="iterate shape"):
            exact_gradient(prob, bad)


# (N, m, n, p) of the quickstart, large_n64, rate_sweep and baselines_gram
# workloads, then odd shapes: 1x1, m < n, and a Gram-route short side.
STACK_SHAPES = [(8, 8, 6, 10), (64, 64, 32, 10), (4, 6, 5, 8), (16, 32, 16, 4), (1, 1, 1, 1), (3, 2, 5, 3), (5, 13, 12, 2)]


@pytest.mark.parametrize("kind", [QUADRATIC, NONCONVEX_GRAM])
@pytest.mark.parametrize("n_nodes, m, n, p", STACK_SHAPES)
def test_stacked_objective_equals_per_matrix_calls(kind, n_nodes, m, n, p):
    if kind == QUADRATIC:
        prob = make_quadratic(n_nodes, m, n, p, heterogeneity=0.5, seed=1)
    else:
        prob = make_nonconvex_gram(n_nodes, m, n, heterogeneity=0.5, seed=1)
    xs = np.random.default_rng(n_nodes * m).standard_normal((5, 3, m, n))
    stacked = objective_at(prob, xs)
    assert stacked.shape == (5, 3)
    per_matrix = [[objective_at(prob, x) for x in lane] for lane in xs]
    assert all(isinstance(v, float) for row in per_matrix for v in row)
    np.testing.assert_array_equal(stacked, per_matrix)
    np.testing.assert_array_equal(objective_at(prob, xs[:1, :1]), [[per_matrix[0][0]]])
    with pytest.raises(ValueError, match="iterate shape"):
        objective_at(prob, np.zeros((2, m + 1, n)))


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
            assert local_value(loaded, i, x) == pytest.approx(local_value(problem, i, x), rel=1e-12)


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


def test_problem_file_rejects_a_zero_dimension(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("quadratic 1 0 1 1\n1.0\n")
    message = f"{path}: line 1: dimensions must be positive, got [1, 0, 1, 1]"
    with pytest.raises(ProblemFormatError, match=f"^{re.escape(message)}$"):
        load_problem(path)


def test_problem_set_rejects_an_unknown_kind():
    message = "problem kind must be one of ('quadratic', 'nonconvex_gram'), got 'sparse'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        problems.ProblemSet("sparse", 1, 2, 2, c=np.eye(2)[None])


def test_problem_file_errors_name_physical_lines(tmp_path):
    # Blank lines are skipped but still counted: the bad value sits on line 4.
    path = tmp_path / "blank.txt"
    path.write_text("quadratic 1 2 1 1\n\n\n1.0,x\n0.5\n")
    with pytest.raises(ProblemFormatError, match="node 0: line 4: A_0"):
        load_problem(path)
    path.write_text("\nquadratic 1 2 1\n")
    with pytest.raises(ProblemFormatError, match="line 2: quadratic header needs 5 fields"):
        load_problem(path)


def test_problem_file_rejects_non_finite_entries(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("quadratic 1 2 1 1\n1.0,nan\n0.0\n")
    with pytest.raises(ProblemFormatError, match="finite"):
        load_problem(path)


@pytest.mark.parametrize("entry, loads", [("1e155", False), ("3e153", True)])
def test_problem_file_rejects_an_overflowing_certificate(tmp_path, entry, loads):
    # Finite entries whose squares overflow: the certificate max_i ||A_i||_F^2 is then not finite.
    path = tmp_path / "big.txt"
    path.write_text(f"quadratic 1 2 1 2\n{entry},{entry}\n{entry},{entry}\n1.0\n2.0\n")
    if loads:
        prob = load_problem(path)
        assert prob.lipschitz_star == pytest.approx(4.0 * float(entry) ** 2, rel=1e-12)
    else:
        with pytest.raises(ProblemFormatError, match="overflow|finite"):
            load_problem(path)



def test_problem_file_names_an_overflowing_gram_certificate(tmp_path):
    # Finite, symmetric C whose ball radius R squares past the largest double:
    # 3 min(m, n) R^2 + max_i ||C_i||_* is then not finite.
    path = tmp_path / "big_gram.txt"
    path.write_text("nonconvex_gram 1 2 2\n1e308,1e307\n1e307,1e308\n")
    with pytest.raises(ProblemFormatError) as info:
        load_problem(path)
    assert str(info.value) == (
        f"{path}: the nonconvex_gram certificate lipschitz_star cannot be computed"
        " (overflow encountered in scalar power)"
    )

def forbid_certificates(monkeypatch):
    """Make every call that computes a certificate raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a certificate was computed")

    monkeypatch.setattr(np, "square", forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    monkeypatch.setattr(problems, "nuclear_norm", forbidden)
    monkeypatch.setattr(problems, "objective_at", forbidden)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
GRAM_WORKLOAD = """
[run]
algorithm = gt_nsgdm
horizon = 200
out_dir = runs/gram

[topology]
family = directed_exponential
n_nodes = 16

[problem]
kind = nonconvex_gram
m = 32
n = 16

[noise]
family = student_t
alpha = 1.6
scale = 0.3
dof = 2.0
"""


def workload_configs():
    """The configs whose problems the benchmark's quickstart, large_n64, rate_sweep and baselines_gram build."""
    quickstart = config.parse_config(os.path.join(CONFIGS, "quickstart.ini"))
    return [
        quickstart,
        config.with_overrides(quickstart, n_nodes=64, m=64, n=32, horizon=50),
        config.parse_config(os.path.join(CONFIGS, "rate_sweep.ini")),
        config.parse_config(GRAM_WORKLOAD),
    ]


def test_building_a_problem_computes_no_certificate(monkeypatch):
    forbid_certificates(monkeypatch)
    built = [make_quadratic(3, 4, 2, 5, heterogeneity=h, seed=1) for h in (0.0, 0.5)]
    built.append(make_nonconvex_gram(3, 4, 2, heterogeneity=0.5, seed=1))
    built += [config.build_problem(cfg) for cfg in workload_configs()]
    assert [prob.kind for prob in built[3:]] == [QUADRATIC] * 3 + [NONCONVEX_GRAM]
    for prob in built:
        assert "lipschitz_star" not in vars(prob) and "f_low" not in vars(prob)


def test_a_second_read_computes_nothing(monkeypatch):
    built = [make_quadratic(3, 4, 2, 5, heterogeneity=0.5, seed=2), make_nonconvex_gram(3, 4, 2, 0.5, seed=2)]
    first = [(prob.lipschitz_star, prob.f_low) for prob in built]
    forbid_certificates(monkeypatch)
    assert [(prob.lipschitz_star, prob.f_low) for prob in built] == first


def test_directly_built_problems_read_their_certificates(rng):
    a, b = rng.standard_normal((3, 5, 4)), rng.standard_normal((3, 5, 2))
    quad = ProblemSet(QUADRATIC, 3, 4, 2, a=a, b=b)
    assert np.isfinite(quad.f_low) and quad.f_low > 0.0
    for _ in range(200):
        assert objective_at(quad, 2.0 * rng.standard_normal((4, 2))) >= quad.f_low
    x = rng.standard_normal((4, 2))
    gram = ProblemSet(NONCONVEX_GRAM, 2, 4, 2, c=np.stack([x @ x.T, 2.0 * x @ x.T]), ball_radius=3.0)
    assert gram.f_low == 0.0 and np.isfinite(gram.lipschitz_star)


def test_replace_computes_the_certificates_of_the_new_data():
    quad = make_quadratic(3, 4, 2, 5, heterogeneity=0.5, seed=3)
    gram = make_nonconvex_gram(3, 4, 2, heterogeneity=0.5, seed=3)
    read = (quad.lipschitz_star, quad.f_low, gram.lipschitz_star)
    scaled = replace(quad, a=2.0 * quad.a, b=quad.b + 1.0)
    fresh = ProblemSet(QUADRATIC, 3, 4, 2, a=2.0 * quad.a, b=quad.b + 1.0)
    assert (scaled.lipschitz_star, scaled.f_low) == (fresh.lipschitz_star, fresh.f_low)
    assert scaled.lipschitz_star == 4.0 * read[0] and scaled.f_low != read[1]
    wider = replace(gram, ball_radius=2.0 * gram.ball_radius)
    fresh = ProblemSet(NONCONVEX_GRAM, 3, 4, 2, c=gram.c, ball_radius=wider.ball_radius)
    assert wider.lipschitz_star == fresh.lipschitz_star
    assert wider.lipschitz_star > read[2]


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


@pytest.mark.parametrize("heterogeneity", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("make", [make_quadratic, make_nonconvex_gram])
def test_heterogeneity_must_be_finite(make, heterogeneity):
    dims = (2, 3, 2, 4) if make is make_quadratic else (2, 3, 2)
    with pytest.raises(ValueError, match=r"^heterogeneity .*finite"):
        make(*dims, heterogeneity=heterogeneity)


@pytest.mark.parametrize(
    "text",
    [
        "quadratic 1 1 1 100000000000000\n1.0\n",
        "nonconvex_gram 1 100000000000000 1\n1.0\n",
        "quadratic 1 100000000000000 1 1\n1.0\n0.0\n",
        "quadratic 100000000000000 1 1 1\n1.0\n0.0\n",
    ],
    ids=["rows", "gram-rows", "columns", "nodes"],
)
def test_problem_file_header_is_checked_before_allocating(tmp_path, text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    with pytest.raises(ProblemFormatError):
        load_problem(path)


def test_gram_target_must_be_symmetric(tmp_path):
    path = tmp_path / "asym.txt"
    path.write_text("nonconvex_gram 2 2 1\n1,0\n0,1\n1,2\n0,1\n")
    with pytest.raises(ProblemFormatError, match="node 1: C must be symmetric"):
        load_problem(path)
    with pytest.raises(ValueError, match="symmetric"):
        ProblemSet(NONCONVEX_GRAM, 1, 2, 1, c=np.array([[[1.0, 2.0], [0.0, 1.0]]]))
    # Round-off within the documented tolerance is accepted.
    c = np.array([[[1.0, 0.5], [0.5 + 1e-15, 1.0]]])
    assert ProblemSet(NONCONVEX_GRAM, 1, 2, 1, c=c).n_nodes == 1


def test_generated_gram_targets_are_exactly_symmetric():
    for seed in range(40):
        m, n, heterogeneity = 2 + seed % 7, 1 + seed % 4, 0.5 * (seed % 3)
        c = make_nonconvex_gram(3, m, n, heterogeneity=heterogeneity, seed=seed).c
        np.testing.assert_array_equal(c, np.swapaxes(c, -2, -1))


# Fragments a mutation splices into a valid file: separators, signs, odd
# numbers, an invalid UTF-8 byte, header words and a huge dimension.
_TOKENS = (
    b",", b"\n", b" ", b"-", b"e", b".", b"0", b"7", b"nan", b"inf", b"1e308", b"-1e308",
    b"9" * 30, b"\xff", b"quadratic", b"nonconvex_gram", b"100000000000000",
)


@pytest.fixture(scope="module")
def problem_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("problem_files")
    texts = []
    for problem in (make_quadratic(2, 2, 1, 2, 0.5, 3), make_nonconvex_gram(2, 2, 1, 0.5, 3)):
        dump_problem(problem, root / f"{problem.kind}.txt")
        texts.append((root / f"{problem.kind}.txt").read_bytes())
    return root, texts


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_problem_files_raise_only_problem_format_errors(problem_files, data):
    root, texts = problem_files
    text = bytearray(data.draw(st.sampled_from(texts)))
    ops = st.sampled_from(("insert", "replace", "delete"))
    edit = st.tuples(ops, st.integers(0, 10**4), st.sampled_from(_TOKENS))
    for op, at, token in data.draw(st.lists(edit, min_size=1, max_size=4)):
        at %= len(text) + 1
        if op == "insert":
            text[at:at] = token
        elif op == "replace":
            text[at:at + len(token)] = token
        else:
            del text[at:at + len(token)]
    path = root / "mutated.txt"
    path.write_bytes(bytes(text))
    try:
        load_problem(path)
    except ProblemFormatError:
        pass


@pytest.mark.parametrize(
    "make, args, message",
    [
        (make_quadratic, (0, 8, 6, 10), "n_nodes must be positive, got 0"),
        (make_quadratic, (4, 0, 6, 10), "m must be positive, got 0"),
        (make_quadratic, (4, 8, -2, 10), "n must be positive, got -2"),
        (make_quadratic, (4, 8, 6, 0), "p must be positive, got 0"),
        (make_quadratic, (4, 8, 6, 10, -0.5), "heterogeneity must be nonnegative and finite, got -0.5"),
        (make_quadratic, (4, 8, 6, 10, float("nan")), "heterogeneity must be nonnegative and finite, got nan"),
        (make_quadratic, (4, 8, 6, 10, 0.5, -1), "seed must be nonnegative, got -1"),
        (make_nonconvex_gram, (0, 8, 6), "n_nodes must be positive, got 0"),
        (make_nonconvex_gram, (4, 8, 0), "n must be positive, got 0"),
        (make_nonconvex_gram, (4, 8, 6, float("inf")), "heterogeneity must be nonnegative and finite, got inf"),
        (make_nonconvex_gram, (4, 8, 6, 0.5, -3), "seed must be nonnegative, got -3"),
    ],
)
def test_makers_reject_bad_arguments_naming_them(make, args, message):
    # Checked before any draw, so numpy's own errors never surface.
    with pytest.raises(ValueError) as caught:
        make(*args)
    assert str(caught.value) == message
