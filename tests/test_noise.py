import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon import noise
from demuon.linalg import nuclear_norm
from demuon.noise import NoiseModel, sample_noise
from demuon.optimizers import BaselineParams, Lane, ScheduleParams, run, theoretical_schedule
from demuon.problems import make_quadratic
from demuon.topology import build_family


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("cauchy", 2.0, 1.0)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 1.5, 1.0)  # gaussian only valid at alpha = 2
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 2.5, 1.0)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 2.0, -0.1)
    with pytest.raises(ValueError):
        NoiseModel("student_t", 1.5, 1.0)  # missing dof
    with pytest.raises(ValueError):
        NoiseModel("student_t", 1.5, 1.0, dof=1.4)  # dof <= alpha
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 2.0, 1.0, base_seed=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="gaussian", scale=float("nan")),
        dict(family="gaussian", scale=float("inf")),
        dict(family="student_t", alpha=1.5, dof=float("nan")),
        dict(family="student_t", alpha=1.5, dof=float("inf")),
    ],
    ids=["scale-nan", "scale-inf", "dof-nan", "dof-inf"],
)
def test_model_rejects_non_finite_parameters(kwargs):
    field = "scale" if "scale" in kwargs else "dof"
    with pytest.raises(ValueError, match=rf"^{field} .*finite"):
        NoiseModel(**kwargs)


def test_zero_scale_is_exact_zero():
    model = NoiseModel("gaussian", 2.0, 0.0)
    assert not sample_noise(model, 3, 2, 1, 0)[0].any()
    model_t = NoiseModel("student_t", 1.5, 0.0, dof=1.8)
    assert not sample_noise(model_t, 3, 2, 2, 7)[1].any()


def test_streams_are_deterministic_and_distinct():
    model = NoiseModel("gaussian", 2.0, 1.0, base_seed=5)
    a = sample_noise(model, 4, 3, 3, 9)[2]
    b = sample_noise(model, 4, 3, 3, 9)[2]
    np.testing.assert_array_equal(a, b)
    assert np.any(a != sample_noise(model, 4, 3, 4, 9)[3])
    assert np.any(a != sample_noise(model, 4, 3, 3, 10)[2])
    other = NoiseModel("gaussian", 2.0, 1.0, base_seed=6)
    assert np.any(a != sample_noise(other, 4, 3, 3, 9)[2])


def oracle_draw(model, m, n, node, iteration):
    """The draw of the (base_seed, node, iteration) stream, built by numpy's own seeding."""
    rng = np.random.default_rng((model.base_seed, node, iteration))
    if model.family == "gaussian":
        return rng.normal(0.0, model.scale, size=(m, n))
    return model.scale * rng.standard_t(model.dof, size=(m, n))


BASE_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))
MODELS = st.one_of(
    st.builds(NoiseModel, st.just("gaussian"), st.just(2.0), st.floats(0.1, 3.0), base_seed=BASE_SEEDS),
    st.builds(
        NoiseModel, st.just("student_t"), st.just(1.5), st.floats(0.1, 3.0), st.floats(1.6, 5.0),
        base_seed=BASE_SEEDS,
    ),
)
# Both sides of a 64-round block boundary, far out, and anywhere.
ITERATIONS = st.one_of(st.sampled_from([0, 63, 64, 65, 10**6, 10**6 + 63]), st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(MODELS, st.integers(1, 70), st.sampled_from([(1, 1), (2, 5), (4, 3)]), ITERATIONS)
def test_stacked_draws_equal_the_per_node_streams(model, n_nodes, shape, iteration):
    stack = sample_noise(model, *shape, n_nodes, iteration)
    assert stack.shape == (n_nodes, *shape)
    for i in range(n_nodes):
        assert np.array_equal(stack[i], oracle_draw(model, *shape, i, iteration))


@pytest.mark.parametrize("n_nodes, iteration", [(2**32, 0), (1, 2**32), (0, 0), (1, -1)])
def test_keys_the_hash_cannot_encode_are_rejected_before_hashing(n_nodes, iteration):
    model = NoiseModel("gaussian", 2.0, 1.0)
    before = noise._seed_block.cache_info()
    with pytest.raises(ValueError):
        sample_noise(model, 2, 2, n_nodes, iteration)
    after = noise._seed_block.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_unbiasedness_monte_carlo():
    model = NoiseModel("gaussian", 2.0, 0.7, base_seed=31)
    n_draws = 10_000
    draws = np.stack([sample_noise(model, 2, 3, 1, t)[0] for t in range(n_draws)])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(n_draws)
    assert np.all(np.abs(mean) <= 4.0 * se)


def test_nodes_are_uncorrelated():
    model = NoiseModel("gaussian", 2.0, 1.0, base_seed=13)
    n_draws = 10_000
    a = np.array([sample_noise(model, 1, 1, 1, t)[0, 0, 0] for t in range(n_draws)])
    b = np.array([sample_noise(model, 1, 1, 2, t)[1, 0, 0] for t in range(n_draws)])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_heavy_tail_alpha_moment_converges_variance_diverges():
    # dof = 1.8 > alpha = 1.5, so the alpha-moment is finite while the
    # second moment is not: its running estimate keeps growing.
    model = NoiseModel("student_t", alpha=1.5, scale=1.0, dof=1.8, base_seed=99)
    n_draws = 100_000
    nucs = np.empty(n_draws)
    for t in range(n_draws):
        nucs[t] = nuclear_norm(sample_noise(model, 2, 2, 1, t)[0])
    counts = np.arange(1, n_draws + 1)
    alpha_running = np.cumsum(nucs**model.alpha) / counts
    rel_change = abs(alpha_running[-1] - alpha_running[n_draws // 2 - 1]) / alpha_running[-1]
    assert rel_change < 0.05
    second_running = np.cumsum(nucs**2) / counts
    assert second_running[-1] / second_running[n_draws // 10 - 1] > 1.2


def test_the_engine_draws_the_noise_once_per_round(monkeypatch):
    # One `step` per round covers every live lane, so the noise is drawn once
    # per round, whatever the lane count and however the lanes retire.
    import demuon.optimizers as optimizers

    calls = []
    monkeypatch.setattr(optimizers, "sample_noise", lambda *a: calls.append(a[-1]) or sample_noise(*a))
    prob = make_quadratic(3, 3, 2, 4, heterogeneity=0.3, seed=4)
    noise = NoiseModel("gaussian", 2.0, 0.3, base_seed=5)
    for lanes in (
        [Lane("demuon", ScheduleParams(0.1, 0.2), horizon=9)],
        [Lane("demuon", theoretical_schedule(k)) for k in (4, 9, 6)],
        [Lane(a, BaselineParams(), horizon=k) for a, k in (("dsgd", 3), ("dsgd_clip", 9))]
        + [Lane("gt_nsgdm", ScheduleParams(0.1, 0.2), horizon=2)],
    ):
        calls.clear()
        results = run(lanes, prob, build_family("ring", 3), noise)
        assert calls == list(range(max(r.horizon for r in results)))
