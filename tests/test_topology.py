import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuon.linalg import spectral_norm
from demuon.topology import (
    InvalidMixingError,
    build_family,
    check_node_count,
    load_mixing_csv,
    mix_blocks,
    validate_mixing,
)


def ring_rate_closed_form(n):
    return max(abs(1.0 + 2.0 * np.cos(2.0 * np.pi * k / n)) / 3.0 for k in range(1, n))


def test_complete_graph():
    spec = build_family("complete", 2)
    np.testing.assert_allclose(spec.weights, [[0.5, 0.5], [0.5, 0.5]])
    assert spec.mixing_rate == 0.0
    spec8 = build_family("complete", 8)
    np.testing.assert_allclose(spec8.weights, np.full((8, 8), 0.125))
    assert spec8.mixing_rate == 0.0
    single = build_family("complete", 1)
    np.testing.assert_allclose(single.weights, [[1.0]])
    assert single.mixing_rate == 0.0


def test_ring_rates_match_circulant_eigenvalues():
    assert build_family("ring", 4).mixing_rate == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert build_family("ring", 8).mixing_rate == pytest.approx((1.0 + 2.0 * np.cos(np.pi / 4)) / 3.0, abs=1e-10)
    assert build_family("ring", 3).mixing_rate == pytest.approx(0.0, abs=1e-10)
    for n in (5, 6, 8, 12):
        assert build_family("ring", n).mixing_rate == pytest.approx(ring_rate_closed_form(n), abs=1e-10)


def test_ring_rejects_small_n():
    with pytest.raises(ValueError):
        build_family("ring", 2)


def test_directed_exponential():
    spec2 = build_family("directed_exponential", 2)
    np.testing.assert_allclose(spec2.weights, [[0.5, 0.5], [0.5, 0.5]])
    assert spec2.mixing_rate == pytest.approx(0.0, abs=1e-12)

    spec4 = build_family("directed_exponential", 4)
    assert np.count_nonzero(spec4.weights) == 12
    assert set(np.round(spec4.weights[spec4.weights > 0], 12)) == {round(1 / 3, 12)}
    w = spec4.weights
    assert spec4.mixing_rate == pytest.approx(spectral_norm(w - np.full((4, 4), 0.25)), abs=1e-12)

    spec8 = build_family("directed_exponential", 8)
    assert set(np.round(spec8.weights[spec8.weights > 0], 12)) == {0.25}
    # node 0 sends to offsets {0, 1, 2, 4}
    np.testing.assert_allclose(np.nonzero(spec8.weights[:, 0])[0], [0, 1, 2, 4])
    assert spec8.mixing_rate < 1.0
    assert validate_mixing(spec8.weights) == spec8.mixing_rate


def test_directed_exponential_rejects_non_power_of_two():
    for n in (3, 6, 12):
        with pytest.raises(ValueError):
            build_family("directed_exponential", n)


def test_check_node_count_is_the_builders_rule():
    for family in ("complete", "ring", "directed_exponential"):
        for n in range(18):
            try:
                check_node_count(family, n)
            except ValueError as exc:
                assert str(exc).startswith("n_nodes ")
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    build_family(family, n)
            else:
                assert build_family(family, n).n_nodes == n
    for family, n in (("complete", 0), ("ring", 2), ("directed_exponential", 1), ("directed_exponential", 6)):
        with pytest.raises(ValueError, match="^n_nodes "):
            check_node_count(family, n)
    with pytest.raises(ValueError, match="^family "):
        check_node_count("mesh", 4)
    check_node_count("custom", 1)


def test_all_families_validate():
    for spec in (
        build_family("complete", 1), build_family("complete", 8),
        build_family("ring", 3), build_family("ring", 8),
        build_family("directed_exponential", 2), build_family("directed_exponential", 16),
    ):
        assert validate_mixing(spec.weights) == pytest.approx(spec.mixing_rate, abs=1e-12)


def test_rate_ordering_at_fixed_size():
    assert build_family("complete", 8).mixing_rate == 0.0
    assert 0.0 < build_family("directed_exponential", 8).mixing_rate < build_family("ring", 8).mixing_rate


def mixing_failures(w):
    """The failed checks that the InvalidMixingError of `validate_mixing(w)` names."""
    with pytest.raises(InvalidMixingError) as caught:
        validate_mixing(w)
    return str(caught.value).split("; ")


def test_validate_reports_identity_failures():
    primitive, contractive = mixing_failures(np.eye(4))
    assert primitive == "some power W^j (j <= N) must be entrywise positive"
    head, _, rate = contractive.rpartition(" ")
    assert head == "mixing rate must be < 1, got"
    assert float(rate) == pytest.approx(1.0, abs=1e-12)


def test_validate_accepts_a_primitive_matrix_whose_powers_underflow():
    # A lazy directed cycle: W^(N-1) is the first positive power, and its
    # smallest entries, 0.001^(N-1), underflow to zero.
    n = 120
    w = 0.999 * np.eye(n) + 0.001 * np.roll(np.eye(n), 1, axis=0)
    assert validate_mixing(w) == pytest.approx(0.9999986, abs=1e-7)


def test_validate_rejects_reducible_and_late_primitive_matrices():
    primitive = "some power W^j (j <= N) must be entrywise positive"
    # Two complete graphs with no edge between them: no power is positive.
    assert primitive in mixing_failures(np.kron(np.eye(2), np.full((3, 3), 1.0 / 3.0)))
    # Wielandt's matrix on 4 nodes (a cycle with one chord) is primitive,
    # but its first positive power is W^10, beyond W^N.
    wielandt = np.roll(np.eye(4), 1, axis=1)
    wielandt[3, 1] = 1.0
    assert primitive in mixing_failures(wielandt)
    assert np.all(np.linalg.matrix_power(wielandt, 10) > 0)
    assert not np.all(np.linalg.matrix_power(wielandt, 9) > 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_primitivity_check_matches_the_powers_of_the_pattern(n, seed, density):
    # Against the loop over W^j, j = 1..N, on the pattern of W in integers.
    rng = np.random.default_rng(seed)
    pattern = (rng.random((n, n)) < density).astype(np.int64)
    w = pattern * rng.random((n, n)) + pattern * 1e-3
    power, positive = np.eye(n, dtype=np.int64), False
    for _ in range(n):
        power = np.minimum(power @ pattern, 1)
        positive = positive or bool(np.all(power > 0))
    try:
        validate_mixing(w)
        failures = []
    except InvalidMixingError as exc:
        failures = str(exc).split("; ")
    assert ("some power W^j (j <= N) must be entrywise positive" not in failures) == positive


def test_validate_reports_column_failure():
    failures = mixing_failures(np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert "columns must sum to 1" in failures
    assert "rows must sum to 1" not in failures


def test_mixing_rate_complete_and_ring():
    assert validate_mixing(build_family("complete", 8).weights) == 0.0
    assert validate_mixing(build_family("ring", 4).weights) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_mix_blocks_preserves_block_average(rng):
    for spec in (build_family("ring", 5), build_family("directed_exponential", 8)):
        blocks = rng.standard_normal((spec.n_nodes, 3, 2))
        mixed = mix_blocks(spec.weights, blocks)
        np.testing.assert_allclose(mixed.mean(axis=0), blocks.mean(axis=0), atol=1e-12)


def test_mix_blocks_rejects_blocks_on_other_nodes():
    # Eight node blocks would regroup into four rows of W without a word.
    w = build_family("ring", 4).weights
    for blocks in (np.ones((2, 8, 3, 2)), np.ones((3, 3, 2)), np.ones((3, 2))):
        nodes = blocks.shape[-3] if blocks.ndim >= 3 else 0
        with pytest.raises(ValueError, match=rf"blocks have {nodes} nodes but the mixing matrix has 4"):
            mix_blocks(w, blocks)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from(["ring", "directed_exponential", "custom"]),
    st.integers(0, 2**32 - 1),
)
def test_mix_blocks_equals_tensordot_exactly(n_nodes, m, n, weights, seed):
    rng = np.random.default_rng(seed)
    if weights == "ring" and n_nodes >= 3:
        w = build_family("ring", n_nodes).weights
    elif weights == "directed_exponential" and n_nodes in (2, 4, 8):
        w = build_family("directed_exponential", n_nodes).weights
    else:
        w = rng.random((n_nodes, n_nodes))
        w /= w.sum(axis=1, keepdims=True)
    blocks = rng.standard_normal((n_nodes, m, n))
    mixed = mix_blocks(w, blocks)
    expected = np.tensordot(w, blocks, axes=(1, 0))
    assert mixed.shape == expected.shape and mixed.tobytes() == expected.tobytes()


def test_build_family_dispatch():
    with pytest.raises(ValueError, match="^family "):
        build_family("torus", 4)
    with pytest.raises(ValueError, match="load_mixing_csv"):
        build_family("custom", 4)


def test_load_mixing_csv_roundtrip(tmp_path):
    spec = build_family("ring", 5)
    path = tmp_path / "w.csv"
    np.savetxt(path, spec.weights, delimiter=",")
    loaded = load_mixing_csv(path)
    assert loaded.n_nodes == 5
    np.testing.assert_allclose(loaded.weights, spec.weights, atol=1e-12)


def test_load_mixing_csv_rejects_invalid(tmp_path):
    path = tmp_path / "bad.csv"
    np.savetxt(path, np.eye(3), delimiter=",")
    with pytest.raises(InvalidMixingError):
        load_mixing_csv(path)
    path2 = tmp_path / "rect.csv"
    np.savetxt(path2, np.ones((2, 3)) / 3.0, delimiter=",")
    with pytest.raises(InvalidMixingError, match="rect.csv: mixing matrix must be square"):
        load_mixing_csv(path2)
    with pytest.raises(ValueError, match="must be square"):
        validate_mixing(np.ones((2, 3)) / 3.0)
    # Entries numpy reads as nan or inf are rejected as an invalid file, naming it.
    for name, entry in (("nan.csv", "nan"), ("overflow.csv", "1e400")):
        path3 = tmp_path / name
        path3.write_text(f"0.5,0.5\n0.5,{entry}\n")
        with pytest.raises(InvalidMixingError, match=f"{name}.*finite"):
            load_mixing_csv(path3)


@pytest.mark.parametrize("text", ["   \n1.0\n", "\t\n1.0\n \n", "  # weights\n1.0\n", "\n1.0\n"])
def test_load_mixing_csv_skips_blank_and_comment_lines(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_text(text)
    spec = load_mixing_csv(path)
    assert spec.n_nodes == 1 and spec.weights.tolist() == [[1.0]]


def _doubly_stochastic(n, c, perm):
    """c J/n + (1 - c) P: positive, doubly stochastic and contractive for c in (0, 1]."""
    return c / n + (1.0 - c) * np.eye(n)[list(perm)]


@st.composite
def mixing_csv_bytes(draw):
    """(file bytes, the valid matrix they hold or None): valid matrices, mutations of them, and noise."""
    n = draw(st.integers(1, 5), label="n")
    w = _doubly_stochastic(n, draw(st.floats(0.05, 1.0), label="c"), draw(st.permutations(range(n)), label="perm"))
    rows = [[repr(float(v)) for v in row] for row in w]
    sep = draw(st.sampled_from([",", ", ", " ,"]), label="sep")
    extras = draw(st.lists(st.sampled_from(["", "# comment"]), max_size=3), label="extras")
    mutation = draw(st.sampled_from([
        "none", "ragged", "stray", "entry", "utf8", "blank", "comments", "noise", "bytes",
    ]), label="mutation")
    i = draw(st.integers(0, n - 1), label="row")
    if mutation == "ragged":
        rows[i] = rows[i][:-1] if n > 1 else rows[i] + ["0.5"]
    elif mutation == "stray":
        at = draw(st.sampled_from([0, 1, n]), label="stray_at")  # leading, doubled or trailing delimiter
        rows[i] = rows[i][:at] + [""] + rows[i][at:]
    elif mutation == "entry":
        rows[i][0] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "1e300", "-1e300", "1.7e308", "abc", "", "0x1"]),
                          label="entry")
    lines = [sep.join(row) for row in rows]
    data = "\n".join(extras + lines + extras).encode()
    if mutation == "utf8":
        data = data[: draw(st.integers(0, len(data)))] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"]))
    elif mutation == "blank":
        data = draw(st.sampled_from([b"", b"\n", b"\n\n  \n", b"\r\n"]))
    elif mutation == "comments":
        data = draw(st.sampled_from([b"# only a comment\n", b"#\n#,\n", b"  # x\n\n"]))
    elif mutation == "noise":
        data = draw(st.text(alphabet="0123456789.,-+eE \n#naifNAIF", max_size=40)).encode()
    elif mutation == "bytes":
        data = draw(st.binary(max_size=40))
    return data, w if mutation == "none" else None


@settings(max_examples=400, deadline=None)
@given(case=mixing_csv_bytes())
def test_load_mixing_csv_loads_a_valid_spec_or_raises_invalid_mixing(tmp_path_factory, case):
    data, valid = case
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            spec = load_mixing_csv(path)
        except InvalidMixingError:
            spec = None
    assert [str(w.message) for w in caught] == []
    if valid is not None:
        np.testing.assert_array_equal(spec.weights, valid)
    if spec is not None:
        assert spec.weights.shape == (spec.n_nodes, spec.n_nodes)
        assert validate_mixing(spec.weights) == spec.mixing_rate
