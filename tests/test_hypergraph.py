import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hyperdecide as hd
from hyperdecide.errors import (
    AsymmetryError,
    DimensionError,
    DisconnectedError,
    FormatError,
    GenerationError,
    NegativeWeightError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroDegreeError,
)
from hyperdecide.hypergraph import compute_degrees, is_connected, parse_arrays


def _k4():
    return np.ones((4, 4)) - np.eye(4)


def test_build_basic(inst5):
    assert inst5.n == 5
    assert inst5.alpha == pytest.approx(1.0, abs=1e-12)
    assert np.all(inst5.degrees > 0)
    assert np.allclose(inst5.degrees,
                       inst5.a2.sum(axis=1) + inst5.b.sum(axis=(1, 2)))


def test_build_arrays_read_only(inst5):
    with pytest.raises(ValueError):
        inst5.a2[0, 1] = 5.0
    with pytest.raises(ValueError):
        inst5.b[0, 1, 2] = 5.0


def test_build_rejects_small_or_misshapen():
    with pytest.raises(DimensionError):
        hd.build(np.zeros((1, 1)), np.zeros((1, 1, 1)))
    with pytest.raises(DimensionError):
        hd.build(np.zeros((3, 4)), np.zeros((3, 3, 3)))
    with pytest.raises(DimensionError):
        hd.build(_k4(), np.zeros((3, 3, 3)))


def test_build_rejects_asymmetric_pairwise():
    a2 = _k4()
    a2[0, 1] = 2.0
    with pytest.raises(AsymmetryError):
        hd.build(a2, np.zeros((4, 4, 4)))


def test_build_rejects_diagonal_pairwise():
    a2 = _k4()
    a2[2, 2] = 1.0
    with pytest.raises(SelfLoopError):
        hd.build(a2, np.zeros((4, 4, 4)))


def test_build_rejects_negative_pairwise():
    a2 = _k4()
    a2[0, 1] = a2[1, 0] = -0.5
    with pytest.raises(NegativeWeightError):
        hd.build(a2, np.zeros((4, 4, 4)))


def test_build_rejects_disconnected():
    a2 = np.zeros((4, 4))
    a2[0, 1] = a2[1, 0] = 1.0
    a2[2, 3] = a2[3, 2] = 1.0
    with pytest.raises(DisconnectedError):
        hd.build(a2, np.zeros((4, 4, 4)))


def test_build_rejects_asymmetric_slice():
    b = np.zeros((4, 4, 4))
    b[0, 1, 2] = 1.0  # missing the (2, 1) mirror
    with pytest.raises(AsymmetryError):
        hd.build(_k4(), b)


def test_build_rejects_slice_with_own_node():
    b = np.zeros((4, 4, 4))
    b[0, 0, 2] = b[0, 2, 0] = 1.0  # node 0 participating in its own triple
    with pytest.raises(SelfLoopError):
        hd.build(_k4(), b)
    b = np.zeros((4, 4, 4))
    b[1, 2, 2] = 1.0  # repeated participant
    with pytest.raises(SelfLoopError):
        hd.build(_k4(), b)


def test_build_rejects_negative_slice():
    b = np.zeros((4, 4, 4))
    b[0, 1, 2] = b[0, 2, 1] = -1.0
    with pytest.raises(NegativeWeightError):
        hd.build(_k4(), b)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_build_rejects_non_finite_weights(bad):
    # symmetric entries, so only the finiteness check can object
    a2 = _k4()
    a2[0, 1] = a2[1, 0] = bad
    with pytest.raises(NonFiniteWeightError, match=r"pairwise entry \(0, 1\)"):
        hd.build(a2, np.zeros((4, 4, 4)))
    b = np.zeros((4, 4, 4))
    b[3, 0, 1] = b[3, 1, 0] = bad
    with pytest.raises(NonFiniteWeightError, match=r"agent 3, pair \(0, 1\)"):
        hd.build(_k4(), b)
    for arrays in ((a2, np.zeros((4, 4, 4))), (_k4(), b)):
        by_name = {r.name: r for r in hd.validation_report(*arrays)}
        assert not by_name["finite weights"].passed
        assert "first offender" in by_name["finite weights"].detail


def test_validation_report_lists_all_failures():
    a2 = np.zeros((4, 4))
    a2[0, 1] = a2[1, 0] = 1.0
    a2[2, 3] = a2[3, 2] = 1.0  # disconnected into two pairs
    report = hd.validation_report(a2, np.zeros((4, 4, 4)))
    by_name = {r.name: r for r in report}
    assert not by_name["pairwise connectivity"].passed
    assert by_name["pairwise symmetry"].passed
    # every check ran, pass or fail (finite weights first)
    assert len(report) == 9
    assert report[0].name == "finite weights" and report[0].passed


def _defect(pairs=(), triples=()):
    """K4 with zero triples, then each listed entry set: ((i, j), w) in the
    pairwise matrix, ((i, j, k), w) in the triple tensor."""
    a2, b = _k4(), np.zeros((4, 4, 4))
    for at, w in pairs:
        a2[at] = w
    for at, w in triples:
        b[at] = w
    return a2, b


def _two_pairs():
    a2 = np.zeros((4, 4))
    a2[0, 1] = a2[1, 0] = a2[2, 3] = a2[3, 2] = 1.0
    return a2, np.zeros((4, 4, 4))


# One input per structural check, in report order: the check it fails, the
# error with its exact message, and the report's exact detail. No negative-free
# connected instance has a zero degree, so the last input also fails
# 2-interaction nonnegativity, and its degree error comes from compute_degrees.
_STRUCTURAL_DEFECTS = [
    (_defect(pairs=[((1, 2), np.inf), ((2, 1), np.inf)]), "finite weights",
     NonFiniteWeightError, "weights must be finite: pairwise entry (1, 2) is not",
     "first offender pairwise entry (1, 2)"),
    (_defect(pairs=[((1, 3), 2.0)]), "pairwise symmetry", AsymmetryError,
     "pairwise adjacency must be symmetric: entries (1,3) and (3,1) differ",
     "first offender (1,3)"),
    (_defect(pairs=[((2, 2), 1.0)]), "pairwise null diagonal", SelfLoopError,
     "pairwise adjacency must have zero diagonal: entry (2,2) is nonzero",
     "first offender (2,2)"),
    (_defect(pairs=[((1, 3), -0.5), ((3, 1), -0.5)]), "pairwise nonnegativity",
     NegativeWeightError, "pairwise weights must be nonnegative: entry (1,3) is negative",
     "first offender (1,3)"),
    (_two_pairs(), "pairwise connectivity", DisconnectedError,
     "pairwise support graph must connect all agents", ""),
    (_defect(triples=[((2, 0, 3), 1.0)]), "2-interaction symmetry", AsymmetryError,
     "2-interaction matrix 2 must be symmetric: entries (0,3) and (3,0) differ",
     "first offender agent 2, pair (0,3)"),
    (_defect(triples=[((2, 1, 2), 1.0), ((2, 2, 1), 1.0)]), "2-interaction participants",
     SelfLoopError,
     "2-interaction matrix 2 may only weight pairs of two other agents: "
     "entry (1,2) is nonzero", "first offender agent 2, pair (1,2)"),
    (_defect(triples=[((3, 0, 2), -1.0), ((3, 2, 0), -1.0)]), "2-interaction nonnegativity",
     NegativeWeightError, "2-interaction weights must be nonnegative: agent 3, entry (0,2)",
     "first offender agent 3, pair (0,2)"),
    (_defect(triples=[((1, 0, 3), -1.5), ((1, 3, 0), -1.5)]), "positive degrees",
     ZeroDegreeError, "agent 1 has generalized degree 0", "agent 1"),
]


@pytest.mark.parametrize("arrays, name, error, message, detail", _STRUCTURAL_DEFECTS,
                         ids=[case[1] for case in _STRUCTURAL_DEFECTS])
def test_each_structural_check_names_its_first_offender(arrays, name, error, message, detail):
    degree_only = name == "positive degrees"
    with pytest.raises(error) as info:
        (compute_degrees if degree_only else hd.build)(*arrays)
    assert str(info.value) == message
    failed = {r.name: r.detail for r in hd.validation_report(*arrays) if not r.passed}
    assert failed[name] == detail
    assert set(failed) == ({name, "2-interaction nonnegativity"} if degree_only else {name})


def test_is_connected_matches_reachability_bruteforce():
    # every undirected support graph up to n=5
    checked = 0
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            support = np.zeros((n, n), dtype=bool)
            for idx, (i, j) in enumerate(pairs):
                if bits >> idx & 1:
                    support[i, j] = support[j, i] = True
            # reachability via boolean powers of (I + A)
            reach = np.linalg.matrix_power(
                support.astype(int) + np.eye(n, dtype=int), n) > 0
            assert is_connected(support) == bool(reach.all()), (n, bits)
            checked += 1
    assert checked == 2 + 8 + 64 + 1024


def test_alpha_detection_shared_ratio(inst5):
    for i in range(inst5.n):
        pair_mass = inst5.a2[i].sum()
        triple_mass = inst5.b[i].sum()
        assert abs(triple_mass - inst5.alpha * pair_mass) < 1e-10 * max(1.0, pair_mass)


def test_alpha_detection_zero_and_none(c5, mixed_ratio):
    assert c5.alpha == 0.0
    assert mixed_ratio.alpha is None


def test_random_instance_deterministic():
    g1 = hd.random_instance(5, 0.8, 0.2, 1.0, 7)
    g2 = hd.random_instance(5, 0.8, 0.2, 1.0, 7)
    g3 = hd.random_instance(5, 0.8, 0.2, 1.0, 8)
    assert np.array_equal(g1.a2, g2.a2) and np.array_equal(g1.b, g2.b)
    assert not np.array_equal(g1.a2, g3.a2)


def test_random_instance_respects_ratio():
    for seed, alpha in [(1, 0.25), (2, 0.5), (3, 1.0), (4, 2.0), (5, 0.0)]:
        g = hd.random_instance(6, 0.7, 0.3, alpha, seed)
        assert g.alpha == pytest.approx(alpha, abs=1e-9)
        for i in range(g.n):
            assert abs(g.b[i].sum() - alpha * g.a2[i].sum()) < 1e-9


def test_random_instance_argument_errors():
    with pytest.raises(DimensionError):
        hd.random_instance(1, 0.8, 0.2, 1.0, 1)
    with pytest.raises(ValueError):
        hd.random_instance(5, 0.0, 0.2, 1.0, 1)
    with pytest.raises(ValueError):
        hd.random_instance(5, 0.8, 1.2, 1.0, 1)
    with pytest.raises(ValueError):
        hd.random_instance(5, 0.8, 0.2, -0.1, 1)


def test_random_instance_refuses_a_tensor_above_the_bound():
    # 3000 agents would need a 201 GiB triple tensor; the check runs first
    assert 8 * hd.hypergraph.MAX_AGENTS ** 3 <= hd.hypergraph.MAX_TENSOR_BYTES
    tracemalloc.start()
    try:
        for n in (hd.hypergraph.MAX_AGENTS + 1, 3000):
            with pytest.raises(DimensionError, match="GiB"):
                hd.random_instance(n, 0.8, 0.2, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_random_instance_impossible_draw_raises():
    # p3=0 leaves every slice empty; a positive ratio can then never be hit
    with pytest.raises(GenerationError):
        hd.random_instance(5, 0.8, 0.0, 1.0, 1)


def test_scale_two_interactions(inst5):
    half = hd.scale_two_interactions(inst5, 0.5)
    assert half.alpha == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(half.b, 0.5 * inst5.b)
    none = hd.scale_two_interactions(inst5, 0.0)
    assert none.alpha == 0.0


def test_compute_degrees_manual(k3):
    deg = compute_degrees(k3.a2, k3.b)
    assert np.allclose(deg, [4.0, 4.0, 4.0])
    assert np.allclose(k3.degrees, deg)


def test_text_round_trip(inst5, c5, mixed_ratio):
    for g in (inst5, c5, mixed_ratio):
        back = hd.from_text(hd.to_text(g))
        assert np.array_equal(back.a2, g.a2)
        assert np.array_equal(back.b, g.b)
        assert back.alpha == g.alpha or (
            back.alpha is not None and back.alpha == pytest.approx(g.alpha, abs=0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), p2=st.floats(0.3, 1.0), p3=st.floats(0.0, 1.0),
       alpha=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1),
       factor=st.floats(1e-12, 1e12), first=st.floats(1e-12, 1e12))
def test_text_round_trip_is_exact(n, p2, p3, alpha, seed, factor, first):
    try:
        g = hd.random_instance(n, p2, p3, alpha, seed)
    except hd.GenerationError:
        assume(False)
    g = hd.scale_two_interactions(g, factor)
    # a second factor on agent 0 alone gives instances without a shared ratio
    b = g.b.copy()
    b[0] *= first
    for h in (g, hd.build(g.a2, b)):
        back = hd.from_text(hd.to_text(h))
        assert np.array_equal(back.a2, h.a2)
        assert np.array_equal(back.b, h.b)
        assert back.alpha == h.alpha


def test_save_load(tmp_path, inst5):
    path = tmp_path / "inst.txt"
    hd.save(inst5, path)
    back = hd.load(path)
    assert np.array_equal(back.a2, inst5.a2)
    assert np.array_equal(back.b, inst5.b)


def test_text_format_header(inst5):
    text = hd.to_text(inst5)
    first = text.splitlines()[0]
    assert first == "n=5 alpha=1"


def _expect_format_error(text, line):
    with pytest.raises(FormatError) as err:
        hd.from_text(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}:")


def test_parse_error_empty():
    _expect_format_error("", 1)
    _expect_format_error("\n\n", 1)


def test_parse_error_bad_header():
    _expect_format_error("n=5\n", 1)
    _expect_format_error("n=x alpha=1\n", 1)
    _expect_format_error("n=5 alpha=maybe\n", 1)
    _expect_format_error("n=1 alpha=1\n", 1)


def test_parse_error_positions(inst5):
    lines = hd.to_text(inst5).splitlines()
    # corrupt one matrix entry on a known line: header + [A2] + 2 rows => line 4
    bad = list(lines)
    bad[3] = bad[3].replace(bad[3].split()[0], "oops", 1)
    _expect_format_error("\n".join(bad) + "\n", 4)
    # drop a section marker
    missing = [ln for ln in lines if ln != "[B2]"]
    with pytest.raises(FormatError):
        hd.from_text("\n".join(missing) + "\n")
    # trailing junk
    _expect_format_error("\n".join(lines) + "\nextra\n", len(lines) + 1)


def test_missing_triple_blocks_fail_before_the_cubic_allocation():
    n = 400
    zeros = " ".join(["0"] * n)
    text = f"n={n} alpha=none\n[A2]\n" + "\n".join([zeros] * n) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"\[B1\]"):
            parse_arrays(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6  # the n^3 array alone would be 512 MB


def test_parse_error_wrong_width(inst5):
    lines = hd.to_text(inst5).splitlines()
    bad = list(lines)
    bad[2] = " ".join(bad[2].split()[:-1])  # first matrix row loses a column
    _expect_format_error("\n".join(bad) + "\n", 3)


def test_header_alpha_mismatch(inst5):
    text = hd.to_text(inst5).replace("alpha=1", "alpha=0.5", 1)
    with pytest.raises(FormatError):
        hd.from_text(text)
    text = hd.to_text(inst5).replace("alpha=1", "alpha=none", 1)
    with pytest.raises(FormatError):
        hd.from_text(text)


def test_parse_arrays_skips_validation(inst5):
    # structurally fine but semantically broken content parses
    text = hd.to_text(inst5)
    a2, b, header_alpha = parse_arrays(text)
    assert header_alpha == pytest.approx(1.0)
    a2_bad = a2.copy()
    a2_bad[0, 1] += 1.0  # break symmetry; parse_arrays must not care
    report = hd.validation_report(a2_bad, b)
    assert any(not r.passed for r in report)


def test_text_values_survive_17_digits():
    rng = np.random.default_rng(11)
    a2 = np.zeros((3, 3))
    a2[0, 1] = a2[1, 0] = rng.uniform()
    a2[1, 2] = a2[2, 1] = rng.uniform()
    b = np.zeros((3, 3, 3))
    b[0, 1, 2] = b[0, 2, 1] = rng.uniform()
    g = hd.build(a2, b)
    back = hd.from_text(hd.to_text(g))
    assert np.array_equal(back.a2, g.a2)
    assert np.array_equal(back.b, g.b)
