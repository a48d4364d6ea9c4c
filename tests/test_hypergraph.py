import dataclasses
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from hyperdecide import hypergraph
from hyperdecide.hypergraph import (_pair_rows, _triple_term, compute_degrees, is_connected,
                                    parse_arrays)


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


def test_b_is_the_built_tensor_rebuilt_from_the_triples(monkeypatch, mixed_ratio_arrays):
    assert [f.name for f in dataclasses.fields(hd.Hypergraph2)] == [
        "a2", "triples", "degrees", "alpha"]
    built, real_build = [], hypergraph.build

    def recording_build(a2, b):
        built.append(np.array(b))
        return real_build(a2, b)

    monkeypatch.setattr(hypergraph, "build", recording_build)
    cases = [(hd.random_instance(5, 0.8, 0.2, 1.0, 1), built[-1]),
             (hd.random_instance(40, 0.2, 0.1, 1.0, 3), built[-1])]
    a2, b = mixed_ratio_arrays
    b = b.copy()
    cases.append((real_build(a2, b), b.copy()))
    b[0, 1, 2] = 9.0  # the instance keeps no view of its input
    for g, b in cases:
        assert g.b.shape == b.shape and g.b.tobytes() == b.tobytes()


def test_build_keeps_less_than_one_dense_tensor():
    n = 60
    g = hd.random_instance(n, 0.2, 0.05, 1.0, 3)
    tracemalloc.start()
    try:
        a2, b = np.array(g.a2), np.array(g.b)
        kept = hd.build(a2, b)
        del a2, b
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept.triples.w.size > 0
    assert held < 8 * n ** 3


def test_numerical_paths_never_read_the_dense_tensor(monkeypatch, inst5, mixed_ratio, tanh):
    def refuse(self):
        raise AssertionError("a numerical path read the dense tensor")

    monkeypatch.setattr(hd.Hypergraph2, "b", property(refuse))
    for g in (inst5, mixed_ratio):
        s = hd.SystemInstance(graph=g, psi=tanh, pi=1.7)
        hd.thresholds(g)
        hd.find_all(s)
        hd.integrate(s, np.full(g.n, 2.0))
        hd.basin_probe(s, [0.05, 2.0])
        hd.normal_form_coeffs(g, tanh)
        hd.sweep(g, tanh, pi_grid=np.array([0.5, 1.7, 3.0]))


def test_build_derives_the_sorted_triple_list(inst5, mixed_ratio, c5):
    for g in (inst5, mixed_ratio, c5):
        t = g.triples
        expected = [(i, j, k) for i, j, k in itertools.product(range(g.n), repeat=3)
                    if j < k and g.b[i, j, k] != 0.0]
        assert list(zip(t.i.tolist(), t.j.tolist(), t.k.tolist())) == expected
        assert np.array_equal(t.w, g.b[t.i, t.j, t.k])
        assert not t.w.flags.writeable
        assert "triples" not in repr(g)


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


def test_first_is_the_first_argwhere_row():
    rng = np.random.default_rng(17)
    b = rng.uniform(size=(6, 6, 6))
    b[2, 3, 4] = 5.0  # (3, 4) and (4, 3) of agent 2 differ
    masks = [np.zeros((4, 5, 3), dtype=bool), np.zeros(7, dtype=bool),
             np.eye(5, dtype=bool)[::-1], b != np.transpose(b, (0, 2, 1)),
             np.transpose(b > 0.9, (0, 2, 1))]
    last = np.zeros((3, 2, 4), dtype=bool)
    last[-1, -1, -1] = True
    masks.append(last)
    for _ in range(300):
        shape = tuple(rng.integers(1, 7, size=rng.integers(1, 4)))
        masks.append(rng.random(shape) < rng.choice([0.0, 0.005, 0.05, 0.5, 1.0]))
    for mask in masks:
        hit = np.argwhere(mask)
        assert hypergraph._first(mask) == (tuple(map(int, hit[0])) if hit.size else None)


def _own_by_mask(b):
    """The first nonzero b[i, j, k] with i in {j, k} or j == k, from the n^3 mask."""
    n = b.shape[0]
    idx = np.arange(n)
    own = np.zeros((n, n, n), dtype=bool)
    own[idx, idx, :] = True
    own[idx, :, idx] = True
    own |= np.eye(n, dtype=bool)[None, :, :]
    hit = np.argwhere((b != 0.0) & own)
    return tuple(map(int, hit[0])) if hit.size else None


def test_own_participant_matches_the_cubic_mask(inst5):
    cases = [arrays[1] for arrays, *_ in _STRUCTURAL_DEFECTS] + [inst5.b]
    rng = np.random.default_rng(23)
    for _ in range(400):
        n = int(rng.integers(2, 8))
        b = np.zeros((n, n, n))
        for _ in range(rng.integers(0, 5)):
            i, j, k = rng.integers(0, n, size=3)
            # three plants in four on an own or a repeated participant
            at = [(i, i, k), (i, j, i), (i, j, j), (i, j, k)][rng.integers(0, 4)]
            b[at] = rng.choice([1.0, -0.5, np.nan, np.inf])
        cases.append(b)
    assert sum(_own_by_mask(b) is not None for b in cases) > 250
    for b in cases:
        assert hypergraph._own_participant(None, b, None) == _own_by_mask(b)


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


def test_ratio_overflow_means_no_shared_ratio(inst5):
    # subnormal pairwise masses: every triple-to-pairwise ratio overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = hd.build(inst5.a2 * 1e-310, inst5.b)
    assert g.alpha is None


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


def test_scaling_near_the_float_maximum_round_trips(inst5):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = hd.scale_two_interactions(inst5, 5e307)
        back = hd.from_text(hd.to_text(huge))
    assert huge.alpha == pytest.approx(5e307, rel=1e-12)
    assert back.alpha == huge.alpha
    assert back.b.tobytes() == huge.b.tobytes()


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


def _lines_with(lines, rows):
    """The text of ``lines`` with line k replaced by ``rows[k]``."""
    return "\n".join(rows.get(k, ln) for k, ln in enumerate(lines, start=1)) + "\n"


def test_parse_errors_name_the_row(inst5):
    # the line and message of the failing row, not of the block: [B2] row 2
    # is line 16, [B3] row 3 line 23, [B5] starts at line 32
    lines = hd.to_text(inst5).splitlines()
    cases = [
        (_lines_with(lines, {16: " ".join(lines[15].split()[:-1])}), 16,
         "[B2] row 2 has 4 entries, expected 5"),
        (_lines_with(lines, {23: lines[22] + " 0"}), 23, "[B3] row 3 has 6 entries, expected 5"),
        (_lines_with(lines, {23: "1.0.0 " + " ".join(lines[22].split()[1:])}), 23,
         "[B3] row 3 has a non-numeric entry"),
        ("\n".join(lines[:31]) + "\n", 31, "expected section marker [B5]"),
        ("\n".join(lines[:35]) + "\n", 35, "unexpected end of file inside [B5]"),
    ]
    for text, line, message in cases:
        with pytest.raises(FormatError) as err:
            parse_arrays(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_parse_reads_every_float_spelling(inst5):
    # the spellings float() takes, bit for bit
    lines = hd.to_text(inst5).splitlines()
    words = ["1_0", "nan", "-Infinity", "-nan", " +1e-320", "\u0661"]
    _, b, _ = parse_arrays(_lines_with(lines, {9: " ".join(words[:5]),
                                               10: " ".join(words[1:])}))
    assert b[0, :2].tobytes() == np.array([[float(w) for w in words[:5]],
                                           [float(w) for w in words[1:]]]).tobytes()


# Row tokens: what float() reads (17-digit doubles and its other spellings)
# and what it refuses.
_TOKENS = st.one_of(
    st.floats().map(lambda x: format(x, ".17g")),
    st.sampled_from(["nan", "-Infinity", "1_0", "\u0661", "+1e-320", "0#", "#", "1,5", "0x10"]))


def _float_reference(lines, n):
    """Every block row of a to_text layout read token by token with float():
    (a2, b), or (line, label, row) of the first row it refuses."""
    values = []
    for m, r in itertools.product(range(n + 1), range(n)):
        line = 3 + m * (n + 1) + r
        parts = lines[line - 1].split()
        try:
            if len(parts) != n:
                raise ValueError
            values.append([float(p) for p in parts])
        except ValueError:
            return line, "[A2]" if m == 0 else f"[B{m}]", r + 1
    stack = np.array(values).reshape(n + 1, n, n)
    return stack[0], stack[1:]


@st.composite
def _edited_rows(draw):
    """(n, seed, edits): each edit puts one row of tokens, n - 1 to n + 1 of
    them or none (an empty line), at one block row of the instance's text."""
    n = draw(st.integers(2, 6))
    widths = st.sampled_from([n, n, n - 1, n + 1, 0])
    rows = widths.flatmap(lambda w: st.lists(_TOKENS, min_size=w, max_size=w))
    return n, draw(st.integers(0, 2**32 - 1)), draw(
        st.lists(st.tuples(st.integers(0, 10**6), rows), max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_edited_rows())
@example(case=(2, 0, [(0, []), (1, [])]))  # all-blank [A2]
def test_block_reading_equals_float_row_by_row(case):
    n, seed, edits = case
    g = hd.random_instance(n, 1.0, 0.7, 0.0 if n == 2 else 1.0, seed)
    lines = hd.to_text(g).splitlines()
    rows = [line for line in range(3, len(lines) + 1) if not lines[line - 1].startswith("[")]
    for at, tokens in edits:
        lines[rows[at % len(rows)] - 1] = " ".join(tokens)
    expected = _float_reference(lines, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected[0], int):
            line, label, row = expected
            with pytest.raises(FormatError) as err:
                parse_arrays("\n".join(lines) + "\n")
            assert err.value.line == line
            assert str(err.value).startswith(f"line {line}: {label} row {row} ")
        else:
            a2, b, _ = parse_arrays("\n".join(lines) + "\n")
            assert a2.tobytes() == expected[0].tobytes()
            assert b.tobytes() == expected[1].tobytes()


def test_clean_text_never_takes_the_row_loop(inst5):
    # every block of a to_text text is read by the one loadtxt call
    slow = mock.patch.object(hypergraph, "_parse_rows", side_effect=AssertionError("row loop"))
    for g in (inst5, hd.random_instance(40, 0.2, 0.1, 1.0, 3)):
        with slow:
            back = hd.from_text(hd.to_text(g))
        assert back.a2.tobytes() == g.a2.tobytes()
        assert back.b.tobytes() == g.b.tobytes()
        assert back.alpha == g.alpha


def test_contractions_equal_their_one_call_formulas(inst5):
    # bitwise: _pair_rows in row blocks against one bincount over the whole
    # stack, at heights around the block size; _triple_term's in-place
    # products against the one-expression product
    rng = np.random.default_rng(5)
    for g in (inst5, hd.random_instance(12, 0.6, 0.4, 0.7, 3)):
        t, n = g.triples, g.n
        for budget in (hypergraph._SCATTER_ENTRIES, 3 * t.dest.size):
            block = budget // t.dest.size
            for height in sorted({1, block - 1, block, block + 1} - {0}):
                P = np.tanh(rng.uniform(-2.0, 2.0, (height, n)))
                bins = np.arange(0, height * n * n, n * n)[:, None] + t.dest
                whole = np.bincount(bins.ravel(), (P.take(t.src, axis=-1) * t.w2).ravel(),
                                    height * n * n).reshape(height, n, n)
                with mock.patch.object(hypergraph, "_SCATTER_ENTRIES", budget):
                    assert _pair_rows(g, P).tobytes() == whole.tobytes()
                    assert _pair_rows(g, P[0]).tobytes() == whole[0].tobytes()
                for p in (P, P[0]):
                    pj, pk = p[..., t.term_j], p[..., t.term_k]
                    assert _triple_term(g, p).tobytes() == np.add.reduceat(
                        pj * pk * t.term_w, t.term_starts, axis=-1).tobytes()


def test_pair_rows_without_triples_gives_floats():
    g = hd.build(_k4(), np.zeros((4, 4, 4)))
    rows = _pair_rows(g, np.ones((3, 4)))
    assert rows.dtype == float and rows.shape == (3, 4, 4) and not rows.any()


def test_header_alpha_mismatch(inst5):
    # the error names the header's own line, after any leading blank lines
    for alpha, message in (("0.5", "header alpha disagrees with the stored matrices"),
                           ("none", "header says alpha=none but the slices share a common ratio")):
        for lead, line in (("", 1), ("\n\n", 3)):
            text = lead + hd.to_text(inst5).replace("alpha=1", f"alpha={alpha}", 1)
            with pytest.raises(FormatError) as err:
                hd.from_text(text)
            assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_header_alpha_must_be_finite(inst5, alpha):
    _expect_format_error(hd.to_text(inst5).replace("alpha=1", f"alpha={alpha}", 1), 1)


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
