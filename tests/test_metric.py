"""Rank-metric unit tests: hand-walked cases, pairwise oracle, properties."""

import numpy as np
import pytest

from credit_stack.errors import DataError
from credit_stack.metric import (
    CAPTURE_FRACTION,
    NEGATIVE_WEIGHT,
    Labels,
    composite_metric,
    default_rate_at_4pct,
    weight_of,
    weighted_auc,
)
from oracles import (
    capture_at_fraction,
    pairwise_weighted_auc,
    three_pass_composite_metric,
    three_pass_default_rate,
    three_pass_weighted_auc,
)


def test_weight_constants():
    assert NEGATIVE_WEIGHT == 20.0
    assert CAPTURE_FRACTION == 0.04


def test_weight_of_scalar():
    assert weight_of(0) == 20.0
    assert weight_of(1) == 1.0


def test_weight_of_vector_total():
    w = weight_of(np.array([1, 0, 0]))
    assert w.tolist() == [1.0, 20.0, 20.0]
    assert w.sum() == 41.0


def test_auc_perfect_separation():
    labels = [1, 1, 0, 0]
    preds = [0.9, 0.8, 0.2, 0.1]
    assert weighted_auc(labels, preds) == 1.0


def test_auc_all_tied():
    assert weighted_auc([1, 0, 1, 0], [0.3, 0.3, 0.3, 0.3]) == 0.5


def test_auc_four_row_case():
    # three of the four positive/negative pairs rank correctly
    assert weighted_auc([1, 0, 1, 0], [0.8, 0.7, 0.6, 0.5]) == 0.75


def test_gini_is_two_auc_minus_one():
    labels = [1, 0, 1, 0]
    preds = [0.8, 0.7, 0.6, 0.5]
    assert composite_metric(labels, preds).G == 2 * weighted_auc(labels, preds) - 1
    assert composite_metric(labels, preds).G == 0.5


def test_gini_reversal():
    assert composite_metric([1, 0, 0], [0.1, 0.5, 0.9]).G == -1.0


def test_capture_perfect_three_rows():
    # cutoff 0.04 * 41 = 1.64: only the positive (weight 1) fits
    assert default_rate_at_4pct([1, 0, 0], [0.9, 0.5, 0.1]) == 1.0


def test_capture_reversed_three_rows():
    # the first-ranked row weighs 20 > 1.64, so nothing is captured
    assert default_rate_at_4pct([1, 0, 0], [0.1, 0.5, 0.9]) == 0.0


def test_capture_four_row_case():
    # cutoff 0.04 * 42 = 1.68: only the top row (a positive) fits
    assert default_rate_at_4pct([1, 0, 1, 0], [0.8, 0.7, 0.6, 0.5]) == 0.5


def test_composite_perfect():
    rep = composite_metric([1, 0, 0], [0.9, 0.5, 0.1])
    assert rep.G == 1.0 and rep.D == 1.0 and rep.M == 1.0


def test_composite_reversed():
    rep = composite_metric([1, 0, 0], [0.1, 0.5, 0.9])
    assert rep.G == -1.0 and rep.D == 0.0 and rep.M == -0.5


def test_composite_four_row_case():
    rep = composite_metric([1, 0, 1, 0], [0.8, 0.7, 0.6, 0.5])
    assert rep.G == 0.5 and rep.D == 0.5 and rep.M == 0.5
    assert rep.auc_w == 0.75
    assert rep.n_rows == 4 and rep.n_pos == 2 and rep.total_weight == 42.0


def test_report_identities_and_dict():
    rep = composite_metric([1, 0, 1, 0, 0], [0.9, 0.8, 0.3, 0.2, 0.7])
    assert rep.M == 0.5 * (rep.G + rep.D)
    assert rep.G == 2 * rep.auc_w - 1
    d = rep.as_dict()
    assert list(d) == ["G", "D", "M", "auc_w", "n_rows", "n_pos", "total_weight"]


def test_sweep_matches_pairwise_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 300))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        preds = rng.random(n)
        if rng.random() < 0.5:
            preds = np.round(preds, int(rng.integers(1, 3)))  # force tie clusters
        got = weighted_auc(labels, preds)
        want = pairwise_weighted_auc(labels, preds)
        assert abs(got - want) <= 1e-12


def test_capture_matches_hand_walk_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 300))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        preds = np.round(rng.random(n), 2)
        assert default_rate_at_4pct(labels, preds) == capture_at_fraction(labels, preds)


def test_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=500)
    labels[:2] = [0, 1]
    preds = np.round(rng.random(500), 6)
    base = composite_metric(labels, preds)
    warped = composite_metric(labels, preds**3 + 5.0)
    assert warped.G == base.G
    assert warped.D == base.D
    assert warped.M == base.M


def test_symmetry_without_ties():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, size=400)
    labels[:2] = [0, 1]
    preds = rng.random(400)  # continuous draws: ties have measure zero
    assert abs(weighted_auc(labels, preds) + weighted_auc(labels, -preds) - 1.0) < 1e-12


def test_capture_monotone_in_positive_prediction():
    rng = np.random.default_rng(13)
    labels = rng.integers(0, 2, size=120)
    labels[:2] = [0, 1]
    preds = rng.random(120)
    pos_rows = np.flatnonzero(labels == 1)
    before = default_rate_at_4pct(labels, preds)
    bumped = preds.copy()
    bumped[pos_rows[0]] = 1.5  # push one positive to the front
    assert default_rate_at_4pct(labels, bumped) >= before


def test_metric_bounds_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        rep = composite_metric(labels, rng.random(n))
        assert -1.0 <= rep.G <= 1.0
        assert 0.0 <= rep.D <= 1.0
        assert -0.5 <= rep.M <= 1.0
        assert 0.0 <= rep.auc_w <= 1.0


def test_single_class_raises():
    with pytest.raises(DataError, match="weighted AUC needs both classes present"):
        weighted_auc([1, 1, 1], [0.1, 0.2, 0.3])
    with pytest.raises(DataError, match="weighted AUC needs both classes present"):
        composite_metric([0, 0], [0.1, 0.2])


def test_no_positives_raises():
    with pytest.raises(DataError, match="capture rate needs at least one positive row"):
        default_rate_at_4pct([0, 0, 0], [0.1, 0.2, 0.3])


def test_length_mismatch_raises():
    with pytest.raises(DataError, match=r"labels \(2\) and predictions \(3\) differ in length"):
        weighted_auc([1, 0], [0.1, 0.2, 0.3])


def test_empty_input_raises():
    with pytest.raises(DataError):
        weighted_auc([], [])


def test_non_binary_labels_raise():
    with pytest.raises(DataError, match=r"labels must be 0 or 1, found 2\.0$"):
        weighted_auc([1, 2, 0], [0.1, 0.2, 0.3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_predictions_raise(bad):
    with pytest.raises(DataError, match=f"predictions must be finite, found {bad}$"):
        composite_metric([0, 1, 0, 1], [0.1, bad, 0.2, 0.9])


def test_labels_are_checked_before_the_prediction_length():
    # labels are prepared first, so labels that are wrong twice over fail
    # on their own content, not on the length; both errors exit 3
    for fn in (composite_metric, weighted_auc, default_rate_at_4pct):
        with pytest.raises(DataError, match="labels must be 0 or 1") as raised:
            fn([1, 2, 0], [0.1, 0.2])
        assert "differ in length" not in str(raised.value)
        assert raised.value.exit_code == 3
        with pytest.raises(DataError, match="at least one row") as raised:
            fn([], [0.1, 0.2])
        assert "differ in length" not in str(raised.value)
    for labels in ([1, 0, 0], Labels([1, 0, 0])):
        with pytest.raises(DataError, match=r"labels \(3\) and predictions \(2\)") as raised:
            composite_metric(labels, [0.1, 0.2])
        assert raised.value.exit_code == 3


# ---------------------------------------------------------------------------
# labels prepared once, predictions checked per call: the same bits as
# the three-pass oracle


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _outcome(fn, labels, preds):
    """Every field's exact bits, or the error type and message."""
    try:
        result = fn(labels, preds)
    except Exception as exc:  # the type itself is compared
        return type(exc), str(exc)
    if isinstance(result, float):
        return _bits(result)
    return {key: _bits(value) for key, value in result.as_dict().items()}


def _metric_case(rng):
    """Labels and predictions of one seeded case; a few are invalid."""
    n = int(rng.integers(1, 6)) if rng.random() < 0.3 else int(rng.integers(6, 300))
    share = rng.choice([0.0, 0.05, 0.3, 0.5, 0.95, 1.0], p=[0.05, 0.2, 0.25, 0.25, 0.2, 0.05])
    labels = (rng.random(n) < share).astype(np.int64)
    preds = _metric_preds(rng, n)
    labels = rng.choice([
        labels, labels.astype(np.int8), labels.astype(np.float64),
        labels.astype(bool), labels.tolist(),
    ])
    fault = rng.integers(20)
    if fault == 0:
        labels = np.asarray(labels, dtype=np.float64)
        labels[rng.integers(n)] = rng.choice([np.nan, 2.0, -1.0, 0.5, np.inf])
    elif fault == 1:
        preds = preds.copy()
        preds[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    elif fault == 2:
        preds = preds[: int(rng.integers(0, n))]
    elif fault == 3:
        labels, preds = [], []
    return labels, preds


def _metric_preds(rng, n):
    """One seeded prediction vector of ``n`` rows, of a random kind."""
    kind = rng.integers(6)
    if kind == 0:
        preds = rng.random(n)
    elif kind == 1:  # tie clusters
        preds = np.round(rng.random(n), int(rng.integers(0, 3)))
    elif kind == 2:  # every row tied
        preds = np.full(n, rng.choice([0.0, 0.5, -3.0]))
    elif kind == 3:  # large magnitudes, whole numbers tie often
        preds = rng.integers(-1_000_000, 1_000_001, size=n).astype(np.float64)
    elif kind == 4:  # large magnitudes, signed zeros mixed in
        preds = rng.uniform(-1e6, 1e6, size=n)
        preds[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
    else:  # few levels
        preds = rng.choice([0.1, 0.2, 0.3], size=n)
    return preds


def test_metric_matches_three_pass_oracle_bit_for_bit():
    rng = np.random.default_rng(2024)
    more = np.random.default_rng(2025)  # extra vectors; the cases stay as drawn
    pairs = (
        (composite_metric, three_pass_composite_metric),
        (weighted_auc, three_pass_weighted_auc),
        (default_rate_at_4pct, three_pass_default_rate),
    )
    scored = reused = 0
    for _ in range(2500):
        labels, preds = _metric_case(rng)
        for fn, oracle in pairs:
            want = _outcome(oracle, labels, preds)
            assert _outcome(fn, labels, preds) == want, (fn.__name__, labels, preds)
        scored += not isinstance(want, tuple)
        try:
            prepared = Labels(labels)
        except DataError:
            continue
        # one prepared label set scores several vectors, in shuffled
        # order, with the same bits as the raw labels and the oracle
        vectors = [preds] + [_metric_preds(more, len(prepared)) for _ in range(3)]
        for i in more.permutation(len(vectors)):
            p = vectors[i]
            for fn, oracle in pairs:
                want = _outcome(oracle, labels, p)
                assert _outcome(fn, labels, p) == want, (fn.__name__, labels, p)
                assert _outcome(fn, prepared, p) == want, (fn.__name__, labels, p)
            reused += not isinstance(want, tuple)
    assert 1200 < scored < 2300  # reports and errors are both well exercised
    assert reused > 4 * 1200  # and so are reused label sets
