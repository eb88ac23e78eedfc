import math

import numpy as np
import pytest

from e2ebench import stats


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = [0.31, 0.12, 0.5, 0.47, 0.2, 0.05, 0.9]
    assert stats.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=0, abs=1e-15)


def test_percentile_interpolates_and_rejects_bad_input():
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    assert stats.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_samples_above_counts_strictly_greater():
    values = list(range(100))
    p90 = stats.percentile(values, 90)
    assert p90 == pytest.approx(89.1)
    assert stats.samples_above(values, p90) == 10
    assert stats.samples_above([1.0, 1.0], 1.0) == 0


def test_grouped_percentile_weighs_operands_equally():
    # a pooled median of two clusters would jump between them with the
    # sample count's parity; the grouped one stays between them
    groups = {"fast": [1.0, 1.1, 1.2], "slow": [3.0, 3.1, 3.2, 3.3, 3.4]}
    assert stats.grouped_percentile(groups, 50) == pytest.approx(
        (1.1 + 3.2) / 2)
    with pytest.raises(ValueError):
        stats.grouped_percentile({}, 50)


def test_ratio():
    assert stats.ratio(3.0, 1.5) == 2.0
    with pytest.raises(ZeroDivisionError):
        stats.ratio(1.0, 0.0)


def test_unattributed_keeps_its_sign():
    assert stats.unattributed(1.0, {"a": 0.25, "b": 0.5}) == pytest.approx(
        0.25)
    assert stats.unattributed(1.0, {"a": 0.75, "b": 0.5}) == pytest.approx(
        -0.25)
    assert stats.unattributed(2.0, {}) == 2.0


def test_layer_means_add_up_to_the_mean_call():
    calls = [(0.4, {"plan": 0.2, "exec": 0.15}),
             (0.6, {"plan": 0.25, "exec": 0.3})]
    records = []
    for wall, layers in calls:
        rec = dict(layers, wall=wall)
        rec["rest"] = stats.unattributed(wall, layers)
        records.append(rec)
    means = stats.layer_means(records)
    assert math.isclose(means["plan"] + means["exec"] + means["rest"],
                        means["wall"])
    # a key only some records carry is averaged over those records
    assert stats.layer_means([{"x": 1.0}, {"x": 3.0, "y": 5.0}]) == {
        "x": 2.0, "y": 5.0}
