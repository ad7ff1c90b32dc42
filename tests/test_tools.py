"""The claim rule of the alternating-pair scripts in tools/, on synthetic
runs: a gain is claimed when at least nine pairs in ten read lower and the
medians differ by more than the parent's interquartile range."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
import verify_pairs  # noqa: E402

# quartiles (inclusive) 102.25 and 106.75, so the parent's IQR is 4.5
PARENT = [100.0 + i for i in range(10)]


def _change(offsets):
    return [p + o for p, o in zip(PARENT, offsets)]


def test_both_scripts_share_one_comparison():
    assert verify_pairs.summarize is bench_pairs.summarize
    assert bench_pairs.quartiles(PARENT) == {"median": 104.5, "q1": 102.25, "q3": 106.75}


@pytest.mark.parametrize(
    "offsets, lower, met",
    [
        ([-10] * 10, 10, True),
        # one pair in ten may read higher
        ([-10] * 9 + [10], 9, True),
        ([-10] * 8 + [10, 10], 8, False),
        # ties count for neither side
        ([-10] * 9 + [0], 9, True),
        ([-10] * 8 + [0, 0], 8, False),
        ([0] * 10, 0, False),
        # every pair lower, but the medians differ by less than the IQR
        ([-1] * 10, 10, False),
        ([-4.5] * 10, 10, False),
        ([-4.6] * 10, 10, True),
    ],
)
def test_the_claim_rule(offsets, lower, met):
    out = bench_pairs.summarize(PARENT, _change(offsets))
    assert out["change_lower"] == lower
    assert out["pairs"] == 10
    assert out["parent_iqr"] == 4.5
    assert out["claim_rule_met"] is met
