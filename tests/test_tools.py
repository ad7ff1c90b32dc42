"""The scripts in tools/ on synthetic input.  The claim rule of the
alternating-pair scripts: a gain is claimed when at least nine pairs in ten
read lower and the medians differ by more than the parent's interquartile
range.  The coverage script, on a toy module rather than on `glsmx verify`:
it lists exactly the functions a run never entered."""

import importlib.util
import pathlib
import sys
import textwrap

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
import verify_coverage  # noqa: E402
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


TOY = """
def used(x):
    return [y for y in range(x)]


def unused():
    return 0


def caller():
    def inner():
        return 1

    def never():
        return 2

    return inner()


class Box:
    def run(self):
        return sorted([3, 1], key=lambda v: -v)

    def idle(self):
        return None
"""


def test_coverage_lists_the_functions_a_run_never_enters(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(textwrap.dedent(TOY))
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)

    def body():
        toy.used(3)
        toy.caller()
        toy.Box().run()

    missed = verify_coverage.unentered([str(path)], body)
    qualified = sys.version_info >= (3, 11)
    names = [
        "unused",
        "caller.<locals>.never" if qualified else "never",
        "Box.idle" if qualified else "idle",
    ]
    assert [name for _, _, name in missed] == names
    assert [line for _, line, _ in missed] == [6, 14, 24]
    # class bodies, lambdas and comprehensions are not listed, entered or not
    defined = [name.rsplit(".", 1)[-1] for _, name, _ in verify_coverage.defined_functions(path)]
    assert defined == ["used", "unused", "caller", "inner", "never", "run", "idle"]
