"""The stage-pair core of ``tools/ab.py``, with the working tree on both sides.

The tool's timings are its own business; these tests run one round on a 16x16
torus and check that every stage of its list reports and that a side that
builds another matching stops it.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import morsespec

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path[:] = path
    for name in [m for m in sys.modules if m.split(".")[0] == "morsespec_base"]:
        del sys.modules[name]


@pytest.fixture
def sides(ab):
    # No git: the working tree, imported a second time under the base's name.
    base = ab.load_package("morsespec_base", ROOT / "src")
    assert base is not morsespec and base.morse is not morsespec.morse
    return {"base": base, "change": ab.load_package("morsespec", ROOT / "src")}


def test_every_stage_reports(ab, sides, monkeypatch, tmp_path):
    monkeypatch.setattr(ab, "CSV_N", 16)  # the smooth CSV group at this size too
    csv = tmp_path / "smooth.csv"
    csv.write_text(ab.to_csv(ab.smooth_grid(random.Random(1), 16), 16))
    fields = ab.fields_at(16, csv)
    seconds, counts = ab.stage_pairs(sides, 16, fields, 1)
    assert list(seconds) == [ab.FULL, "random:1", "bump", "smooth CSV"]
    for group, stages in seconds.items():
        want = ab.FULL_STAGES if group == ab.FULL else ab.FIELD_STAGES
        assert list(stages) == list(want)
        for runs in stages.values():
            assert {side: len(times) for side, times in runs.items()} == {"base": 1, "change": 1}
    assert counts[ab.FULL] == {"cells": 4 * 16 * 16, "selector_classes": 4}
    for group in fields:
        assert counts[group]["betti"] == [1, 2, 1] and len(counts[group]["selector_sigmas"]) == 4


def test_a_side_with_another_matching_stops_the_tool(ab, sides, monkeypatch, tmp_path):
    base = sides["base"]

    def empty(fld):
        return base.morse.DiscreteGradient(fld, {}, frozenset(range(len(fld.complex))))

    monkeypatch.setattr(base.morse, "build_gradient", empty)
    with pytest.raises(SystemExit, match="^random:1 16x16: the sides disagree on critical cells$"):
        ab.stage_pairs(sides, 16, ab.fields_at(16, tmp_path / "unused.csv"), 1)
