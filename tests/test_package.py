import contextlib
import inspect
import io
from pathlib import Path

import morsespec


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library example\n\n```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "[1, 2, 1]"
    assert len(lines) == 5  # betti, then one sigma per basis class (1 + 2 + 1)


def test_all_names_resolve():
    missing = [name for name in morsespec.__all__ if not hasattr(morsespec, name)]
    assert missing == []
    assert len(set(morsespec.__all__)) == len(morsespec.__all__)


def test_test_only_names_are_not_exported():
    # The predicates only tests call live in tests/oracles.py.
    removed = ("functoriality_check", "roundtrip_check", "lipschitz_check",
               "LipschitzReport", "same_class", "spectral_gap")
    assert [name for name in removed if hasattr(morsespec, name)] == []


def test_morse_builders_take_one_argument():
    # A field knows its complex and a gradient its field; ties break by id only.
    for fn in (morsespec.build_gradient, morsespec.build_morse_complex,
               morsespec.MorseComplex.from_field):
        assert len(inspect.signature(fn).parameters) == 1, fn
    for fn in (morsespec.build_gradient, morsespec.MorseComplex.from_field):
        assert "tie_break" not in inspect.signature(fn).parameters
