import contextlib
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
