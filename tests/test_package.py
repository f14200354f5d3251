import contextlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morsespec
from morsespec import (
    BoundParams,
    CellComplex,
    ContinuationReport,
    HomologyClass,
    MorseComplex,
    MoserNorm,
    ScalarField,
    SpectralReport,
    SweepReport,
    build_torus_grid,
    make_field,
    rho,
    sandwich_built,
    sweep,
)
from morsespec.homology import homology_basis as full_basis


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
    # The predicates and reference routes only tests call live in tests/oracles.py.
    removed = ("functoriality_check", "roundtrip_check", "lipschitz_check",
               "LipschitzReport", "same_class", "spectral_gap", "exhaustive_spectral_value",
               "chain_action")
    assert [name for name in removed if hasattr(morsespec, name)] == []


def test_morse_builders_take_one_argument():
    # A field knows its complex and a gradient its field; ties break by id only.
    for fn in (morsespec.build_gradient, morsespec.build_morse_complex,
               morsespec.MorseComplex.from_field):
        assert len(inspect.signature(fn).parameters) == 1, fn
    for fn in (morsespec.build_gradient, morsespec.MorseComplex.from_field):
        assert "tie_break" not in inspect.signature(fn).parameters


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every command starts a fresh interpreter; importing dataclasses (which
    # imports inspect) and running its decorators took 11-14 ms of that.
    # -S keeps site's own imports out, so every module loaded is the CLI's.
    pkg_parent = Path(morsespec.__file__).resolve().parent.parent
    code = "import sys, morsespec.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(pkg_parent)),
    ).stdout
    assert out.strip() == "[]"


def test_value_classes_are_read_only():
    # One instance of each formerly frozen class, from a 3x3 torus, a field
    # and the same field shifted by a constant.
    cx = build_torus_grid(3, 3)
    fld = make_field(cx, [(7 * v) % 9 / 8 for v in range(9)])
    mc = MorseComplex.from_field(fld)
    mc2 = MorseComplex.from_field(make_field(cx, [v + 0.5 for v in fld.vertex_values]))
    Y = full_basis(cx)[1][0]
    X = HomologyClass(0, frozenset([mc.grades[0][0]]), "morse", owner=mc)
    values = [BoundParams(0.5, sigma_minus=1.0), MoserNorm(1.0, 2.0, 3.0), cx, fld,
              sandwich_built(mc, mc2, X), X, rho(mc, Y), sweep([mc, mc2], [Y])[0]]
    assert [type(obj) for obj in values] == [
        BoundParams, MoserNorm, CellComplex, ScalarField, ContinuationReport, HomologyClass,
        SpectralReport, SweepReport]
    for obj in values:
        for attr in type(obj).__slots__:
            before = getattr(obj, attr)
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)
            assert getattr(obj, attr) is before, (type(obj), attr)
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_constructors_keep_their_parameter_names_and_defaults():
    p = BoundParams(0.5, sigma_minus=1.0)
    assert (p.delta, p.delta0, p.delta1, p.delta2, p.sigma_minus) == (0.5, 0.0, 0.0, 0.0, 1.0)
    assert BoundParams(delta=0.25, delta0=0.1, delta1=0.2, delta2=0.3).delta2 == 0.3
    n = MoserNorm(f_c0=1.0, h_integral=2.0, kappa=3.0)
    assert (n.f_c0, n.h_integral, n.kappa) == (1.0, 2.0, 3.0)
    cx = build_torus_grid(2, 2)
    cx2 = CellComplex(faces=cx.faces, vertices=cx.vertices, starts=cx.starts, descriptor="x")
    assert (cx2.faces, cx2.vertices, cx2.starts, cx2.descriptor) == (
        cx.faces, cx.vertices, cx.starts, "x")
    fld = ScalarField(complex=cx, vertex_values=(0.0,) * 4, cell_values=(0.0,) * len(cx))
    assert fld.complex is cx and fld.cell_values == (0.0,) * len(cx)
    mc = MorseComplex.from_field(make_field(cx, [0.0, 1.0, 2.0, 3.0]))
    s = frozenset([0])
    X = HomologyClass(1, s, "morse", owner=mc)
    assert (X.grade, X.support, X.basis, X.owner) == (1, s, "morse", mc)
    assert (HomologyClass(0, s).basis, HomologyClass(0, s).owner) == ("full", None)
    c = ContinuationReport(source_sigma=1.0, target_sigma=2.0, lower=0.5, upper=1.5, passed=True)
    assert list(c.to_json_dict()) == ["source_sigma", "target_sigma", "lower", "upper", "pass"]
    r = SpectralReport(sigma=1.0, witness=s, spectrum_member=True, critical_cell=0, grade=0)
    assert (r.sigma, r.witness, r.spectrum_member, r.critical_cell, r.grade) == (1.0, s, True, 0, 0)
    w = SweepReport(rho_values=[1.0, 2.0], lipschitz_margins=[0.5], spectra_equal=False,
                    constant=None)
    assert w.to_json_dict() == {"rho_values": [1.0, 2.0], "lipschitz_margins": [0.5],
                                "spectra_equal": False, "constant": None}
    assert list(w.to_json_dict()) == ["rho_values", "lipschitz_margins", "spectra_equal",
                                      "constant"]


def test_homology_class_equality_ignores_owner():
    cx = build_torus_grid(2, 2)
    mc = MorseComplex.from_field(make_field(cx, [0.0, 1.0, 2.0, 3.0]))
    s = frozenset([4, 5])
    a, b = HomologyClass(1, s, "morse", owner=mc), HomologyClass(1, s, "morse", owner=cx)
    assert a == b and hash(a) == hash(b) and a == HomologyClass(1, frozenset(s), "morse")
    assert len({a, b}) == 1
    assert a != HomologyClass(0, s, "morse")
    assert a != HomologyClass(1, frozenset([4]), "morse")
    assert a != HomologyClass(1, s, "full")
    assert a != (1, s, "morse")
