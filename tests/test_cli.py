import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from morsespec import cli, morse
from morsespec.cli import MAX_ORACLE_CELLS, MAX_TORUS_VERTICES, main
from morsespec.complex import build_torus_grid
from morsespec.errors import InputFormatError
from morsespec.fields import MAX_FAMILY_STEPS, random_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def bad_input(capsys, *argv):
    """Run a command that must be refused; return its diagnostic message."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    return json.loads(err)["error"]


def test_homology_torus(capsys):
    code, rep, _ = run_json(
        capsys, "homology", "--complex", "torus:4:4", "--field", "expr:random:7"
    )
    assert code == 0
    assert rep["results"]["betti"] == [1, 2, 1]
    assert rep["results"]["d_squared_zero"] is True
    assert rep["inputs"] == {"complex": "torus:4:4", "field": "expr:random:7"}


def test_homology_tetra_and_cycle_files(capsys, tmp_path):
    tetra = tmp_path / "tetra.txt"
    tetra.write_text("0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    vals = tmp_path / "vals.txt"
    vals.write_text("0.0\n0.25\n0.5\n0.75\n")
    code, rep, _ = run_json(
        capsys, "homology", "--complex", f"file:{tetra}", "--field", str(vals)
    )
    assert code == 0 and rep["results"]["betti"] == [1, 0, 1]

    c4 = tmp_path / "c4.txt"
    c4.write_text("0 1\n1 2\n2 3\n3 0\n")
    vals4 = tmp_path / "vals4.txt"
    vals4.write_text("0\n1\n2\n1\n")
    code, rep, _ = run_json(
        capsys, "homology", "--complex", f"file:{c4}", "--field", str(vals4)
    )
    assert code == 0 and rep["results"]["betti"] == [1, 1]


def test_spectral_point_and_fundamental(capsys):
    code, rep, _ = run_json(
        capsys,
        "spectral", "--complex", "torus:3:3", "--field", "expr:random:3",
        "--class", "point",
    )
    assert code == 0
    (entry,) = rep["results"]
    assert entry["spectrum_member"] is True
    code2, rep2, _ = run_json(
        capsys,
        "spectral", "--complex", "torus:3:3", "--field", "expr:random:3",
        "--class", "fundamental",
    )
    assert code2 == 0
    assert rep2["results"][0]["sigma"] >= entry["sigma"]


def test_spectral_oracle_flag(capsys):
    code, rep, _ = run_json(
        capsys,
        "spectral", "--complex", "torus:3:3", "--field", "expr:twobump",
        "--class", "all", "--oracle",
    )
    assert code == 0
    assert len(rep["results"]) == 4  # 1 + 2 + 1 classes on the torus
    for entry in rep["results"]:
        assert entry["oracle_match"] is True
        assert entry["oracle_sigma"] == entry["sigma"]
    assert rep["pass_counts"] == {"passed": 4, "failed": 0}
    # One grade of this Morse complex has 23 boundary generators, more than a
    # brute-force coset search can take; rho on the full complex has no such
    # limit.
    code, rep, _ = run_json(
        capsys,
        "spectral", "--complex", "torus:8:8", "--field", "expr:random:1",
        "--class", "all", "--oracle",
    )
    assert code == 0
    assert [entry["oracle_match"] for entry in rep["results"]] == [True] * 4


def test_spectral_oracle_cell_cap(capsys, monkeypatch):
    # Refused before any field or Morse complex is built.
    monkeypatch.setattr(cli, "_parse_field", None)
    monkeypatch.setattr(morse, "build_morse_complex", None)
    error = bad_input(
        capsys, "spectral", "--complex", "torus:257:256", "--field", "expr:bump", "--oracle"
    )
    assert error == (
        f"--oracle takes up to {MAX_ORACLE_CELLS} cells; "
        "complex spec 'torus:257:256' has 263168"
    )


def test_compare_fields_and_trials(capsys, tmp_path):
    base = tmp_path / "a.csv"
    base.write_text("0,0.25,0.5\n0.125,0.375,0.625\n0.75,0.875,1.0\n")
    shiftf = tmp_path / "b.csv"
    shiftf.write_text("0.5,0.75,1.0\n0.625,0.875,1.125\n1.25,1.375,1.5\n")
    code, rep, _ = run_json(
        capsys,
        "compare", "--complex", "torus:3:3",
        "--field-a", str(base), "--field-b", str(shiftf), "--class", "all",
    )
    assert code == 0
    for entry in rep["results"]:
        assert entry["pass"] is True
        assert entry["lower"] == entry["upper"] == 0.5
        assert entry["target_sigma"] - entry["source_sigma"] == 0.5

    code, rep, _ = run_json(
        capsys,
        "compare", "--complex", "torus:3:3", "--trials", "25", "--seed", "7",
    )
    assert code == 0
    assert rep["pass_counts"]["failed"] == 0
    assert rep["pass_counts"]["passed"] == 25 * 4


def test_compare_requires_fields_or_trials(capsys):
    code, _, err = run_cli(capsys, "compare", "--complex", "torus:3:3")
    assert code == 2
    assert "field-a" in json.loads(err)["error"]
    code, out, err = run_cli(capsys, "compare", "--complex", "torus:3:3", "--trials", "-2")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert "--trials" in error and "-2" in error


def test_sweep_translate_constant(capsys):
    code, rep, _ = run_json(
        capsys,
        "sweep", "--complex", "torus:5:5", "--field", "expr:random:11",
        "--family", "translate:5", "--class", "all",
    )
    assert code == 0
    for entry in rep["results"]:
        assert entry["spectra_equal"] is True
        assert entry["constant"] is True
        assert all(m >= 0 for m in entry["lipschitz_margins"])


def test_sweep_perturbation_margins(capsys):
    code, rep, _ = run_json(
        capsys,
        "sweep", "--complex", "torus:4:4", "--field", "expr:bump",
        "--family", "perturb:0.2:6:3", "--class", "point",
    )
    assert code == 0
    (entry,) = rep["results"]
    assert all(m >= 0 for m in entry["lipschitz_margins"])


def test_sweep_constant_family(capsys):
    code, rep, _ = run_json(
        capsys,
        "sweep", "--complex", "torus:3:3", "--field", "expr:random:5",
        "--family", "constant:4", "--class", "point",
    )
    assert code == 0
    (entry,) = rep["results"]
    assert entry["constant"] is True and len(entry["rho_values"]) == 4


def test_bounds_iterate(capsys):
    code, rep, _ = run_json(
        capsys,
        "bounds", "iterate", "--x0", "1", "--alpha", "2", "--beta", "1", "--n", "3",
    )
    assert code == 0
    assert rep["results"]["value"] == 15.0
    assert rep["results"]["oracle"] == 15.0


def test_bounds_step_and_limit(capsys):
    code, rep, _ = run_json(
        capsys,
        "bounds", "step", "--delta", "0.5", "--d0", "0", "--d1", "0", "--sigma", "1",
    )
    assert code == 0 and rep["results"]["value"] == 1.0
    code, rep, _ = run_json(
        capsys,
        "bounds", "limit", "--delta", "0.5", "--d0", "0", "--d1", "0",
        "--d2", "0", "--sigma", "-3",
    )
    assert code == 0 and rep["results"]["value"] == 0.0


def test_bounds_limit_statement_variant(capsys):
    _, plain, _ = run_json(
        capsys,
        "bounds", "limit", "--delta", "0.5", "--d0", "0.1", "--d1", "0.2",
        "--d2", "0.05", "--sigma", "1",
    )
    _, stmt, _ = run_json(
        capsys,
        "bounds", "limit", "--delta", "0.5", "--d0", "0.1", "--d1", "0.2",
        "--d2", "0.05", "--sigma", "1", "--statement-variant",
    )
    assert stmt["results"]["value"] > plain["results"]["value"]


def test_bounds_chain_convergence(capsys):
    code, rep, _ = run_json(
        capsys,
        "bounds", "chain", "--delta", "0.5", "--d0", "0.1", "--d1", "0.2",
        "--d2", "0.05", "--sigma", "1", "--convergence",
    )
    assert code == 0
    table = rep["results"]["doubling_table"]
    assert rep["results"]["gap_monotone"] is True
    gaps = [row["gap"] for row in table]
    assert gaps == sorted(gaps, reverse=True)


def test_bounds_convergence_nonmonotone_exits_1(capsys):
    # at this point the chained bound crosses its limit, so the absolute gap
    # is not monotone under doubling; the command must report exit code 1
    code, rep, _ = run_json(
        capsys,
        "bounds", "chain", "--delta", "0.5", "--d0", "1.0", "--d1", "2.0",
        "--sigma", "-1", "--convergence",
    )
    assert code == 1
    assert rep["results"]["gap_monotone"] is False
    assert rep["pass_counts"]["failed"] == 1


def test_bounds_precondition_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "bounds", "step", "--delta", "0.5", "--d1", "0.5", "--sigma", "0",
    )
    assert code == 2
    diag = json.loads(err)
    assert diag["kind"] == "PreconditionError"
    assert diag["threshold"] == pytest.approx(0.0075)


def test_bounds_chain_step_count_error(capsys):
    code, _, err = run_cli(
        capsys,
        "bounds", "chain", "--delta", "0.5", "--d1", "0.2", "--sigma", "1",
        "--n-steps", "10",
    )
    assert code == 2
    assert json.loads(err)["minimum"] == 54


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "homology", "--complex", "moebius:3", "--field", "expr:bump"
    )
    assert code == 2 and "complex spec" in json.loads(err)["error"]
    code, _, err = run_cli(
        capsys, "homology", "--complex", "torus:1:4", "--field", "expr:bump"
    )
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 x\n")
    code, _, err = run_cli(
        capsys, "homology", "--complex", f"file:{bad}", "--field", "expr:bump"
    )
    assert code == 2 and json.loads(err)["line"] == 1
    code, _, err = run_cli(
        capsys, "spectral", "--complex", "torus:3:3", "--field", "expr:random:1",
        "--class", "grade:5:index:0",
    )
    assert code == 2
    for selector in ("grade:1:index:-1", "grade:1:index:x"):
        error = bad_input(
            capsys, "spectral", "--complex", "torus:3:3", "--field", "expr:random:1",
            "--class", selector,
        )
        assert selector in error and "int()" not in error
    error = bad_input(capsys, "homology", "--complex", "torus:a:4", "--field", "expr:bump")
    assert "torus:a:4" in error and "int()" not in error
    # Refused before any cell is built, so this returns at once.
    error = bad_input(
        capsys, "homology", "--complex", "torus:100000:100000", "--field", "expr:bump"
    )
    assert "'torus:100000:100000'" in error and str(MAX_TORUS_VERTICES) in error
    error = bad_input(
        capsys, "sweep", "--complex", "torus:4:4", "--field", "expr:bump",
        "--family", "translate:x",
    )
    assert "--family 'translate:x'" in error
    # A filled triangle: translate needs a torus grid, and there is no
    # fundamental cycle.
    tri = tmp_path / "tri.txt"
    tri.write_text("0 1 2\n")
    error = bad_input(
        capsys, "sweep", "--complex", f"file:{tri}", "--field", "expr:random:1",
        "--family", "translate:3",
    )
    assert "--family 'translate:3'" in error and "torus" in error
    # A finite EPS_MAX that would still overflow the field values.
    (tmp_path / "big.txt").write_text("1.7e308\n" * 9)
    error = bad_input(
        capsys, "sweep", "--complex", "torus:3:3", "--field", str(tmp_path / "big.txt"),
        "--family", "perturb:1e308:2",
    )
    assert "--family 'perturb:1e308:2'" in error and "EPS_MAX" in error
    error = bad_input(
        capsys, "spectral", "--complex", f"file:{tri}", "--field", "expr:random:1",
        "--class", "fundamental",
    )
    assert "no fundamental cycle" in error
    (tmp_path / "repeat.txt").write_text("0 0 1\n")
    error = bad_input(
        capsys, "homology", "--complex", f"file:{tmp_path / 'repeat.txt'}",
        "--field", "expr:random:1",
    )
    assert "repeats a vertex" in error
    # A simplex the builder refuses is reported at its line in the file.
    (tmp_path / "repeat3.txt").write_text("0 1 2\n3 4\n5 5\n")
    code, out, err = run_cli(
        capsys, "homology", "--complex", f"file:{tmp_path / 'repeat3.txt'}",
        "--field", "expr:random:1",
    )
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["line"] == 3 and "[5, 5] repeats a vertex" in err
    # A simplex of 30 vertices closes to 2^30 - 1 cells: refused before they
    # are listed, so this returns at once.
    (tmp_path / "wide.txt").write_text(" ".join(map(str, range(30))) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "homology", "--complex", f"file:{tmp_path / 'wide.txt'}",
        "--field", "expr:random:1",
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    diag = json.loads(err)
    assert "30 vertices" in diag["error"] and str(4 * MAX_TORUS_VERTICES) in diag["error"]
    assert diag["line"] == 1
    # Refused before any field is drawn.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "random_field", None)
        error = bad_input(capsys, "compare", "--complex", "torus:3:3", "--trials", "10001")
    assert "--trials" in error and "10000" in error and "10001" in error
    # A non-finite value in a CSV grid is a format error, as in a plain file.
    (tmp_path / "nan.csv").write_text("0,1,2\n3,nan,5\n6,7,8\n")
    code, out, err = run_cli(
        capsys, "homology", "--complex", "torus:3:3", "--field", str(tmp_path / "nan.csv")
    )
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["kind"] == "InputFormatError"
    # CSV rows are numbered by their line in the file, blank lines included.
    (tmp_path / "blank.csv").write_text("0.1,0.2,0.3\n\n\n0.4,0.5,x\n0.7,0.8,0.9\n")
    code, out, err = run_cli(
        capsys, "homology", "--complex", "torus:3:3", "--field", str(tmp_path / "blank.csv")
    )
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["line"] == 4 and "'x'" in err
    # So are the lines of a plain (whitespace) field file.
    for text, line in (("0.1 0.2 0.3\n0.4 0.5 0.6\n0.7 0.8 x\n", 3),
                       ("0.1 0.2\n\n0.3 y 0.4\n0.5 0.6 0.7 0.8 0.9\n", 3)):
        (tmp_path / "bad.txt").write_text(text)
        code, out, err = run_cli(
            capsys, "homology", "--complex", "torus:3:3", "--field", str(tmp_path / "bad.txt")
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        diag = json.loads(err)
        assert diag["kind"] == "InputFormatError" and diag["line"] == line, diag
    # A random field has 2^_DENOM_BITS distinct values: more vertices are bad
    # input, refused before any value is drawn.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("morsespec.fields._DENOM_BITS", 3)
        code, out, err = run_cli(
            capsys, "homology", "--complex", "torus:3:3", "--field", "expr:random:1"
        )
    assert code == 2 and out == "" and err.count("\n") == 1
    diag = json.loads(err)
    assert diag["kind"] == "InputFormatError" and "9 vertices" in diag["error"]
    assert "2^3" in diag["error"]
    # --trials draws its own fields: explicit ones would be echoed but unused.
    for fields in (["--field-a", "expr:bump", "--field-b", "expr:bump"], ["--field-b", "a.csv"]):
        error = bad_input(capsys, "compare", "--complex", "torus:3:3", "--trials", "2", *fields)
        assert "--trials" in error and "--field-a/--field-b" in error
    # Huge vertex labels name the same complex as labels 0..3.
    tetra = tmp_path / "tetra.txt"
    reports = []
    for offset in (0, 10**30):
        tetra.write_text("".join(
            " ".join(str(offset + v) for v in face) + "\n"
            for face in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        ))
        code, out, _ = run_cli(
            capsys, "spectral", "--complex", f"file:{tetra}", "--field", "expr:random:1"
        )
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    # Argparse-level refusals get the same one-line JSON diagnostic.
    error = bad_input(
        capsys, "homology", "--complex", "torus:3:3", "--field", "expr:bump", "--class", "all"
    )
    assert error == "morsespec: unrecognized arguments: --class all"
    error = bad_input(capsys, "homology", "--complex", "torus:3:3")
    assert error.startswith("morsespec homology: ") and "--field" in error
    error = bad_input(capsys, "compare", "--complex", "torus:3:3", "--trials", "x")
    assert error.startswith("morsespec compare: ") and "--trials" in error and "'x'" in error


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["homology", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: morsespec homology")


def test_bounds_iterate_step_cap(capsys):
    # Refused before the oracle loop starts, so this returns at once.
    error = bad_input(
        capsys, "bounds", "iterate", "--x0", "1", "--alpha", "1", "--beta", "1",
        "--n", "10000001",
    )
    assert "--n" in error and "10000000" in error and "10000001" in error


@pytest.mark.parametrize("family", [
    "translate:0", "perturb:0.1:0", "constant:0",
    "perturb:0.2:3:3:99", "translate:3:4", "perturb:nan:3", "perturb:0.1:3:x", "wobble:3",
])
def test_empty_sweep_family_rejected(capsys, monkeypatch, family):
    # Refused before any Morse complex is built.
    monkeypatch.setattr(morse.MorseComplex, "from_field", None)
    error = bad_input(
        capsys, "sweep", "--complex", "torus:4:4", "--field", "expr:bump", "--family", family
    )
    assert f"--family {family!r}" in error and "int()" not in error


@pytest.mark.parametrize(
    "family", ["translate:100000000", "perturb:0.1:100000000", "constant:100000000"]
)
def test_sweep_family_length_cap(capsys, family):
    # Refused before the first field is built, so this returns at once.
    error = bad_input(
        capsys, "sweep", "--complex", "torus:3:3", "--field", "expr:bump", "--family", family
    )
    assert f"--family {family!r}" in error and str(MAX_FAMILY_STEPS) in error


@pytest.mark.parametrize("argv", [
    "limit --delta 0.5 --d0 0 --d1 100 --d2 0 --sigma 1",
    "corollary --sigma 1 --norm-plus 0 --norm-minus 0 --norm-diff 1000 --delta 0.5",
    "iterate --x0 1 --alpha 1e10 --beta 1 --n 100",
    "limit --delta 0.5 --d0 0 --d1 44 --d2 0 --sigma 1e300",
    "step --delta 0.5 --d0 1e308 --d1 0.001 --sigma 1",
    "chain --delta 0.5 --d0 1e308 --sigma 1 --n-steps 1",
])
def test_bounds_overflow_exits_2(capsys, argv):
    sub, *flags = argv.split()
    error = bad_input(capsys, "bounds", sub, *flags)
    assert error.startswith(f"bounds {sub} overflows binary64 at ")
    for flag in flags[::2]:
        assert flag[2:].replace("-", "_") + "=" in error


def test_report_overflow_exits_2(capsys, tmp_path):
    """A report value that leaves binary64 is bad input, located at its command."""
    (tmp_path / "c3.txt").write_text("0 1\n1 2\n2 0\n")
    (tmp_path / "a.txt").write_text("1.7e308 -1.7e308 3\n")
    (tmp_path / "b.txt").write_text("-1.7e308 1.7e308 3\n")
    (tmp_path / "t.txt").write_text("1.7e308 -1.7e308 3 -1.7e308\n")
    for argv in (
        ["compare", "--complex", f"file:{tmp_path / 'c3.txt'}",
         "--field-a", str(tmp_path / "a.txt"), "--field-b", str(tmp_path / "b.txt")],
        ["sweep", "--complex", "torus:2:2", "--field", str(tmp_path / "t.txt"),
         "--family", "translate:2"],
    ):
        error = bad_input(capsys, *argv)
        assert error.startswith(f"{argv[0]} overflows binary64 at complex=")
        for flag, value in zip(argv[1::2], argv[2::2]):
            assert f"{flag[2:].replace('-', '_')}={value}" in error


def cyclic_garbage(capsys, *argv) -> int:
    """Objects the cyclic collector frees after one in-process run of main
    with the collector off."""
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("small, large", [
    ("compare --complex torus:6:6 --trials 2", "compare --complex torus:6:6 --trials 20"),
    ("sweep --complex torus:6:6 --field expr:bump --family translate:3",
     "sweep --complex torus:6:6 --field expr:bump --family translate:12"),
    ("homology --complex torus:8:8 --field expr:random:1",
     "homology --complex torus:32:32 --field expr:random:1"),
])
def test_commands_make_no_reference_cycles(capsys, small, large):
    """main runs with the cyclic collector off, so a reference cycle per
    field, gradient or Morse complex would be memory that is never freed:
    the garbage left must not grow with the number of fields or cells."""
    assert cyclic_garbage(capsys, *small.split()) == cyclic_garbage(capsys, *large.split())


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_setting(capsys, monkeypatch, enabled):
    during = []
    handler = cli._DISPATCH["homology"]

    def watched(args):
        during.append(gc.isenabled())
        return handler(args)

    monkeypatch.setitem(cli._DISPATCH, "homology", watched)
    homology = ["homology", "--complex", "torus:3:3", "--field", "expr:random:1"]
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(capsys, *homology)[0] == 0
        assert gc.isenabled() is enabled
        assert run_cli(capsys, *homology[:3])[0] == 2
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False]


def test_determinism_under_seed(capsys):
    args = ["compare", "--complex", "torus:3:3", "--trials", "5", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_file_written_and_inputs_echo(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, rep, _ = run_json(
        capsys,
        "homology", "--complex", "torus:3:3", "--field", "expr:random:2",
        "--json", str(target),
    )
    assert code == 0
    on_disk = json.loads(target.read_text())
    assert on_disk == rep
    assert on_disk["inputs"]["complex"] == "torus:3:3"
    assert on_disk["inputs"]["field"] == "expr:random:2"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_json_path_leaves_stdout_empty(capsys, tmp_path, where):
    target = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    error = bad_input(
        capsys, "homology", "--complex", "torus:3:3", "--field", "expr:bump", "--json", str(target)
    )
    assert str(target) in error


def test_doublings_below_one_rejected(capsys):
    code, out, err = run_cli(
        capsys,
        "bounds", "chain", "--delta", "0.5", "--d0", "0.1", "--d1", "0.2",
        "--d2", "0.05", "--sigma", "1", "--convergence", "--doublings", "0",
    )
    assert code == 2 and out == ""
    assert "--doublings" in json.loads(err)["error"]


def test_closed_stdout_exits_141_quietly():
    # The report (about 370 kB) is larger than a pipe buffer, so the writer
    # is still blocked on the pipe when the reader goes away.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "morsespec.cli", "homology",
         "--complex", "torus:64:64", "--field", "expr:random:1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_one_gradient_build_per_field(capsys, monkeypatch, tmp_path):
    real = morse.build_gradient
    counter = tmp_path / "builds"

    def counting(*args, **kwargs):
        # One byte appended per build, so the builds of trial workers count.
        with open(counter, "ab") as fh:
            fh.write(b".")
        return real(*args, **kwargs)

    # Replace every reference, so no module can build around the count.
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("morsespec"):
            for attr, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, attr, counting)

    def builds(*argv):
        counter.write_bytes(b"")
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        return len(counter.read_bytes())

    cpus(monkeypatch, 3)

    assert builds(
        "spectral", "--complex", "torus:6:6", "--field", "expr:random:1", "--class", "all"
    ) == 1
    assert builds(
        "compare", "--complex", "torus:6:6",
        "--field-a", "expr:random:1", "--field-b", "expr:random:2",
    ) == 2
    assert builds("compare", "--complex", "torus:6:6", "--trials", "3") == 6
    assert builds(
        "sweep", "--complex", "torus:6:6", "--field", "expr:random:1",
        "--family", "translate:4", "--class", "all",
    ) == 4


def cpus(monkeypatch, n: int) -> None:
    """Let ``compare --trials`` see n CPUs, so it runs n processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("command", [
    "compare --complex torus:6:6 --trials 7 --seed 3 --class all",
    "compare --complex torus:6:6 --trials 2 --seed 3 --class all",
    "compare --complex torus:5:4 --trials 5 --seed 8 --class point",
])
def test_trials_report_does_not_depend_on_worker_count(capsys, monkeypatch, command):
    outs = []
    with warnings.catch_warnings(record=True) as caught:
        # Python 3.12 and later warn when a process with threads forks.
        warnings.simplefilter("always")
        for n in (1, 2, 3):
            cpus(monkeypatch, n)
            code, out, err = run_cli(capsys, *command.split())
            assert code == 0 and err == ""
            assert no_child_left()
            outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []


@pytest.mark.parametrize("failing", [(1, 2), (0, 4)])
def test_worker_error_is_the_serial_error(capsys, monkeypatch, failing):
    # The trials at the failing indices raise, whichever process runs them;
    # the first in trial order is reported, as the serial route reports it.
    rng, grid = random.Random(4), build_torus_grid(6, 6)
    firsts = [random_field(grid, rng).vertex_values for _ in range(12)][::2]
    real = cli._compare_one

    def compare_one(cx, fa, fb, classes):
        t = firsts.index(fa.vertex_values)
        if t in failing:
            raise InputFormatError(f"trial {t} fails", line=t)
        return real(cx, fa, fb, classes)

    monkeypatch.setattr(cli, "_compare_one", compare_one)
    errs = []
    for n in (1, 2, 3):
        cpus(monkeypatch, n)
        code, out, err = run_cli(capsys, *"compare --complex torus:6:6 --trials 6 --seed 4".split())
        assert code == 2 and out == ""
        assert no_child_left()
        errs.append(err)
    assert errs[0] == errs[1] == errs[2]
    assert json.loads(errs[0]) == {"error": f"line {failing[0]}: trial {failing[0]} fails",
                                   "kind": "InputFormatError", "line": failing[0]}


def test_stopped_worker_leaves_its_trials_to_the_parent(capsys, monkeypatch):
    # Workers vanish after two trials, as if killed: the parent runs the rest.
    parent, real, done = os.getpid(), cli._compare_one, []

    def compare_one(*args):
        if os.getpid() != parent and len(done) == 2:
            os._exit(0)
        done.append(None)
        return real(*args)

    outs = []
    for n in (1, 3):
        cpus(monkeypatch, n)
        monkeypatch.setattr(cli, "_compare_one", real if n == 1 else compare_one)
        code, out, _ = run_cli(capsys, *"compare --complex torus:5:5 --trials 11 --seed 2".split())
        assert code == 0 and no_child_left()
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(done) == 11 - 2 * 2


FORKED_STAGES = [
    "spectral --complex torus:6:6 --field expr:random:1 --class all",
    "spectral --complex torus:6:6 --field expr:random:1 --class all --oracle",
    "compare --complex torus:6:6 --field-a expr:random:1 --field-b expr:random:2 --class all",
]


def parsing_pids(monkeypatch, tmp_path) -> Path:
    """A file that gets the pid of every process that parses a complex, one per line."""
    pids, real = tmp_path / "pids", cli._parse_complex

    def parse_complex(spec):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(spec)

    monkeypatch.setattr(cli, "_parse_complex", parse_complex)
    return pids


@pytest.mark.parametrize("command", FORKED_STAGES)
def test_forked_stage_report_does_not_depend_on_cpu_count(capsys, monkeypatch, tmp_path, command):
    pids, outs = parsing_pids(monkeypatch, tmp_path), []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n in (1, 2, 3):
            cpus(monkeypatch, n)
            pids.write_text("")
            code, out, err = run_cli(capsys, *command.split())
            assert code == 0 and err == ""
            assert no_child_left()
            # One process builds its complex; with two CPUs or more a worker builds its own.
            assert len(set(pids.read_text().split())) == (1 if n == 1 else 2)
            outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []


@pytest.mark.parametrize("command, error", [
    ("compare --complex torus:4:4 --field-a expr:bump --field-b expr:nope",
     "unknown field expression 'nope'"),
    ("compare --complex torus:4:4 --field-a expr:bump --field-b expr:nope --class grade:x",
     "bad class selector 'grade:x'; want point, fundamental, all "
     "or grade:K:index:I with integers K, I >= 0"),
    ("compare --complex torus:4:4 --field-a expr:bump --field-b expr:bump --class grade:1:index:7",
     "class selector 'grade:1:index:7': grade 1 has only 2 classes"),
    ("spectral --complex torus:4:4 --field expr:bump --class grade:1:index:5",
     "class selector 'grade:1:index:5': grade 1 has only 2 classes"),
    ("spectral --complex torus:4:4 --field expr:nope --class grade:1:index:5",
     "unknown field expression 'nope'"),
])
def test_forked_stage_error_is_the_serial_error(capsys, monkeypatch, command, error):
    # The worker's input fails after the parent's own stages, in the serial order.
    for n in (1, 2, 3):
        cpus(monkeypatch, n)
        assert bad_input(capsys, *command.split()) == error
        assert no_child_left()


@pytest.mark.parametrize("command", FORKED_STAGES)
def test_stopped_stage_worker_leaves_its_work_to_the_parent(capsys, monkeypatch, tmp_path, command):
    # A worker that vanishes before it starts, as if killed: the parent does its work.
    parent, real, stopped = os.getpid(), cli._parse_complex, tmp_path / "stopped"

    def parse_complex(spec):
        if os.getpid() != parent:
            stopped.write_text("a worker stopped")
            os._exit(0)
        return real(spec)

    outs = []
    for n in (1, 3):
        cpus(monkeypatch, n)
        monkeypatch.setattr(cli, "_parse_complex", parse_complex if n > 1 else real)
        code, out, err = run_cli(capsys, *command.split())
        assert code == 0 and err == "" and no_child_left()
        outs.append(out)
    assert stopped.read_text() == "a worker stopped"
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [
    *FORKED_STAGES, "compare --complex torus:6:6 --trials 5 --seed 3 --class all"])
def test_failed_fork_leaves_the_work_to_the_parent(capsys, monkeypatch, command):
    # A fork refused at a process or memory limit reads as a worker that stopped.
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    cpus(monkeypatch, 1)
    serial = run_cli(capsys, *command.split())
    cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/dev/fd"))
    assert run_cli(capsys, *command.split()) == serial
    assert serial[0] == 0 and sorted(os.listdir("/dev/fd")) == fds and no_child_left()


TETRA = "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
A_CSV = "0,0.25,0.5\n0.125,0.375,0.625\n0.75,0.875,1.0\n"
B_CSV = "0.5,0.75,1.0\n0.625,0.875,1.125\n1.25,1.375,1.5\n"


@pytest.mark.parametrize("command, piped", [
    ("spectral --complex file:{} --field expr:random:1 --class all", TETRA),
    ("compare --complex file:{} --field-a expr:random:1 --field-b expr:random:2", TETRA),
    ("compare --complex torus:3:3 --field-a a.csv --field-b {} --class all", B_CSV),
    ("compare --complex torus:3:3 --field-a a.csv --field-b {}", B_CSV.replace("1.5", "x")),
])
def test_an_input_from_a_pipe_is_read_once(capsys, monkeypatch, tmp_path, command, piped):
    # A pipe reads once: a worker that read it too would leave this process a
    # drained pipe, so a complex or field b from one runs in one process.
    monkeypatch.chdir(tmp_path)
    Path("a.csv").write_text(A_CSV)
    Path("piped").write_text(piped)
    cpus(monkeypatch, 1)
    serial = run_cli(capsys, *command.format("piped").split())
    pids = parsing_pids(monkeypatch, tmp_path)
    cpus(monkeypatch, 2)
    r, w = os.pipe()
    try:
        os.write(w, piped.encode())
        os.close(w)
        code, out, err = run_cli(capsys, *command.format(f"/dev/fd/{r}").split())
        assert (code, out.replace(f"/dev/fd/{r}", "piped"), err) == serial
    finally:
        os.close(r)
    assert serial[0] in (0, 2) and no_child_left()
    assert len(set(pids.read_text().split())) == 1


README_INPUTS = {
    "homology": ["complex", "field"],
    "spectral": ["complex", "field", "class"],
    "compare": ["complex", "field_a", "field_b", "class", "trials"],
    "sweep": ["complex", "field", "family", "class"],
    "bounds iterate": ["x0", "alpha", "beta", "n"],
    "bounds step": ["delta", "d0", "d1", "d2", "sigma"],
    "bounds chain": ["delta", "d0", "d1", "d2", "sigma", "n_steps"],
    "bounds limit": ["delta", "d0", "d1", "d2", "sigma", "statement_variant"],
}


# sha256 of each README command's stdout without its final newline, in
# README order, then of one selected class and of the perturb and constant
# sweep families; reports must stay byte-identical.
README_DIGESTS = [
    "e0dc60ababb37a4db004a4c304a91326a4e5940da76371a685a39c2ff2648dc6",
    "f375198557b278ef18c70baa72ef16a54c5b9ee495aa9fefa0fbbd187977cf90",
    "8e744afea7b53307eb804325dc634093de20cabb04ec725f61c1d90e55293adf",
    "9dabbad3e1d4f72f4d1185a217ed3975a27f6433b2f4f23485abd2af1750214e",
    "fde3dd1018011bcabaa4d5e94897077f75cdd0420218a899bff380cf802675bb",
    "3f776e428fe659c95adcc07715b46c49d8b248ec62f4a9e22816408677c8725d",
    "9e2ff6e6f88dd8485c65ecc3e4c5c2c99e7ff49818854ffd382d64efac13ab09",
    "0cc35a377b0339b4492085b46f85384b5c2e62d761f256d35c17cdbb53c63e2d",
    "f0e542e361d91ab186044327085543bc3d26b4d93eae6ecc746029fca8189b86",
    "cfdc5a21de32ec27a2b2745327b0384ef6a9a2d2aa119d150a8aa02e29576cba",
    "7820fed9e0c935e31f5a0d19939eb362e80f491d50013aeb2e6e897702ac6b1f",
    "7c5c6601ea0e027ad368615456f9b8d74139775a6a3b7cb15f88ced4ed2b991a",
]


def stdout_digest(out: str) -> str:
    return hashlib.sha256(out.removesuffix("\n").encode()).hexdigest()


def test_readme_commands(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("morsespec ")]
    assert len(commands) == 9
    # One selected class too: its witness_support is the output most
    # sensitive to a change of homology basis.
    commands.append(
        "spectral --complex torus:4:4 --field expr:random:3 --class grade:1:index:1".split()
    )
    # The README pins the translate family; these pin the other two kinds.
    commands += [line.split() for line in (
        "sweep --complex torus:4:4 --field expr:bump --family perturb:0.2:6:3 --class point",
        "sweep --complex torus:3:3 --field expr:random:5 --family constant:4 --class point",
    )]
    # The dyadic grids of test_compare_fields_and_trials.
    (tmp_path / "a.csv").write_text("0,0.25,0.5\n0.125,0.375,0.625\n0.75,0.875,1.0\n")
    (tmp_path / "b.csv").write_text("0.5,0.75,1.0\n0.625,0.875,1.125\n1.25,1.375,1.5\n")
    monkeypatch.chdir(tmp_path)
    for argv, digest in zip(commands, README_DIGESTS, strict=True):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        rep = json.loads(out)
        assert list(rep) == ["command", "inputs", "results", "pass_counts", "seed"]
        assert list(rep["inputs"]) == README_INPUTS[rep["command"]], argv
        assert stdout_digest(out) == digest, argv



# sha256 of stdout (without its final newline) of the benchmark's command
# shapes at their sizes: the small-batch compare and the morse-dense homology
# at 96x96, taken before the lower-star kernel's heap entries became its keys,
# and the classes-smooth spectral and compare at 96x96, taken while ``_emit``
# still called ``json.dumps``.
BENCHMARK_SHAPE_DIGESTS = {
    "compare --complex torus:16:16 --trials 50 --seed 1 --class all":
        "d4810851a51a7064f2578726a559c54000f7648b2ac2d05f1350acbd4ed3045e",
    "homology --complex torus:96:96 --field expr:random:1":
        "dac3c87aa8866ee1d5ded821e581e5ba11ad9b68c55d1c07df89fbf0fd1652f7",
    "spectral --complex torus:96:96 --field expr:bump --class all":
        "4a04f5cd1ef46551c6de54c85583bc64d5fee47df2eefd5b383e7bed338e42c1",
    "compare --complex torus:96:96 --field-a expr:bump --field-b expr:twobump --class all":
        "63fcce7746a9bb23eca1690bd61e51c56b3b2747a02c438f8c1fb9d94128ad67",
}


@pytest.mark.parametrize("command", list(BENCHMARK_SHAPE_DIGESTS))
def test_benchmark_command_shapes_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert stdout_digest(out) == BENCHMARK_SHAPE_DIGESTS[command]
