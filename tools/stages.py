"""Wall time of the pipeline stages at fixed sizes, recorded in BENCH_21.json.

Usage (from any directory, no flags, no environment variables):

    python3 tools/stages.py

It imports morsespec from the ``src/`` next to this file.  First it times
``cli_import``: the median wall time of 21 fresh interpreters that run
``import morsespec.cli`` with that ``src/`` on the path, minus the median of
21 that run ``pass``, the two alternating; so it reads what the package's
import adds to every command's start-up.  With ``PYTHONDONTWRITEBYTECODE=1``
and no ``__pycache__`` every run compiles the package from source;
``bytecode_cache`` records whether a cache was there to read.  Then it
times, on torus grids of 32², 64², 96², 128², 256² and 512² vertices (96² is
the benchmark's morse-dense size), the stages
that do not depend on the field once per size (group ``full complex``):

* ``build_torus_grid``: the complex itself, its face and vertex tuples;
* ``selectors``: ``homology.homology_basis`` of the full complex, which names
  the classes of ``--class all`` / ``grade:K:index:I``; each boundary matrix
  goes through ``gf2.reduce_columns``, which takes union-find on a surface;
* ``selectors_elimination``: the same walk with every matrix on the
  elimination loop ``gf2.reduce_sparse``.  The two run alternately, so their
  ratio is read off one run on one host;

and under each of ``expr:random:1`` and ``expr:bump``:

* ``expression_field``: the field, its vertex values and their extension
  to cells;
* ``make_field``: the same field built again from its vertex values, which is
  the lower-star extension alone;
* ``build_gradient`` and ``build_morse_complex``;
* ``verify_d_squared`` (a set XOR per boundary entry) and ``to_json_dict``
  (the boundary columns as they are stored, ascending position tuples);
* ``betti``: ``MorseComplex.betti``, the Morse homology walk through
  ``gf2.reduce_columns``;
* ``spectral_value``: ``project_class`` and ``spectral_value`` of every
  selector class, which reduce against the position-set echelon of
  ``MorseComplex.boundary_echelon``, built once per grade;
* ``expand`` of every class of the Morse homology basis;
* ``json_emit``: ``cli._emit`` of the ``homology`` report of that complex
  and field with stdout caught in memory, so it times the encoder the CLI
  calls.  Once, untimed, before the timed runs, its text is checked to equal
  ``json.dumps(report, indent=2, allow_nan=False)`` (whose length is the
  ``report_bytes`` counter).

Every stage runs with the cyclic garbage collector off, as the CLI runs its
commands; a ``gc.collect()`` before each run frees what the last one left.
Every stage runs three times and its fastest run is kept, so fast and slow
stages are compared on the same number of samples.  Each group also reports
the 64²→128², 128²→256² and 256²→512² ratios of every stage, where linear
cost gives about 4, and its structural counters.  Among the field counters,
``betti_alloc_peak_mib`` is the peak of the memory that one more, untimed run
of ``betti`` allocates above what was allocated when it began (``tracemalloc``),
so it reads the walk's own working set whatever the process peak was before,
and ``selector_sigmas`` lists the spectral value of each selector class, so
the runs of two commits can be checked to agree.  The selector counters are,
per grade d, the columns of the d-th boundary matrix that a cleared
reduction reduces and the ones it skips (the rank of the (d+1)-th), read off
the basis sizes; next to them, ``route_columns`` gives, from one more
untimed run, the columns that each route of ``gf2.reduce_columns`` reduced
per grade (``edges``, ``rows`` or ``sparse``, skipped columns not counted),
and ``process_peak_rss_mib`` is the process's peak resident set right after
the two selector routes at that size, which the elimination route sets from
256² on.  The whole run peaks near 1.9 GB, at 512².

The run is stored in ``BENCH_21.json`` at the checkout root under
``runs[LABEL]``: LABEL is the git SHA of HEAD, with ``+worktree`` appended
when ``src/`` differs from HEAD.  Everything else already in the file is
kept, so the runs of other commits and any benchmark numbers recorded there
survive a new run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import morsespec.homology as fullh  # noqa: E402
from morsespec import (  # noqa: E402
    build_torus_grid, cli, gf2, homology_basis, make_field, verify_d_squared,
)
from morsespec.fields import expression_field  # noqa: E402
from morsespec.morse import build_gradient, build_morse_complex  # noqa: E402
from morsespec.spectral import project_class, spectral_value  # noqa: E402

SIZES = (32, 64, 96, 128, 256, 512)
FIELDS = ("random:1", "bump")
FULL = "full complex"
STAGES = {
    FULL: ("build_torus_grid", "selectors", "selectors_elimination"),
    **{f: ("expression_field", "make_field", "build_gradient", "build_morse_complex",
           "verify_d_squared", "to_json_dict", "betti", "spectral_value", "expand",
           "json_emit")
       for f in FIELDS},
}
OUT = ROOT / "BENCH_21.json"
ROUTES = ("edges", "rows", "sparse")
IMPORT_RUNS = 21


def timed_once(fn):
    """(wall time, result) of one run, after a ``gc.collect()``."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def timed(fn):
    """(fastest wall time of three runs, last result)."""
    best = float("inf")
    for _ in range(3):
        t, out = timed_once(fn)
        best = min(best, t)
    return best, out


def timed_pair(fa, fb):
    """``timed`` of fa and of fb, their runs alternating: (time a, time b, results)."""
    best_a = best_b = float("inf")
    for _ in range(3):
        ta, out_a = timed_once(fa)
        tb, out_b = timed_once(fb)
        best_a, best_b = min(best_a, ta), min(best_b, tb)
    return best_a, best_b, (out_a, out_b)


def alloc_peak_mib(fn) -> float:
    """Peak of what one run of fn allocates above its start, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def cli_import() -> dict:
    """The ``cli_import`` stage: import time of the CLI net of interpreter
    start-up, from fresh interpreters."""
    src = ROOT / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs: dict[str, list[float]] = {"import morsespec.cli": [], "pass": []}
    for _ in range(IMPORT_RUNS):
        for code, times in runs.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - t0)
    cli, bare = (statistics.median(times) for times in runs.values())
    return {
        "seconds": round(cli - bare, 6),
        "interpreter_seconds": round(bare, 6),
        "runs": IMPORT_RUNS,
        "bytecode_cache": (src / "morsespec" / "__pycache__").is_dir(),
    }


def emitted(report: dict) -> str:
    """What ``cli._emit`` prints for ``report``, caught in memory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(report, None)
    return out.getvalue()


def measure(cx, name: str, selectors: list) -> tuple[dict, dict]:
    sec = {}
    sec["expression_field"], fld = timed(lambda: expression_field(cx, name))
    sec["make_field"], _ = timed(lambda: make_field(cx, fld.vertex_values))
    sec["build_gradient"], g = timed(lambda: build_gradient(fld))
    sec["build_morse_complex"], mc = timed(lambda: build_morse_complex(g))
    sec["verify_d_squared"], d2 = timed(lambda: verify_d_squared(mc))
    if not d2:
        raise RuntimeError("Morse boundary does not square to zero")
    sec["to_json_dict"], dump = timed(mc.to_json_dict)
    sec["betti"], betti = timed(mc.betti)
    betti_peak = alloc_peak_mib(mc.betti)
    sec["spectral_value"], sigmas = timed(
        lambda: [spectral_value(mc, project_class(mc, Y)).sigma for Y in selectors]
    )
    classes = [h for hs in homology_basis(mc).values() for h in hs]
    sec["expand"], chains = timed(lambda: [g.expand(h.support) for h in classes])
    report = {
        "command": "homology",
        "inputs": {"complex": cx.descriptor, "field": f"expr:{name}"},
        "results": {
            "betti": betti,
            "critical_census": {str(k): mc.rank(k) for k in sorted(mc.grades)},
            "d_squared_zero": True,
            "morse_complex": dump,
        },
        "pass_counts": {"passed": 1, "failed": 0},
        "seed": 0,
    }
    text = json.dumps(report, indent=2, allow_nan=False)
    if emitted(report) != text + "\n":
        raise RuntimeError("cli._emit does not print what json.dumps(indent=2) gives")
    sec["json_emit"], _ = timed(lambda: emitted(report))
    counters = {
        "cells": len(cx),
        "critical": len(g.critical),
        "basis_classes": len(classes),
        "betti": betti,
        "betti_alloc_peak_mib": round(betti_peak, 2),
        "selector_sigmas": sigmas,
        "expand_cells_out": sum(len(c) for c in chains),
        "report_bytes": len(text),
    }
    return sec, counters


def elimination_basis(cx):
    """``homology_basis`` with every boundary matrix on ``gf2.reduce_sparse``."""
    entry = gf2.reduce_columns
    gf2.reduce_columns = gf2.reduce_sparse
    try:
        return fullh.homology_basis(cx)
    finally:
        gf2.reduce_columns = entry


def route_columns(cx) -> dict:
    """Per grade, the columns each route of ``gf2.reduce_columns`` reduced."""
    saved = {name: getattr(gf2, f"reduce_{name}") for name in ("columns", *ROUTES)}
    counts: dict = {}
    grade = cx.top_dim + 1

    def entry(columns, skip=()):
        nonlocal grade
        grade -= 1
        return saved["columns"](columns, skip)

    def route(name):
        def counted(columns, *skip):
            out = saved[name](columns, *skip)
            if out is not None:  # reduce_rows returns None on a matrix it refuses
                cleared = skip[0] if skip else ()
                counts.setdefault(str(grade), {})[name] = len(columns) - len(cleared)
            return out
        return counted

    gf2.reduce_columns = entry
    for name in ROUTES:
        setattr(gf2, f"reduce_{name}", route(name))
    try:
        fullh.homology_basis(cx)
    finally:
        for name, fn in saved.items():
            setattr(gf2, f"reduce_{name}", fn)
    return counts


def measure_full(n: int) -> tuple[dict, dict, object, list]:
    """Stages of the bare n-by-n torus; returns the complex and its selector
    classes for the fields."""
    sec = {}
    sec["build_torus_grid"], cx = timed(lambda: build_torus_grid(n, n))
    sec["selectors"], sec["selectors_elimination"], (basis, same) = timed_pair(
        lambda: fullh.homology_basis(cx), lambda: elimination_basis(cx)
    )
    if basis != same:
        raise RuntimeError("the selectors differ from the elimination route's")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reduced, cleared, rank_above = {}, {}, 0
    for d in range(cx.top_dim, -1, -1):
        cleared[d] = rank_above
        reduced[d] = len(cx.ids_of_dim(d)) - rank_above
        rank_above = reduced[d] - len(basis[d])
    counters = {
        "columns_reduced": reduced,
        "columns_cleared": cleared,
        "route_columns": route_columns(cx),
        "process_peak_rss_mib": round(peak, 1),
    }
    return sec, counters, cx, [h for hs in basis.values() for h in hs]


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    startup = cli_import()
    print(f"cli_import {startup['seconds']:.4f}s over "
          f"{startup['interpreter_seconds']:.4f}s of interpreter start", flush=True)
    gc.disable()
    seconds = {g: {} for g in STAGES}
    counters = {g: {} for g in STAGES}
    for n in SIZES:
        sec, cnt, cx, selectors = measure_full(n)
        for g in STAGES:
            if g != FULL:
                sec, cnt = measure(cx, g, selectors)
            seconds[g][f"{n}x{n}"] = {k: round(v, 6) for k, v in sec.items()}
            counters[g][f"{n}x{n}"] = cnt
            print(f"{g:>12} {n:>3}² " + "  ".join(f"{k} {v:.4f}s" for k, v in sec.items()),
                  flush=True)
        del cx, selectors
    ratios = {
        g: {
            f"{a}->{b}": {
                s: round(seconds[g][f"{b}x{b}"][s] / seconds[g][f"{a}x{a}"][s], 2)
                for s in stages
            }
            for a, b in ((64, 128), (128, 256), (256, 512))
        }
        for g, stages in STAGES.items()
    }
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", "src")
    label = f"{sha}+worktree" if sha and dirty else sha or "unknown"
    run = {
        "git_sha": sha,
        "src_modified": bool(dirty),
        "python": platform.python_version(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src" / "morsespec").glob("*.py")
        ),
        "cli_import": startup,
        "seconds": seconds,
        "ratios": ratios,
        "counters": counters,
    }
    doc = json.loads(OUT.read_text()) if OUT.is_file() else {}
    doc.setdefault("runs", {})[label] = run
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT.name} runs[{label!r}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
