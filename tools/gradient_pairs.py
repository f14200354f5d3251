"""Wall time of ``morse.build_gradient`` at a base commit and at this checkout,
interleaved in one process, recorded as the ``gradient`` block of BENCH_30.json.

Usage (from any directory, no environment variables):

    python3 tools/gradient_pairs.py [BASE [ROUNDS]]

BASE is a git revision (``HEAD`` when left out) and ROUNDS the number of
rounds (7 when left out).  BASE's ``src/morsespec/morse.py`` is read with
``git show`` and loaded as a module of the package in the ``src/`` next to
this file, so both sides build their matching on the same complex and field
objects, and only the two ``build_gradient`` functions differ.  The fields
are the benchmark's 96² smooth CSV shape (``perfbench.workloads.smooth_grid``
with seed 1), ``expr:bump``, ``expr:twobump`` and ``expr:random:1`` on the
96² torus, and ``expr:bump`` and ``expr:random:1`` on the 256² torus.

In each round each side builds each field once, with the cyclic collector
off and a ``gc.collect()`` before the run; the side that runs first
alternates from round to round; ``median_round_speedup`` is the median of
the rounds' base-over-change ratios, which a drifting host moves less than
the ratio of the two medians.  Both sides must give the same ``pair_up``
and ``critical``, or the script stops.  ``regular_star_share`` is the share
of lower stars that are a regular point's: the vertex, two edges, and one
cell above dimension 1 that has both edges among its faces.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_30.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from morsespec import build_torus_grid, make_field  # noqa: E402
from morsespec.fields import expression_field  # noqa: E402
from morsespec.morse import build_gradient, vertex_rank  # noqa: E402
from perfbench.workloads import DENOM, smooth_grid  # noqa: E402


def git(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True)


def base_route(sha: str):
    """``build_gradient`` of ``sha``'s morse.py, loaded inside this checkout's package."""
    source = git("show", f"{sha}:src/morsespec/morse.py").stdout
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "morse.py"
        path.write_bytes(source)
        spec = importlib.util.spec_from_file_location("morsespec._base_morse", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.build_gradient


def fields():
    cx96, cx256 = build_torus_grid(96, 96), build_torus_grid(256, 256)
    smooth = [k / DENOM for k in smooth_grid(random.Random(1), 96)]
    yield "96x96 smooth CSV", make_field(cx96, smooth)
    for cx in (cx96, cx256):
        n = cx.torus_shape[0]
        names = ("bump", "twobump", "random:1") if n == 96 else ("bump", "random:1")
        for name in names:
            yield f"{n}x{n} {name}", expression_field(cx, name)


def regular_star_share(fld) -> float:
    cx, rank = fld.complex, vertex_rank(fld)
    stars: list[list[int]] = [[] for _ in rank]
    for c in range(len(cx)):
        stars[max(map(rank.__getitem__, cx.vertices[c]))].append(c)
    edge_end = cx.ids_of_dim(1).stop
    regular = sum(len(m) == 4 and m[2] < edge_end <= m[3] and {m[1], m[2]} <= set(cx.faces[m[3]])
                  for m in stars)
    return round(regular / len(stars), 4)


def quartiles(xs: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return [round(q1, 5), round(q2, 5), round(q3, 5)]


def main() -> int:
    base = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    sha = git("rev-parse", "--verify", f"{base}^{{commit}}").stdout.decode().strip()
    if not sha:
        raise SystemExit(f"{base!r} is not a commit")
    sides = {"base": base_route(sha), "change": build_gradient}
    gc.disable()
    block = {"how": __doc__.split("\n\n")[0].replace("\n", " "),
             "python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
             "base": base, "base_sha": sha,
             "git_sha": git("rev-parse", "HEAD").stdout.decode().strip(),
             "src_modified": git("diff", "--quiet", "HEAD", "--", "src").returncode != 0,
             "rounds": rounds, "shapes": {}}
    for name, fld in fields():
        runs = {side: [] for side in sides}
        for r in range(rounds):
            for side in list(sides)[:: 1 if r % 2 == 0 else -1]:
                gc.collect()
                start = time.perf_counter()
                g = sides[side](fld)
                runs[side].append(time.perf_counter() - start)
                if side == "base":
                    want = (g.pair_up, g.critical)
                elif (g.pair_up, g.critical) != want:
                    raise SystemExit(f"{name}: the two routes give different matchings")
        before, after = runs["base"], runs["change"]
        block["shapes"][name] = {
            "regular_star_share": regular_star_share(fld),
            "base_s": [round(t, 5) for t in before],
            "change_s": [round(t, 5) for t in after],
            "base_q1_median_q3_s": quartiles(before),
            "change_q1_median_q3_s": quartiles(after),
            "change_faster_rounds": sum(a < b for a, b in zip(after, before)),
            "median_speedup": round(statistics.median(before) / statistics.median(after), 3),
            "median_round_speedup": round(statistics.median(
                b / a for a, b in zip(after, before)), 3),
        }
        print(name, block["shapes"][name]["median_speedup"], file=sys.stderr)
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["gradient"] = block
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
