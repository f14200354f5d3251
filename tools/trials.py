"""Wall time and peak memory of ``compare --trials`` on one CPU and on all of
them, recorded in BENCH_26.json.

Usage (from any directory, no flags, no environment variables):

    python3 tools/trials.py

It runs the CLI from the ``src/`` next to this file on three shapes: 50 trials
on the 16² torus (the benchmark's small-batch command) and 8 trials on the
64² and 128² tori, all with ``--class all``.  Each shape runs in alternating
pairs: ``taskset -c 0`` (one CPU in the affinity mask, so one process) and
unpinned (every CPU this process may run on, one worker each), the side that
runs first alternating from pair to pair.  Each run is a fresh small Python
parent that starts the command, so ``wall_s`` is the child's wall time as
that parent sees it, and ``peak_rss_mib`` is the parent's
``RUSAGE_CHILDREN`` peak: the largest resident set of the command or any of
its workers.  Every run's stdout must hash the same on both sides, or the
script stops.  The result goes to ``BENCH_26.json`` at the checkout root, with
the git SHA of HEAD and whether ``src/`` differs from it.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_26.json"
SHAPES = {"16x16 --trials 50": (16, 50, 10), "64x64 --trials 8": (64, 8, 5),
          "128x128 --trials 8": (128, 8, 5)}  # n, trials, pairs
SIDES = {"taskset -c 0": ["taskset", "-c", "0"], "unpinned": []}

# One run: the child's wall time, its RUSAGE_CHILDREN peak and its stdout's sha256.
RUN = """
import hashlib, json, resource, subprocess, sys, time
t0 = time.perf_counter()
out = subprocess.run(sys.argv[1:], check=True, stdout=subprocess.PIPE).stdout
wall = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([wall, peak, hashlib.sha256(out).hexdigest()]))
"""


def quartiles(xs: list[float]) -> list[float]:
    q = statistics.quantiles(xs, n=4)
    return [round(q[0], 4), round(statistics.median(xs), 4), round(q[2], 4)]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    git = [subprocess.run(["git", *argv], cwd=ROOT, text=True, capture_output=True)
           for argv in (["rev-parse", "HEAD"], ["diff", "--quiet", "HEAD", "--", "src"])]
    doc = {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
           "git_sha": git[0].stdout.strip(), "src_modified": git[1].returncode != 0,
           "shapes": {}}
    for shape, (n, trials, pairs) in SHAPES.items():
        cli = [sys.executable, "-m", "morsespec.cli", "compare", "--complex", f"torus:{n}:{n}",
               "--trials", str(trials), "--seed", "1", "--class", "all"]
        runs = {side: [] for side in SIDES}
        digests = set()
        for p in range(pairs):
            for side in list(SIDES)[:: 1 if p % 2 == 0 else -1]:
                line = subprocess.run([sys.executable, "-c", RUN, *SIDES[side], *cli], env=env,
                                      check=True, capture_output=True, text=True).stdout
                wall, peak, digest = json.loads(line)
                runs[side].append((wall, peak))
                digests.add(digest)
        if len(digests) != 1:
            raise SystemExit(f"{shape}: stdout differs between runs")
        pinned, unpinned = runs["taskset -c 0"], runs["unpinned"]
        doc["shapes"][shape] = {
            "pairs": pairs,
            "stdout_sha256": digests.pop(),
            **{side: {"wall_s": [round(w, 4) for w, _ in rs],
                      "wall_s_q1_median_q3": quartiles([w for w, _ in rs]),
                      "peak_rss_mib": [round(m, 1) for _, m in rs]} for side, rs in runs.items()},
            "unpinned_faster_pairs": sum(u[0] < s[0] for u, s in zip(unpinned, pinned)),
            "median_speedup": round(statistics.median(w for w, _ in pinned)
                                    / statistics.median(w for w, _ in unpinned), 3),
        }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
