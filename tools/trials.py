"""Wall time and memory of the forking commands on one CPU and on all of them,
recorded in BENCH_28.json.

Usage (from any directory, no flags, no environment variables):

    python3 tools/trials.py

It runs the CLI from the ``src/`` next to this file on seven shapes, all with
``--class all``: ``compare --trials`` with 50 trials on the 16² torus (the
benchmark's small-batch command) and 8 trials on the 64² and 128² tori, and
``spectral`` and ``compare --field-a/--field-b`` on the 96² torus with seeded
smooth CSV fields of dyadic values (the benchmark's classes-smooth shape) and
on the 256² torus with ``expr:bump`` (and ``expr:twobump`` as field b).  Each
shape runs in alternating pairs: ``taskset -c 0`` (one CPU in the affinity
mask, so one process) and unpinned (every CPU this process may run on), the
side that runs first alternating from pair to pair.  Each run is a fresh small
Python parent that starts the command, so ``wall_s`` is the child's wall time
as that parent sees it, ``peak_rss_mib`` is the parent's ``RUSAGE_CHILDREN``
peak (the largest resident set of the command or any of its workers), and
``summed_rss_mib`` is the largest sum of the resident sets of the command and
its workers, sampled from ``/proc`` every 5 ms while it runs.  Every run's
stdout must hash the same on both sides, or the script stops.  The result goes
to ``BENCH_28.json`` at the checkout root, with the git SHA of HEAD and whether
``src/`` differs from it; other top-level keys of an existing file are kept.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_28.json"
DENOM = 1 << 20
CSV_N = 96
SHAPES = {  # CLI arguments after ``morsespec``, pairs
    "16x16 --trials 50": ("compare --complex torus:16:16 --trials 50 --seed 1", 10),
    "64x64 --trials 8": ("compare --complex torus:64:64 --trials 8 --seed 1", 5),
    "128x128 --trials 8": ("compare --complex torus:128:128 --trials 8 --seed 1", 5),
    "spectral 96x96 smooth CSV": ("spectral --complex torus:96:96 --field a.csv", 10),
    "compare 96x96 smooth CSV":
        ("compare --complex torus:96:96 --field-a a.csv --field-b b.csv", 10),
    "spectral 256x256 bump": ("spectral --complex torus:256:256 --field expr:bump", 5),
    "compare 256x256 bump, twobump":
        ("compare --complex torus:256:256 --field-a expr:bump --field-b expr:twobump", 5),
}
SIDES = {"taskset -c 0": ["taskset", "-c", "0"], "unpinned": []}

# One run: the child's wall time, its RUSAGE_CHILDREN peak, the largest sampled
# sum of its process tree's resident sets, and its stdout's sha256.
RUN = """
import hashlib, json, resource, subprocess, sys, threading, time

def rss_kib(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            kids = fh.read().split()
        with open(f"/proc/{pid}/status") as fh:
            rows = [r for r in fh if r.startswith("VmRSS:")]
    except OSError:  # the process is gone
        return 0
    return sum(int(r.split()[1]) for r in rows) + sum(rss_kib(int(k)) for k in kids)

t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out = []
reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
reader.start()
summed = 0
while proc.poll() is None:
    summed = max(summed, rss_kib(proc.pid))
    time.sleep(0.005)
wall = time.perf_counter() - t0
reader.join()
assert proc.returncode == 0, proc.returncode
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([wall, peak, summed / 1024, hashlib.sha256(out[0]).hexdigest()]))
"""


def quartiles(xs: list[float]) -> list[float]:
    q = statistics.quantiles(xs, n=4)
    return [round(q[0], 4), round(statistics.median(xs), 4), round(q[2], 4)]


def smooth_csv(path: Path, n: int, rng: random.Random) -> None:
    """Three torus Gaussians summed and scaled to numerators k of dyadic values k / 2^20."""
    bumps = [(rng.uniform(0, n), rng.uniform(0, n), rng.uniform(0.4, 1.0),
              rng.uniform(n / 10, n / 6)) for _ in range(3)]
    scale = (DENOM - 1) / sum(h for _, _, h, _ in bumps)

    def k(i: int, j: int) -> int:
        total = 0.0
        for x0, y0, h, w in bumps:
            dx, dy = min(abs(i - x0), n - abs(i - x0)), min(abs(j - y0), n - abs(j - y0))
            total += h * math.exp(-(dx * dx + dy * dy) / (2.0 * w * w))
        return int(total * scale)

    path.write_text("".join(",".join(repr(k(i, j) / DENOM) for i in range(n)) + "\n"
                            for j in range(n)))


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    git = [subprocess.run(["git", *argv], cwd=ROOT, text=True, capture_output=True)
           for argv in (["rev-parse", "HEAD"], ["diff", "--quiet", "HEAD", "--", "src"])]
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc.update({"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
                "git_sha": git[0].stdout.strip(), "src_modified": git[1].returncode != 0,
                "shapes": {}})
    with tempfile.TemporaryDirectory() as tmp:
        rng = random.Random(28)
        for name in ("a.csv", "b.csv"):
            smooth_csv(Path(tmp) / name, CSV_N, rng)
        for shape, (command, pairs) in SHAPES.items():
            cli = [sys.executable, "-m", "morsespec.cli", *command.split(), "--class", "all"]
            runs = {side: [] for side in SIDES}
            digests = set()
            for p in range(pairs):
                for side in list(SIDES)[:: 1 if p % 2 == 0 else -1]:
                    line = subprocess.run([sys.executable, "-c", RUN, *SIDES[side], *cli],
                                          env=env, cwd=tmp, check=True, capture_output=True,
                                          text=True).stdout
                    wall, peak, summed, digest = json.loads(line)
                    runs[side].append((wall, peak, summed))
                    digests.add(digest)
            if len(digests) != 1:
                raise SystemExit(f"{shape}: stdout differs between runs")
            pinned, unpinned = runs["taskset -c 0"], runs["unpinned"]
            doc["shapes"][shape] = {
                "command": f"morsespec {command} --class all",
                "pairs": pairs,
                "stdout_sha256": digests.pop(),
                **{side: {"wall_s": [round(r[0], 4) for r in rs],
                          "wall_s_q1_median_q3": quartiles([r[0] for r in rs]),
                          "peak_rss_mib": [round(r[1], 1) for r in rs],
                          "summed_rss_mib": [round(r[2], 1) for r in rs],
                          "summed_rss_mib_median": round(statistics.median(r[2] for r in rs), 1)}
                   for side, rs in runs.items()},
                "unpinned_faster_pairs": sum(u[0] < s[0] for u, s in zip(unpinned, pinned)),
                "median_speedup": round(statistics.median(r[0] for r in pinned)
                                        / statistics.median(r[0] for r in unpinned), 3),
            }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
