"""Wall time and peak memory of ``homology`` at a base commit and at this
checkout, in alternating pairs, recorded in BENCH_27.json.

Usage (from any directory, no environment variables):

    python3 tools/homology_pairs.py [BASE]

BASE is a git revision, ``HEAD`` when left out; its ``src/`` is exported
with ``git archive`` into a temporary directory.  The other side is the
``src/`` next to this file, working-tree edits included.  Three commands
run on both sides: ``homology`` on the 96² torus with a seeded CSV field of
distinct dyadic values k / 2^20 (the benchmark's morse-dense shape), and
on the 256² and 512² tori with ``expr:random:1``.  Each command runs in
alternating pairs, the side that runs first alternating from pair to pair.
Each run is a fresh small Python parent that starts the command, so
``wall_s`` is the child's wall time as that parent sees it and
``peak_rss_mib`` the parent's ``RUSAGE_CHILDREN`` peak, the command's own.
Every run's stdout must hash the same on both sides, or the script stops.
The 512² runs peak near 500 MiB each, one at a time.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_27.json"
DENOM = 1 << 20
SHAPES = {"96x96 seeded CSV": (96, 10), "256x256 random:1": (256, 6),
          "512x512 random:1": (512, 4)}  # n, pairs

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


def seeded_csv(path: Path, n: int) -> None:
    ks = random.Random(1).sample(range(DENOM), n * n)
    path.write_text("".join(",".join(repr(k / DENOM) for k in ks[j * n:(j + 1) * n]) + "\n"
                            for j in range(n)))


def git(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True)


def main() -> int:
    base = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    sha = git("rev-parse", "--verify", f"{base}^{{commit}}").stdout.decode().strip()
    if not sha:
        raise SystemExit(f"{base!r} is not a commit")
    doc = {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
           "base": base, "base_sha": sha,
           "git_sha": git("rev-parse", "HEAD").stdout.decode().strip(),
           "src_modified": git("diff", "--quiet", "HEAD", "--", "src").returncode != 0,
           "shapes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = git("archive", sha, "src").stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        sides = {"base": tmp / "src", "change": ROOT / "src"}
        seeded_csv(tmp / "field96.csv", 96)
        for shape, (n, pairs) in SHAPES.items():
            field = str(tmp / "field96.csv") if n == 96 else "expr:random:1"
            cli = [sys.executable, "-m", "morsespec.cli", "homology",
                   "--complex", f"torus:{n}:{n}", "--field", field]
            runs = {side: [] for side in sides}
            digests = set()
            for p in range(pairs):
                for side in list(sides)[:: 1 if p % 2 == 0 else -1]:
                    env = dict(os.environ, PYTHONPATH=str(sides[side]))
                    line = subprocess.run([sys.executable, "-c", RUN, *cli], env=env,
                                          check=True, capture_output=True, text=True).stdout
                    wall, peak, digest = json.loads(line)
                    runs[side].append((wall, peak))
                    digests.add(digest)
            if len(digests) != 1:
                raise SystemExit(f"{shape}: stdout differs between runs")
            before, after = runs["base"], runs["change"]
            doc["shapes"][shape] = {
                "pairs": pairs,
                "stdout_sha256": digests.pop(),
                **{side: {"wall_s": [round(w, 4) for w, _ in rs],
                          "wall_s_q1_median_q3": quartiles([w for w, _ in rs]),
                          "peak_rss_mib": [round(m, 1) for _, m in rs]}
                   for side, rs in runs.items()},
                "change_faster_pairs": sum(a[0] < b[0] for a, b in zip(after, before)),
                "median_speedup": round(statistics.median(w for w, _ in before)
                                        / statistics.median(w for w, _ in after), 3),
            }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
