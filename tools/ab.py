"""A/B timings of the ``src/`` next to this file against a base commit's.

Usage (from any directory, no flags, no environment variables):

    python3 tools/ab.py BASE > BENCH_<N>.json

BASE is a git revision.  Its ``src/`` is exported with ``git archive`` into a
temporary directory; the other side, "change", is the ``src/`` next to this
file, working-tree edits included.  The tool prints one JSON document on
stdout and its progress on stderr.

Stage pairs run in this process.  BASE's package is imported a second time,
as ``morsespec_base`` (the package's modules import each other relatively).
On torus grids of 32² to 512² vertices, under ``expr:random:1`` and
``expr:bump``, and at 96² under the benchmark's smooth CSV field
(``perfbench.workloads.smooth_grid`` with seed 1), each side runs the stage
list on objects of its own, built from the same vertex values:

* once per size (group ``full complex``): ``build_torus_grid``, and
  ``selectors``, the full-complex ``homology_basis`` that names the classes
  of ``--class all``;
* under each field: ``field`` (``expression_field``, or ``load_field`` of
  the CSV file), ``make_field`` of its vertex values alone,
  ``build_gradient``, ``build_morse_complex``, ``verify_d_squared``,
  ``to_json_dict``, ``homology_basis`` (the Morse homology walk that
  ``MorseComplex.betti`` counts), ``spectral_value`` of every selector class
  after ``project_class``, ``expand`` of every Morse basis class, and
  ``json_emit``, ``cli._encode`` of the ``homology`` report.

Each of the 32 rounds per size builds both sides' complexes anew and runs
every stage once on each side, with the cyclic collector off, as the CLI
runs, and a ``gc.collect()`` before the run; the side that runs first
alternates from round to round.  Each stage reports both sides' medians and
``round_ratio``, the median over pairs of rounds of base's two seconds over
change's two (above 1: the change is faster).  Each pair has each side first
once, and a drifting host moves that ratio less than the ratio of the
medians.  ``scale`` gives the change side's 64²→128²→256²→512² ratios.  The
tool stops when the sides disagree on a gradient's critical cells, the
selectors' spectral values or the report's bytes.

Command pairs run in fresh processes: the commands of the benchmark's three
workloads (``perfbench.workloads``, seed 1), ``homology`` at 256² and 512²,
``spectral --class all --oracle`` at 256², a ``sweep`` and ``import
morsespec.cli``.  The two sides alternate, the side that runs first
alternating from pair to pair, and each run goes through ``RUN`` with its
side's own bytecode cache (``PYTHONPYCACHEPREFIX``).  Every run's stdout
must hash the same on both sides, or the tool stops.  At 512² the tool's
process peaks near 1.1 GB (both sides' objects alive).
"""

from __future__ import annotations

import gc
import importlib
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, op_rng, smooth_grid, to_csv  # noqa: E402

SIZES = (32, 64, 96, 128, 256, 512)
# Even, so each side runs first in half of them.  On a shared 2-vCPU host an
# A/A run of 16 rounds read about one stage in 70 (of those above 10 ms) off
# 1 by more than 7 %; the spread shrinks about as one over the root of ROUNDS.
ROUNDS = 32
EXPRS = ("random:1", "bump")
CSV_N = 96
FULL = "full complex"
SCALE = ((64, 128), (128, 256), (256, 512))
COMMANDS = {  # CLI arguments after ``morsespec``: pairs
    "homology --complex torus:256:256 --field expr:random:1": 6,
    "homology --complex torus:512:512 --field expr:random:1": 4,
    "spectral --complex torus:256:256 --field expr:random:1 --class all --oracle": 4,
    "sweep --complex torus:64:64 --field expr:bump --family translate:8 --class all": 6,
}
WORKLOAD_PAIRS = 10
IMPORT_PAIRS = 20

# One run of the command in argv[1:]: its wall time, its RUSAGE_CHILDREN peak
# (the largest process of its tree), the largest sampled sum of its tree's
# resident sets, its stdout's sha256 and, per process of the tree in the order
# first seen, the CPUs it was sampled on (field 39 of /proc/<pid>/stat).
RUN = """
import hashlib, json, resource, subprocess, sys, threading, time

def tree_kib(pid, cpus):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            kids = fh.read().split()
        with open(f"/proc/{pid}/status") as fh:
            rss = sum(int(r.split()[1]) for r in fh if r.startswith("VmRSS:"))
        with open(f"/proc/{pid}/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except OSError:  # the process is gone
        return 0
    cpus.setdefault(pid, set()).add(cpu)
    return rss + sum(tree_kib(int(k), cpus) for k in kids)

def finish():  # the wall time ends at the exit, not at the sampler's next poll
    out.append(proc.stdout.read())
    proc.wait()
    out.append(time.perf_counter() - t0)

t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out, cpus = [], {}
reader = threading.Thread(target=finish)
reader.start()
summed = 0
while proc.poll() is None:
    summed = max(summed, tree_kib(proc.pid, cpus))
    time.sleep(0.005)
reader.join()
assert proc.returncode == 0, proc.returncode
stdout, wall = out
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([wall, peak, summed / 1024, hashlib.sha256(stdout).hexdigest(),
                  [sorted(c) for c in cpus.values()]]))
"""


# ------------------------------------------------------------------ stages


def _sigmas(pkg, st) -> list[float]:
    mc, sp = st["build_morse_complex"], pkg.spectral
    return [sp.spectral_value(mc, sp.project_class(mc, Y)).sigma for Y in st["selectors"]]


def _expand(pkg, st) -> list:
    g = st["build_gradient"]
    return [g.expand(h.support) for hs in st["homology_basis"].values() for h in hs]


def _report(pkg, st) -> str:
    mc = st["build_morse_complex"]
    return pkg.cli._encode({
        "command": "homology",
        "inputs": {"complex": mc.complex.descriptor, "field": st["label"]},
        "results": {
            "betti": [len(hs) for hs in st["homology_basis"].values()],
            "critical_census": {str(k): mc.rank(k) for k in sorted(mc.grades)},
            "d_squared_zero": st["verify_d_squared"],
            "morse_complex": st["to_json_dict"],
        },
        "pass_counts": {"passed": 1, "failed": 0},
        "seed": 0,
    })


# Each stage maps (package, the side's products so far) to its product.
FULL_STAGES = {
    "build_torus_grid": lambda pkg, st: pkg.build_torus_grid(st["n"], st["n"]),
    "selectors": lambda pkg, st: [
        h for hs in pkg.homology.homology_basis(st["build_torus_grid"]).values() for h in hs],
}
FIELD_STAGES = {
    "field": lambda pkg, st: st["make"](pkg, st["build_torus_grid"]),
    "make_field": lambda pkg, st: pkg.make_field(st["build_torus_grid"],
                                                 st["field"].vertex_values),
    "build_gradient": lambda pkg, st: pkg.morse.build_gradient(st["field"]),
    "build_morse_complex": lambda pkg, st: pkg.morse.build_morse_complex(st["build_gradient"]),
    "verify_d_squared": lambda pkg, st: pkg.morse.verify_d_squared(st["build_morse_complex"]),
    "to_json_dict": lambda pkg, st: st["build_morse_complex"].to_json_dict(),
    "homology_basis": lambda pkg, st: pkg.morse.homology_basis(st["build_morse_complex"]),
    "spectral_value": _sigmas,
    "expand": _expand,
    "json_emit": _report,
}
# What both sides' products must agree on, by stage.
SAME = {
    "build_gradient": ("critical cells", lambda g: g.critical),
    "spectral_value": ("selector sigmas", lambda sigmas: sigmas),
    "json_emit": ("report bytes", lambda text: text),
}


def load_package(name: str, src: Path):
    """The package in ``src/morsespec`` imported as ``name``, its CLI module included."""
    if name not in sys.modules:
        init = src / "morsespec" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)])
        pkg = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]


def fields_at(n: int, csv: Path) -> dict:
    """The field groups of the n-by-n torus: label and maker(package, complex) each."""
    groups = {name: (f"expr:{name}",
                     lambda pkg, cx, name=name: pkg.fields.expression_field(cx, name))
              for name in EXPRS}
    if n == CSV_N:
        groups["smooth CSV"] = (csv.name, lambda pkg, cx: pkg.complex.load_field(csv, cx))
    return groups


def counters(group: str, st: dict) -> dict:
    if group == FULL:
        return {"cells": len(st["build_torus_grid"]), "selector_classes": len(st["selectors"])}
    return {
        "critical": len(st["build_gradient"].critical),
        "betti": [len(hs) for hs in st["homology_basis"].values()],
        "selector_sigmas": st["spectral_value"],
        "expand_cells_out": sum(map(len, st["expand"])),
        "report_bytes": len(st["json_emit"]),
    }


def stage_pairs(sides: dict, n: int, fields: dict, rounds: int) -> tuple[dict, dict]:
    """Run the stage list on the n-by-n torus, ``sides`` "base" and "change" (each a
    package) interleaved, over ``rounds`` rounds.  Returns the seconds of every run,
    ``{group: {stage: {side: [...]}}}``, and the ``counters`` of the change side's last
    round per group; raises SystemExit where the sides' products disagree."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        groups = [(FULL, FULL_STAGES, {})]
        groups += [(g, FIELD_STAGES, {"label": label, "make": make})
                   for g, (label, make) in fields.items()]
        seconds = {group: {stage: {side: [] for side in sides} for stage in stages}
                   for group, stages, _ in groups}
        counts = {}
        for r in range(rounds):
            # Each round builds its own complexes, so no side keeps one memory
            # layout for every round, and a new state frees the last one's
            # products, untimed.
            full = {side: {"n": n} for side in sides}
            for group, stages, extra in groups:
                state = full if group == FULL else {side: {**full[side], **extra} for side in sides}
                for stage, run in stages.items():
                    for side in list(sides)[:: 1 if r % 2 == 0 else -1]:
                        gc.collect()
                        t0 = time.perf_counter()
                        state[side][stage] = run(sides[side], state[side])
                        seconds[group][stage][side].append(time.perf_counter() - t0)
                    if stage in SAME:
                        what, key = SAME[stage]
                        if key(state["base"][stage]) != key(state["change"][stage]):
                            raise SystemExit(f"{group} {n}x{n}: the sides disagree on {what}")
                if r == rounds - 1:
                    counts[group] = counters(group, state["change"])
        return seconds, counts
    finally:
        if collecting:
            gc.enable()


def summary(runs: dict) -> dict:
    """Both sides' medians and the median ratio over pairs of rounds."""
    base, change = runs["base"], runs["change"]
    # Rounds 2k and 2k + 1 have each side first once, which cancels what the
    # first run leaves the second (a large string's memory, say).
    ratios = [(base[k] + base[k + 1]) / (change[k] + change[k + 1])
              for k in range(0, len(base) - 1, 2)]
    return {
        "base_s": round(statistics.median(base), 6),
        "change_s": round(statistics.median(change), 6),
        "round_ratio": round(statistics.median(ratios), 3),
    }


# ---------------------------------------------------------------- commands


def command_shapes(tmp: Path) -> list[tuple[str, list[str], int]]:
    """(shape, interpreter arguments, pairs) of each command; writes the workloads' files."""
    shapes = []
    for name, workload in WORKLOADS.items():
        op = workload.make(op_rng(name, 1, 0), name)
        for fname, text in op.files.items():
            (tmp / fname).write_text(text)
        shapes += [(f"{name}: {proc.name}", ["-m", "morsespec.cli", *proc.argv], WORKLOAD_PAIRS)
                   for proc in op.procs]
    shapes += [(cmd, ["-m", "morsespec.cli", *cmd.split()], pairs)
               for cmd, pairs in COMMANDS.items()]
    return shapes + [("import morsespec.cli", ["-c", "import morsespec.cli"], IMPORT_PAIRS)]


def quartiles(xs: list[float]) -> list[float]:
    q = statistics.quantiles(xs, n=4)
    return [round(q[0], 4), round(statistics.median(xs), 4), round(q[2], 4)]


def command_pairs(shape: str, srcs: dict, args: list[str], pairs: int, cwd: Path) -> dict:
    """``pairs`` alternating runs of ``python args`` with each side's ``src/`` on the path."""
    runs = {side: [] for side in srcs}
    # Each side writes and reads its bytecode in a cache of its own, so a
    # __pycache__ that only one tree holds, or PYTHONDONTWRITEBYTECODE, cannot
    # make one side compile on every run and the other not.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    for p in range(pairs):
        for side in list(srcs)[:: 1 if p % 2 == 0 else -1]:
            env.update(PYTHONPATH=str(srcs[side]), PYTHONPYCACHEPREFIX=str(cwd / f"pyc-{side}"))
            out = subprocess.run([sys.executable, "-c", RUN, sys.executable, *args], env=env,
                                 cwd=cwd, check=True, capture_output=True, text=True).stdout
            runs[side].append(json.loads(out))
    digests = {run[3] for rs in runs.values() for run in rs}
    if len(digests) != 1:
        raise SystemExit(f"{shape}: stdout differs between runs")
    base, change = ([run[0] for run in runs[side]] for side in ("base", "change"))
    return {
        "pairs": pairs,
        "stdout_sha256": digests.pop(),
        **{side: {"wall_s": [round(run[0], 4) for run in rs],
                  "wall_s_q1_median_q3": quartiles([run[0] for run in rs]),
                  "peak_rss_mib": [round(run[1], 1) for run in rs],
                  "summed_rss_mib": [round(run[2], 1) for run in rs],
                  "cpus": [run[4] for run in rs]}
           for side, rs in runs.items()},
        "change_faster_pairs": sum(c < b for b, c in zip(base, change)),
        "median_speedup": round(statistics.median(base) / statistics.median(change), 3),
    }


# -------------------------------------------------------------------- main


def git(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: python3 tools/ab.py BASE")
    sha = git("rev-parse", "--verify", "--quiet", f"{argv[1]}^{{commit}}").stdout.decode().strip()
    if not sha:
        raise SystemExit(f"{argv[1]!r} is not a commit")
    doc = {"how": __doc__.split("\n\n")[0].replace("\n", " "),
           "python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
           "base": argv[1], "base_sha": sha,
           "git_sha": git("rev-parse", "HEAD").stdout.decode().strip(),
           "src_modified": git("diff", "--quiet", "HEAD", "--", "src").returncode != 0}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = git("archive", sha, "src").stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        srcs = {"base": tmp / "src", "change": ROOT / "src"}
        doc["src_lines"] = {side: sum(len(p.read_text().splitlines())
                                      for p in (src / "morsespec").glob("*.py"))
                            for side, src in srcs.items()}
        sides = {"base": load_package("morsespec_base", srcs["base"]),
                 "change": load_package("morsespec", srcs["change"])}
        csv = tmp / "smooth.csv"
        csv.write_text(to_csv(smooth_grid(random.Random(1), CSV_N), CSV_N))
        stages, counts = {}, {}
        for n in SIZES:
            seconds, counted = stage_pairs(sides, n, fields_at(n, csv), ROUNDS)
            for group, runs in seconds.items():
                stages.setdefault(group, {})[f"{n}x{n}"] = {s: summary(r) for s, r in runs.items()}
                counts.setdefault(group, {})[f"{n}x{n}"] = counted[group]
                print(group, f"{n}x{n}", *(f"{s} {v['round_ratio']}"
                                           for s, v in stages[group][f"{n}x{n}"].items()),
                      file=sys.stderr, flush=True)
        doc["rounds"] = ROUNDS
        doc["stages"] = stages
        doc["scale"] = {
            group: {f"{a}->{b}": {s: round(by[f"{b}x{b}"][s]["change_s"]
                                           / by[f"{a}x{a}"][s]["change_s"], 2)
                                  for s in by[f"{a}x{a}"]}
                    for a, b in SCALE}
            for group, by in stages.items() if len(by) == len(SIZES)
        }
        doc["counters"] = counts
        doc["commands"] = {}
        for shape, args, pairs in command_shapes(tmp):
            doc["commands"][shape] = command_pairs(shape, srcs, args, pairs, tmp)
            print(shape, doc["commands"][shape]["median_speedup"], file=sys.stderr, flush=True)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
