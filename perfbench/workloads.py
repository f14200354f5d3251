"""Workloads: seeded inputs, the CLI commands of one operation, and exact gates.

Every field is a CSV grid of dyadic values k / 2^20, so each value, sum and
difference the program forms stays exact in binary64 and every check below
compares with ``==``.

An operation is what one user does in one go: one CLI command, or for
``classes-smooth`` a short session of two commands on the same fields.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

DENOM = 1 << 20

CLASS_LABELS = ["grade:0:index:0", "grade:1:index:0", "grade:1:index:1", "grade:2:index:0"]


class GateError(Exception):
    """A report that is not exactly what the inputs imply."""


@dataclass
class Proc:
    """One CLI invocation: its arguments (after ``morsespec``) and a name."""

    name: str
    argv: list[str]


@dataclass
class Op:
    """One operation: input files to write, commands to run, and its gate.

    ``check`` receives the parsed report of each command, keyed by name, and
    raises GateError when a report is wrong.
    """

    files: dict[str, str]
    procs: list[Proc]
    check: object


# ------------------------------------------------------------------ fields


def random_grid(rng: random.Random, n: int) -> list[int]:
    """n*n distinct numerators, row-major (row j, column i at j*n + i)."""
    return rng.sample(range(DENOM), n * n)


def smooth_grid(rng: random.Random, n: int) -> list[int]:
    """Sum of three torus Gaussians, scaled into [0, 2^20) and rounded."""
    bumps = [
        (rng.uniform(0, n), rng.uniform(0, n), rng.uniform(0.4, 1.0), rng.uniform(n / 10, n / 6))
        for _ in range(3)
    ]
    scale = (DENOM - 1) / sum(h for _, _, h, _ in bumps)
    out = []
    for j in range(n):
        for i in range(n):
            total = 0.0
            for x0, y0, h, w in bumps:
                dx = min(abs(i - x0), n - abs(i - x0))
                dy = min(abs(j - y0), n - abs(j - y0))
                total += h * math.exp(-(dx * dx + dy * dy) / (2.0 * w * w))
            out.append(int(total * scale))
    return out


def to_csv(ks: list[int], n: int) -> str:
    return "".join(
        ",".join(repr(k / DENOM) for k in ks[j * n : (j + 1) * n]) + "\n" for j in range(n)
    )


def values(ks: list[int]) -> list[float]:
    return [k / DENOM for k in ks]


# ------------------------------------------------------------------- gates


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise GateError(what)


def _common(report: dict, command: str) -> None:
    _require(report.get("command") == command, f"command is {report.get('command')!r}")
    _require(report["pass_counts"]["failed"] == 0, "pass_counts.failed != 0")


def check_homology(report: dict) -> None:
    _common(report, "homology")
    res = report["results"]
    _require(res["betti"] == [1, 2, 1], f"betti {res['betti']}")
    chi = sum((-1) ** int(k) * n for k, n in res["critical_census"].items())
    _require(chi == 0, f"alternating critical census {chi}, torus has 0")
    _require(res["d_squared_zero"] is True, "d_squared_zero is not true")


def check_spectral(report: dict, f: list[float]) -> dict[str, float]:
    """Check a ``spectral --class all`` report; return sigma per class."""
    _common(report, "spectral")
    res = report["results"]
    _require([e["class"] for e in res] == CLASS_LABELS, "unexpected class list")
    _require(all(e["spectrum_member"] is True for e in res), "spectrum_member false")
    sigma = {e["class"]: e["sigma"] for e in res}
    _require(sigma["grade:0:index:0"] == min(f), "grade-0 sigma != min(F)")
    _require(sigma["grade:2:index:0"] == max(f), "grade-2 sigma != max(F)")
    return sigma


def check_compare_entries(entries: list[dict], fa: list[float], fb: list[float]) -> None:
    """One pair's entries: pass, exact bounds, and extremal sigmas of both fields."""
    _require([e["class"] for e in entries] == CLASS_LABELS, "unexpected class list")
    _require(all(e["pass"] is True for e in entries), "sandwich pass false")
    diffs = [b - a for a, b in zip(fa, fb)]
    lo, hi = min(diffs), max(diffs)
    _require(all(e["lower"] == lo and e["upper"] == hi for e in entries), "sandwich bounds")
    point, top = entries[0], entries[3]
    _require(point["source_sigma"] == min(fa) and point["target_sigma"] == min(fb), "grade-0 sigma")
    _require(top["source_sigma"] == max(fa) and top["target_sigma"] == max(fb), "grade-2 sigma")


# --------------------------------------------------------------- workloads


def dense_op(rng: random.Random, n: int, tag: str) -> Op:
    """``homology`` on a fresh random field: many critical cells."""
    name = f"{tag}.csv"

    def check(reports):
        check_homology(reports["homology"])

    return Op(
        {name: to_csv(random_grid(rng, n), n)},
        [Proc("homology", ["homology", "--complex", f"torus:{n}:{n}", "--field", name])],
        check,
    )


def smooth_op(rng: random.Random, n: int, tag: str) -> Op:
    """``spectral`` then ``compare`` on two smooth fields: few critical cells."""
    ka, kb = smooth_grid(rng, n), smooth_grid(rng, n)
    fa, fb = values(ka), values(kb)
    na, nb = f"{tag}-F.csv", f"{tag}-G.csv"
    cx = f"torus:{n}:{n}"

    def check(reports):
        sigma = check_spectral(reports["spectral"], fa)
        comp = reports["compare"]
        _common(comp, "compare")
        check_compare_entries(comp["results"], fa, fb)
        for e in comp["results"]:
            _require(e["source_sigma"] == sigma[e["class"]], "source_sigma != spectral sigma")

    return Op(
        {na: to_csv(ka, n), nb: to_csv(kb, n)},
        [
            Proc("spectral", ["spectral", "--complex", cx, "--field", na, "--class", "all"]),
            Proc("compare", ["compare", "--complex", cx, "--field-a", na, "--field-b", nb,
                             "--class", "all"]),
        ],
        check,
    )


SMALL_N = 16
SMALL_TRIALS = 50


def small_op(rng: random.Random, tag: str) -> Op:
    """``compare --trials`` on a small torus: many short linear calls.

    The gate regenerates each trial's pair of fields the way ``compare
    --trials`` draws them (one ``random.Random(seed)``, ``sample`` of distinct
    numerators for field a, then field b) and checks every entry against them.
    """
    seed = rng.randrange(1 << 31)

    def check(reports):
        rep = reports["compare"]
        _common(rep, "compare")
        res = rep["results"]
        _require(len(res) == SMALL_TRIALS * len(CLASS_LABELS), f"{len(res)} entries")
        trial_rng = random.Random(seed)
        nv = SMALL_N * SMALL_N
        for t in range(SMALL_TRIALS):
            fa = values(trial_rng.sample(range(DENOM), nv))
            fb = values(trial_rng.sample(range(DENOM), nv))
            check_compare_entries(res[4 * t : 4 * t + 4], fa, fb)

    argv = ["compare", "--complex", f"torus:{SMALL_N}:{SMALL_N}", "--trials",
            str(SMALL_TRIALS), "--seed", str(seed), "--class", "all"]
    return Op({}, [Proc("compare", argv)], check)


@dataclass(frozen=True)
class Workload:
    batch_ops: int  # operations per batch; a run repeats whole batches
    make: object  # (rng, tag) -> Op


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "morse-dense": Workload(2, lambda rng, tag: dense_op(rng, 96, tag)),
    "classes-smooth": Workload(2, lambda rng, tag: smooth_op(rng, 96, tag)),
    "small-batch": Workload(4, small_op),
}


def op_rng(workload: str, seed: int, *key) -> random.Random:
    """Independent, reproducible stream for one operation."""
    return random.Random(":".join(map(str, (workload, seed, *key))))


def parse_report(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as e:
        raise GateError(f"stdout is not JSON: {e}") from None
