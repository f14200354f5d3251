"""Benchmark of the morsespec command line, driven the way a user drives it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI command runs in a fresh interpreter (``op.py``), one at a time:
a closed loop with one client.  Inputs come from ``--seed`` alone.  Every
report is checked exactly (``workloads.py``); a failing operation is counted
and never timed as a success.

``--trace 0`` repeats fixed batches of operations until ``--seconds`` have
passed and prints the end-to-end metrics:

* ``batch_s``       median wall time of one batch (time to solution)
* ``op_p50_s``      median wall time of one operation
* ``setup_s``       median time from spawning a command's interpreter until
                    its handler starts: start-up, ``import morsespec.cli`` and
                    argument parsing; each command is also started once more
                    up to that point, for more samples
* ``peak_rss_mib``  largest peak RSS of any one command's process

The three times are scaled to a reference host speed.  Before each command
and after it the run times ``host.py``, a fixed program in a fresh
interpreter; a command's time is multiplied by ``HOST_REF_S`` over the mean
of the two samples around it, and set-up times by ``HOST_REF_S`` over the
run's median sample.  On a shared machine whose speed drifts by tens of
percent within seconds and over minutes, this keeps runs comparable; the
unscaled values are printed and recorded too.

``--trace 1`` runs each operation of the first batch twice, untraced and with
spans recorded around the public functions of each module (``tracer.py``),
then a scaling probe (one ``morse-dense`` and one ``classes-smooth``
operation at 64x64 and at 128x128), and prints the per-layer metrics.  Per-layer times
(``.s``) are self times and, like call counts, are per operation over the
traced batch.  ``*.scale_x4`` is the inclusive time at 128x128 over that at
64x64, where linear cost gives about 4.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``.perfbench/`` receives a record of each run:
its context (Python version, git SHA, CPUs, ``src/`` line count, seed), the
raw samples, failures, and the sha256 of every command's stdout per
(workload, seed, operation index), plus the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from tracer import now_ns, self_times
from workloads import WORKLOADS, GateError, dense_op, op_rng, parse_report, smooth_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
PROC_TIMEOUT_S = 60
PROBE_SIZES = (64, 128)
# Typical seconds of ``host.py`` on a quiet 2-vCPU machine with Python 3.11.
# Scaled times read as if the host had run at that speed throughout.
HOST_REF_S = 0.17


@dataclass
class ProcResult:
    name: str
    rc: int
    stdout: bytes
    stderr: bytes
    spawn: int
    end: int
    rss_kib: int
    timing: dict | None


@dataclass
class OpResult:
    index: object
    seconds: float  # summed wall time of its commands
    scaled: float | None  # the same at the reference host speed, if sampled
    procs: list[ProcResult]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _env() -> dict:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def spawn(cmd: list[str], cwd: Path, out, err) -> tuple[int, int, int, int]:
    """Run a command to completion: exit code, start and end instants (ns),
    and its peak RSS in KiB.  A command that outlives PROC_TIMEOUT_S is killed."""
    start = now_ns()
    p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=_env())
    killer = threading.Timer(PROC_TIMEOUT_S, p.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
        end = now_ns()
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if p.returncode is None:
            p.kill()
            p.wait()
    return p.returncode, start, end, usage.ru_maxrss


def run_proc(name: str, argv: list[str], work: Path, mode: str, tag: str) -> ProcResult:
    timing = work / f"{tag}-{name}.timing.json"
    timing.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "op.py"), str(timing), mode, "--", *argv]
    out_path, err_path = work / f"{tag}-{name}.out", work / f"{tag}-{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        rc, start, end, rss = spawn(cmd, work, out, err)
    rec = json.loads(timing.read_text()) if timing.exists() else None
    return ProcResult(name, rc, out_path.read_bytes(), err_path.read_bytes(), start, end, rss, rec)


def write_inputs(ops: list, work: Path) -> None:
    for op in ops:
        for fname, text in op.files.items():
            (work / fname).write_text(text)


def run_op(op, index, work: Path, trace: bool, host: list | None = None) -> OpResult:
    """Run an operation's commands in order.

    With ``host``, a host-speed sample is taken before the first command and
    after each one, all appended to ``host``; each command's time is scaled by
    the mean of the two samples around it.
    """
    tag = "op-" + "-".join(map(str, index)) if isinstance(index, tuple) else f"op-{index}"
    mode = "trace" if trace else "run"
    procs, scaled = [], 0.0
    if host is not None:
        host.append(host_sample(work))
    for p in op.procs:
        pr = run_proc(p.name, p.argv, work, mode, tag)
        procs.append(pr)
        if host is not None:
            host.append(host_sample(work))
            scaled += (pr.end - pr.spawn) / 1e9 * HOST_REF_S * 2 / (host[-2] + host[-1])
    seconds = sum(pr.end - pr.spawn for pr in procs) / 1e9
    return OpResult(index, seconds, scaled if host is not None else None, procs)


def check_op(op, res: OpResult) -> None:
    """Gate one operation's reports; a failure is recorded in ``res.error``."""
    try:
        for pr in res.procs:
            if pr.rc != 0:
                raise GateError(f"{pr.name} exited {pr.rc}: {pr.stderr[-300:]!r}")
            if pr.timing is None or "handler_start" not in pr.timing:
                raise GateError(f"{pr.name} left no timing record")
        op.check({pr.name: parse_report(pr.stdout) for pr in res.procs})
    except (GateError, KeyError, TypeError, IndexError, ValueError) as e:
        res.error = f"{type(e).__name__}: {e}"


def host_sample(work: Path) -> float:
    """Seconds that ``host.py``, a fixed program, takes in a fresh interpreter."""
    rc, start, end, _ = spawn([sys.executable, str(HERE / "host.py")], work, None, None)
    if rc != 0:
        raise SystemExit(f"host.py exited {rc}")
    return (end - start) / 1e9


def setup_only(proc, work: Path) -> float | None:
    """Start one command again, stopping where its handler would start."""
    pr = run_proc(proc.name, proc.argv, work, "setup", "setup")
    if pr.rc == 0 and pr.timing and "handler_start" in pr.timing:
        return (pr.timing["handler_start"] - pr.spawn) / 1e9
    return None


@dataclass
class Samples:
    """What the untraced batches of one run measured."""

    batch_s: list  # per batch: (seconds, scaled seconds)
    results: list
    host_s: list  # every host-speed sample
    setup_s: list  # extra set-ups, beyond those of the operations


def run_batch(ops: list, indices: list, work: Path, trace: bool, samples: Samples | None = None):
    """Run the operations one after another and gate them afterwards.

    With ``samples``, host-speed samples bracket every command (see
    ``run_op``) and each command is started once more, up to its handler, after
    its operation; none of this counts in the batch time, which is the sum of
    the operations' times.
    """
    host = samples.host_s if samples is not None else None
    results = []
    for op, i in zip(ops, indices):
        results.append(run_op(op, i, work, trace, host))
        if samples is not None:
            samples.setup_s += [t for p in op.procs if (t := setup_only(p, work)) is not None]
    for op, res in zip(ops, results):
        check_op(op, res)
    seconds = sum(r.seconds for r in results)
    if samples is not None:
        samples.batch_s.append((seconds, sum(r.scaled for r in results)))
        samples.results += results
    return seconds, results


def make_batch(workload: str, seed: int, b: int) -> tuple[list, list]:
    wl = WORKLOADS[workload]
    indices = [b * wl.batch_ops + j for j in range(wl.batch_ops)]
    ops = [wl.make(op_rng(workload, seed, i), f"{workload}-{i}") for i in indices]
    return ops, indices


def warm_up(work: Path) -> None:
    """One untimed command: compiles bytecode and shows the program runs."""
    argv = ["compare", "--complex", "torus:4:4", "--trials", "1", "--seed", "0"]
    pr = run_proc("warmup", argv, work, "run", "warmup")
    if pr.rc != 0 or pr.timing is None:
        sys.stderr.write(pr.stderr.decode(errors="replace"))
        raise SystemExit(f"morsespec CLI did not run (exit {pr.rc})")
    host_sample(work)


# ----------------------------------------------------------------- metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_times(results: list[OpResult]) -> list[float]:
    return [(p.timing["handler_start"] - p.spawn) / 1e9
            for r in results for p in r.procs if p.timing and "handler_start" in p.timing]


def end_to_end(sm: Samples) -> tuple[dict, dict]:
    """Metrics at the reference host speed, and the times unscaled.

    Operations and batches are scaled command by command (``run_op``);
    set-up times, spread over the whole run, by the run's median host sample.
    """
    ok = [r for r in sm.results if r.ok] or sm.results
    setup = statistics.median(setup_times(ok) + sm.setup_s)
    host = statistics.median(sm.host_s)
    metrics = {
        "batch_s": metric(statistics.median(b for _, b in sm.batch_s), "s"),
        "op_p50_s": metric(statistics.median(r.scaled for r in ok), "s"),
        "setup_s": metric(HOST_REF_S * setup / host, "s"),
        "peak_rss_mib": metric(
            max(p.rss_kib for r in sm.results for p in r.procs) / 1024, "MiB"),
    }
    raw = {
        "batch_s": statistics.median(b for b, _ in sm.batch_s),
        "op_p50_s": statistics.median(r.seconds for r in ok),
        "setup_s": setup,
        "host_s": host,
    }
    return metrics, raw


def tail_line(results: list[OpResult]) -> str:
    """Highest percentile with at least ten operations beyond it, unscaled."""
    times = sorted(r.seconds for r in results if r.ok)
    n = len(times)
    if n < 11:
        return f"op_tail_s: not reported ({n} operations; the tail needs at least 11)"
    return f"op_tail_s (unscaled): p{100 * (n - 10) / n:.1f} = {times[n - 11]:.4f} s of {n} operations"


def layer_totals(results: list[OpResult]) -> dict:
    """Sum the spans and counters of every command of the given operations."""
    agg = {"self": {}, "total": {}, "calls": {}, "counts": {}, "fields": 0, "bytes": 0}
    for r in results:
        fields = set()
        for p in r.procs:
            agg["bytes"] += len(p.stdout)
            if not p.timing or "spans" not in p.timing:
                continue
            s, t, c = self_times(p.timing["names"], p.timing["spans"])
            for key, part in (("self", s), ("total", t), ("calls", c), ("counts", p.timing["counts"])):
                for name, v in part.items():
                    agg[key][name] = agg[key].get(name, 0) + v
            fields.update(p.timing["fields"])
        agg["fields"] += len(fields)
    return agg


SELF_TIMES = [
    "gf2.to_bits", "gf2.echelonize", "gf2.kernel_basis",
    "complex.build_torus_grid", "complex.load_field", "fields.random_field",
    "morse.build_morse_complex", "morse.flow_down", "morse.verify_d_squared",
    "morse.to_json_dict", "morse.build_gradient", "morse.homology_basis", "morse.expand",
    "homology.homology_basis", "spectral.evaluate_rho", "spectral.spectral_value",
    "continuation.sandwich_built", "cli.import", "cli.emit", "cli.main",
]
CALLS = [
    "gf2.to_bits", "morse.flow_down", "morse.build_gradient", "homology.homology_basis",
    "spectral.spectral_value", "continuation.sandwich_built",
]
SCALED = ["morse.verify_d_squared", "morse.to_json_dict", "homology.homology_basis", "morse.expand"]


def per_layer(traced: list[OpResult], untraced_s: float, traced_s: float, probe: dict) -> dict:
    agg = layer_totals(traced)
    n = len(traced)
    self_s, calls, counts = agg["self"], agg["calls"], agg["counts"]
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.s"] = metric(self_s.get(name, 0) / 1e9 / n, "s")
    for name in CALLS:
        out[f"{name}.calls"] = metric(calls.get(name, 0) / n, "count")
    scanned = counts["gf2.to_bits.bits_scanned"]
    out["gf2.to_bits.bits_scanned"] = metric(scanned / n, "count")
    out["gf2.to_bits.useful_ratio"] = metric(
        counts["gf2.to_bits.bits_returned"] / scanned if scanned else 0.0, "ratio")
    grids = calls.get("complex.build_torus_grid", 0)
    out["complex.cells"] = metric(counts["complex.cells"] / grids if grids else 0.0, "count")
    cells = counts["morse.gradient_cells"]
    out["morse.critical_frac"] = metric(counts["morse.critical"] / cells if cells else 0.0, "ratio")
    out["morse.fields"] = metric(agg["fields"] / n, "count")
    out["morse.builds_per_field"] = metric(
        calls.get("morse.build_gradient", 0) / agg["fields"] if agg["fields"] else 0.0, "ratio")
    out["morse.expand.cells_out"] = metric(counts["morse.expand.cells_out"] / n, "count")
    out["cli.report_bytes"] = metric(agg["bytes"] / n, "bytes")
    out["trace.batch_s"] = metric(traced_s, "s")
    out["trace.untraced_batch_s"] = metric(untraced_s, "s")
    out["trace.overhead_frac"] = metric((traced_s - untraced_s) / untraced_s, "ratio")

    small, big = (layer_totals(probe[s]) for s in PROBE_SIZES)
    op_s = {s: sum(r.seconds for r in probe[s]) for s in PROBE_SIZES}
    out["op.scale_x4"] = metric(op_s[PROBE_SIZES[1]] / op_s[PROBE_SIZES[0]], "ratio")
    for name in SCALED:
        lo, hi = small["total"].get(name, 0), big["total"].get(name, 0)
        out[f"{name}.scale_x4"] = metric(hi / lo if lo else 0.0, "ratio")
    return out


# ----------------------------------------------------------------- context


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def digests(results: list[OpResult], phase: str) -> list[dict]:
    return [
        {"phase": phase, "op": r.index, "proc": p.name,
         "sha256": hashlib.sha256(p.stdout).hexdigest()}
        for r in results for p in r.procs
    ]


# -------------------------------------------------------------------- main


def measure(workload: str, seed: int, seconds: int, work: Path, record: dict):
    sm = Samples([], [], [], [])
    start = now_ns()
    b = 0
    # Start a batch only if one more like the last still ends within the run.
    while b == 0 or (now_ns() - start) / 1e9 + round_s <= seconds:
        round_start = now_ns()
        ops, indices = make_batch(workload, seed, b)
        write_inputs(ops, work)
        run_batch(ops, indices, work, False, sm)
        round_s = (now_ns() - round_start) / 1e9
        b += 1
    metrics, raw = end_to_end(sm)
    record.update(batch_times_s=sm.batch_s, setup_only_s=sm.setup_s, host_s=sm.host_s,
                  unscaled=raw, digests=digests(sm.results, "batch"))
    return sm.results, metrics


def measure_traced(workload: str, seed: int, work: Path, record: dict):
    ops, indices = make_batch(workload, seed, 0)
    write_inputs(ops, work)
    runs = {False: [], True: []}
    # Interleave the two, alternating which goes first, so host drift hits both alike.
    for k, (op, i) in enumerate(zip(ops, indices)):
        for trace in (k % 2 == 1, k % 2 == 0):
            runs[trace] += run_batch([op], [i], work, trace)[1]
    untraced, traced = runs[False], runs[True]
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    probe = {}
    for n in PROBE_SIZES:
        probe_ops = [dense_op(op_rng(workload, seed, "probe-dense", n), n, f"probe-dense-{n}"),
                     smooth_op(op_rng(workload, seed, "probe-smooth", n), n, f"probe-smooth-{n}")]
        write_inputs(probe_ops, work)
        idx = [("probe-dense", n), ("probe-smooth", n)]
        probe[n] = run_batch(probe_ops, idx, work, True)[1]
    probed = [r for n in PROBE_SIZES for r in probe[n]]
    record["batch_times_s"] = {"untraced": untraced_s, "traced": traced_s}
    record["probe_op_s"] = {str(n): [r.seconds for r in probe[n]] for n in PROBE_SIZES}
    record["digests"] = (digests(untraced, "batch") + digests(traced, "traced")
                         + digests(probed, "probe"))
    spans = [{"op": r.index, "proc": p.name, **p.timing}
             for r in traced + probed for p in r.procs if p.timing]
    with gzip.open(OUT / f"{workload}-seed{seed}-spans.json.gz", "wt") as fh:
        json.dump(spans, fh)
    return untraced + traced + probed, per_layer(traced, untraced_s, traced_s, probe)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that running commands are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "morsespec" / "cli.py").is_file():
        print(f"morsespec sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    record = {"context": context(args.workload, args.seed, args.seconds, bool(args.trace))}
    try:
        warm_up(work)
        if args.trace:
            results, metrics = measure_traced(args.workload, args.seed, work, record)
        else:
            results, metrics = measure(args.workload, args.seed, args.seconds, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [{"op": r.index, "error": r.error} for r in results if not r.ok]
    record.update(
        metrics=metrics,
        attempted=len(results),
        failed=len(failures),
        fail_frac=len(failures) / len(results),
        failures=failures,
        op_seconds=[r.seconds for r in results],
        setup_seconds=setup_times(results),
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print("context:", json.dumps(record["context"]))
    for f in failures[:5]:
        print(f"FAILED op {f['op']}: {f['error']}")
    print(f"fail_frac: {record['fail_frac']} ({len(failures)} of {len(results)} operations)")
    if not args.trace:
        print(tail_line(results))
        print("unscaled:", json.dumps(record["unscaled"]))
    for key, m in metrics.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    print(f"record: {OUT / name}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
