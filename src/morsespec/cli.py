"""Command-line interface.

Subcommands build complexes and fields, run the homology / spectral /
continuation computations and experiment sweeps, and emit one JSON report on
stdout (optionally also to a file via ``--json``).  ``spectral --oracle``
cross-checks each spectral value against rho on the full complex, the Morse
complex of the empty matching, for complexes of up to ``MAX_ORACLE_CELLS``
cells.

Exit codes: 0 success, 1 a checked property failed, 2 bad input, 141 the
reader of stdout went away (as after SIGPIPE).

Examples::

    morsespec homology --complex torus:4:4 --field expr:random:7
    morsespec spectral --complex torus:3:3 --field expr:twobump --class all --oracle
    morsespec compare --complex torus:3:3 --trials 500 --seed 7
    morsespec sweep --complex torus:6:6 --field expr:bump --family translate:6
    morsespec bounds iterate --x0 1 --alpha 2 --beta 1 --n 3
    morsespec bounds chain --delta 0.5 --d0 0.1 --d1 0.2 --d2 0.05 --sigma 1 --convergence
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import random
import re
import sys
from itertools import chain, repeat
from math import isfinite
from pathlib import Path

from . import bounds as bnd
from . import homology as fullh
from . import morse, spectral
from .complex import CellComplex, ScalarField, build_torus_grid, load_field, load_simplicial
from .continuation import sandwich_built
from .errors import MorsespecError
from .fields import expression_field, family, random_field, random_numerators
from .homology import HomologyClass


# Sizes above these are bad input, refused before any work starts: torus
# vertices (16 times a 256x256 grid), cells under ``spectral --oracle`` (the
# 256x256 torus: it reduces the whole complex, every cell critical, which
# takes seconds there), ``bounds iterate`` steps (its oracle runs each;
# 10^7 take seconds) and ``compare --trials`` (every entry stays in memory
# until the report prints).  ``fields.MAX_FAMILY_STEPS`` caps sweeps and
# ``complex.MAX_SIMPLICIAL_CELLS`` simplicial closures.
MAX_TORUS_VERTICES = 1 << 20
MAX_ORACLE_CELLS = 1 << 18
MAX_ITERATE_N = 10_000_000
MAX_TRIALS = 10_000


def _parse_complex(spec: str) -> CellComplex:
    if spec.startswith("file:"):
        return load_simplicial(spec[5:])
    m = re.fullmatch(r"torus:([0-9]+):([0-9]+)", spec)
    if not m:
        raise MorsespecError(
            f"bad complex spec {spec!r}; want torus:NX:NY with integers NX, NY or file:PATH"
        )
    if int(m[1]) * int(m[2]) > MAX_TORUS_VERTICES:
        raise MorsespecError(f"complex spec {spec!r} exceeds {MAX_TORUS_VERTICES} vertices")
    return build_torus_grid(int(m[1]), int(m[2]))


def _parse_field(spec: str, cx: CellComplex):
    if spec.startswith("expr:"):
        return expression_field(cx, spec[5:])
    return load_field(spec, cx)


def _resolve_classes(cx: CellComplex, selector: str) -> list[tuple[str, HomologyClass]]:
    if selector == "point":
        v0 = cx.ids_of_dim(0)[0]
        return [("point", HomologyClass(0, frozenset({v0}), "full", owner=cx))]
    if selector == "fundamental":
        top = frozenset(cx.ids_of_dim(cx.top_dim))
        if not fullh.is_cycle(cx, top):
            raise MorsespecError("complex has no fundamental cycle (not closed)")
        return [("fundamental", HomologyClass(cx.top_dim, top, "full", owner=cx))]
    m = re.fullmatch(r"grade:([0-9]+):index:([0-9]+)", selector)
    if selector != "all" and not m:
        raise MorsespecError(
            f"bad class selector {selector!r}; want point, fundamental, all "
            "or grade:K:index:I with integers K, I >= 0"
        )
    labelled = {
        f"grade:{k}:index:{i}": h
        for k, classes in sorted(fullh.homology_basis(cx).items())
        for i, h in enumerate(classes)
    }
    if selector == "all":
        return list(labelled.items())
    k, i = int(m[1]), int(m[2])
    label = f"grade:{k}:index:{i}"
    if label not in labelled:
        n = sum(key.startswith(f"grade:{k}:") for key in labelled)
        raise MorsespecError(f"class selector {selector!r}: grade {k} has only {n} classes")
    return [(label, labelled[label])]


def _overflow(command: str, inputs: dict) -> MorsespecError:
    given = ", ".join(f"{k}={v}" for k, v in inputs.items())
    return MorsespecError(f"{command} overflows binary64 at {given}")


def _scalar(o) -> str:
    """One JSON scalar by ``json``'s rules; nan and ±inf raise ValueError."""
    if isinstance(o, str):
        return json.encoder.encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return {None: "null", True: "true", False: "false"}[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float) and not isfinite(o):
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    return float.__repr__(o)


def _same_keyed(rows: list) -> bool:
    """Whether dicts share their str keys, in order, and hold finite ints and floats."""
    values = list(chain.from_iterable(map(dict.values, rows)))
    return (len(set(map(tuple, rows))) == 1 and set(map(type, rows[0])) == {str}
            and set(map(type, values)) <= {int, float}
            and all(map(isfinite, filter(float.__instancecheck__, values))))


def _encode(o, pad: str = "\n") -> str:
    """``json.dumps(o, indent=2, allow_nan=False)`` of a value on a line opened by
    ``pad``.  That encoder runs in pure Python whenever ``indent`` is set; here int
    lists, lists of int lists and same-keyed number dicts are joined in C."""
    if not isinstance(o, (dict, list, tuple)):
        return _scalar(o)
    brackets = "{}" if isinstance(o, dict) else "[]"
    if not o:
        return brackets
    inner, deep = pad + "  ", pad + "    "
    if isinstance(o, dict):
        body = [(_scalar(k) if isinstance(k, str) else f'"{_scalar(k)}"') + ": "
                + _encode(v, inner) for k, v in o.items()]
    elif (kinds := set(map(type, o))) == {int}:
        body = map(int.__repr__, o)
    elif kinds <= {list, tuple} and set(map(type, chain.from_iterable(o))) <= {int}:
        cut = "," + deep
        body = [f"[{deep}{cut.join(map(int.__repr__, c))}{inner}]" if c else "[]" for c in o]
    elif kinds == {dict} and _same_keyed(o):
        fields = ("," + deep).join(_scalar(k).replace("%", "%%") + ": %r" for k in o[0])
        body = map(("{" + deep + fields + inner + "}").__mod__, map(tuple, map(dict.values, o)))
    else:
        body = [_encode(x, inner) for x in o]
    return brackets[0] + inner + ("," + inner).join(body) + pad + brackets[1]


def _emit(report: dict, json_path: str | None) -> None:
    try:
        text = _encode(report)
    except ValueError:
        # The one overflow route: a result that left binary64 is inf or nan,
        # which the encoder refuses.
        raise _overflow(report["command"], report["inputs"]) from None
    # The file first: a path that cannot be written exits 2 with nothing on stdout.
    if json_path:
        Path(json_path).write_text(text + "\n")
    print(text)


def _echo(args, *names: str) -> dict:
    """The named flag values, in the given order, for a report's ``inputs``."""
    return {name: getattr(args, "cls" if name == "class" else name) for name in names}


def _finish(args, inputs: dict, results, passed: int, failed: int) -> int:
    """Emit the command's report and return its exit code."""
    command = args.cmd if args.cmd != "bounds" else f"bounds {args.bounds_cmd}"
    _emit(
        {
            "command": command,
            "inputs": inputs,
            "results": results,
            "pass_counts": {"passed": passed, "failed": failed},
            "seed": args.seed,
        },
        args.json,
    )
    return 0 if failed == 0 else 1


# ------------------------------------------------------------------- commands


def _cmd_homology(args) -> int:
    cx = _parse_complex(args.complex)
    fld = _parse_field(args.field, cx)
    mc = morse.MorseComplex.from_field(fld)
    d2 = morse.verify_d_squared(mc)
    results = {
        "betti": mc.betti(),
        "critical_census": {str(k): mc.rank(k) for k in sorted(mc.grades)},
        "d_squared_zero": d2,
        "morse_complex": mc.to_json_dict(),
    }
    return _finish(args, _echo(args, "complex", "field"), results, int(d2), int(not d2))


def _cmd_spectral(args) -> int:
    def own(cx):
        if args.oracle and len(cx) > MAX_ORACLE_CELLS:
            raise MorsespecError(f"--oracle takes up to {MAX_ORACLE_CELLS} cells; "
                                 f"complex spec {args.complex!r} has {len(cx)}")
        fld = _parse_field(args.field, cx)
        mc = morse.MorseComplex.from_field(fld)
        if not args.oracle:
            return mc, None
        # The empty matching leaves every cell critical, so its Morse complex
        # is the full complex: rho there needs no gradient and no flow.
        every = frozenset(range(len(cx)))
        return mc, morse.build_morse_complex(morse.DiscreteGradient(fld, {}, every))

    cx, (mc, full), rows = _beside(args.complex, own, lambda cx: [
        (label, Y.grade, Y.support) for label, Y in _resolve_classes(cx, args.cls)])
    classes = [(label, HomologyClass(k, s, "full", owner=cx)) for label, k, s in rows]
    passed = failed = 0
    results = []
    for label, Y in classes:
        rep = spectral.spectral_value(mc, spectral.project_class(mc, Y))
        entry = {"class": label, **rep.to_json_dict(), "spectrum_member": rep.spectrum_member}
        ok = rep.spectrum_member
        if args.oracle:
            entry["oracle_sigma"] = spectral.rho(full, Y).sigma
            entry["oracle_match"] = entry["oracle_sigma"] == rep.sigma
            ok = ok and entry["oracle_match"]
        passed += int(ok)
        failed += int(not ok)
        results.append(entry)
    return _finish(args, _echo(args, "complex", "field", "class"), results, passed, failed)


def _compare_one(cx, fa, fb, classes) -> list[dict]:
    mc_minus = morse.MorseComplex.from_field(fa)
    return _sandwiches(mc_minus, morse.MorseComplex.from_field(fb), classes)


def _sandwiches(minus, plus, classes) -> list[dict]:
    return [{"class": label,
             **sandwich_built(minus, plus, spectral.project_class(minus, Y)).to_json_dict()}
            for label, Y in classes]


def _trials(cx, classes, seed: int, mine: range):
    """Entries of the trials in ``mine``; the fields of the others before it are only drawn."""
    rng = random.Random(seed)
    for t in range(mine.stop):
        if t in mine:
            yield _compare_one(cx, random_field(cx, rng), random_field(cx, rng), classes)
        else:
            random_numerators(cx, rng), random_numerators(cx, rng)


def _cpus(most: int) -> int:  # the CPUs this process may run on, at most ``most``
    return min(len(os.sched_getaffinity(0)), most) if hasattr(os, "sched_getaffinity") else 1


def _worker(items) -> tuple:
    """``(pid, reader)`` of a forked worker that marshals each value of ``items()`` to a pipe
    and exits at their end or an error.  No thread runs here, so fork is safe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # at a process or memory limit: as a worker that stopped, with no pid
        os.close(w)
        return None, open(r, "rb")
    if pid == 0:
        try:
            os.close(r)
            out = open(w, "wb", buffering=0)
            for item in items():
                marshal.dump(item, out)
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _reap(workers: list) -> None:  # close each (pid, reader)'s reader, end and reap its worker
    for pid, reader in workers:
        reader.close()
        if pid is not None:
            os.kill(pid, 9)  # SIGKILL; importing signal would cost every start about 1 ms
            os.waitpid(pid, 0)


def _fork_trials(cx, classes, seed: int, trials: int):
    """Every trial's entries in trial order.  Process i of n, one per CPU this one may run
    on, runs trials t = i mod n; this one is process 0."""
    n, workers = _cpus(trials), []
    try:
        for i in range(1, n):
            workers.append(_worker(lambda i=i: _trials(cx, classes, seed, range(i, trials, n))))
        sources = [_trials(cx, classes, seed, range(0, trials, n))]
        sources += [map(marshal.load, repeat(reader)) for _, reader in workers]
        for t in range(trials):
            try:
                yield from next(sources[t % n])
            except EOFError:  # its worker stopped: run the rest here, so errors are serial
                sources[t % n] = _trials(cx, classes, seed, range(t, trials, n))
                yield from next(sources[t % n])
    finally:
        _reap(workers)


def _beside(spec: str, own, job, fork: bool = True) -> tuple:
    """``(cx, own(cx), job(cx))`` on the complex cx of ``spec``.  Given ``fork``, 2 or more CPUs
    and a torus (read twice, unlike a file), a worker runs job on a torus it builds while this
    process runs own.  Without its result, job runs here after own, which takes every input
    that fails first in the serial order: errors are serial."""
    if fork and spec.startswith("torus:") and _cpus(2) > 1:
        pid, result = _worker(lambda: [job(_parse_complex(spec))])
    else:
        pid, result = None, open(os.devnull, "rb")
    try:
        cx = _parse_complex(spec)
        mine = own(cx)
        try:
            return cx, mine, marshal.load(result)
        except EOFError:
            return cx, mine, job(cx)
    finally:
        _reap([(pid, result)])


def _cmd_compare(args) -> int:
    if not 0 <= args.trials <= MAX_TRIALS:
        raise MorsespecError(f"--trials must be in 0..{MAX_TRIALS}, got {args.trials}")
    if args.trials > 0 and (args.field_a is not None or args.field_b is not None):
        raise MorsespecError("--trials draws random fields; it cannot take --field-a/--field-b")
    if args.trials == 0 and args.field_a and args.field_b:
        def own(cx):
            classes = _resolve_classes(cx, args.cls)
            return classes, morse.MorseComplex.from_field(_parse_field(args.field_a, cx))

        def plus(cx):  # field b's Morse complex, as the data that rebuilds it on cx
            mc = morse.MorseComplex.from_field(_parse_field(args.field_b, cx))
            fld, g = mc.field, mc.gradient
            return (fld.vertex_values, fld.cell_values, g.pair_up, g.critical, mc.grades,
                    mc.boundary)
        # The worker reads field b, and this process does again if it stops: not a pipe.
        fork = args.field_b.startswith("expr:") or os.path.isfile(args.field_b)
        cx, (classes, mc_minus), (vv, cv, up, crit, grades, bd) = _beside(
            args.complex, own, plus, fork)
        gradient = morse.DiscreteGradient(ScalarField(cx, vv, cv), up, crit)
        results = _sandwiches(mc_minus, morse.MorseComplex(gradient, grades, bd), classes)
    else:
        cx = _parse_complex(args.complex)
        classes = _resolve_classes(cx, args.cls)
        if args.trials == 0:
            raise MorsespecError("compare needs --field-a and --field-b, or --trials")
        results = list(_fork_trials(cx, classes, args.seed, args.trials))
    passed = sum(entry["pass"] for entry in results)
    inputs = _echo(args, "complex", "field_a", "field_b", "class", "trials")
    return _finish(args, inputs, results, passed, len(results) - passed)


def _cmd_sweep(args) -> int:
    cx = _parse_complex(args.complex)
    fields = family(_parse_field(args.field, cx), args.family, args.seed)
    classes = _resolve_classes(cx, args.cls)
    # A generator: at most two Morse complexes are alive at a time.
    mcs = (morse.MorseComplex.from_field(fld) for fld in fields)
    reports = spectral.sweep(mcs, [Y for _, Y in classes])
    results = [{"class": label, **rep.to_json_dict()} for (label, _), rep in zip(classes, reports)]
    checks = [ok for rep in reports for ok in rep.checks]
    passed = sum(checks)
    inputs = _echo(args, "complex", "field", "family", "class")
    return _finish(args, inputs, results, passed, len(checks) - passed)


def _cmd_bounds(args) -> int:
    sub = args.bounds_cmd
    extra, failed = {}, 0
    try:
        if sub == "iterate":
            if args.n > MAX_ITERATE_N:
                raise MorsespecError(f"--n must be <= {MAX_ITERATE_N}, got {args.n}")
            inputs = _echo(args, "x0", "alpha", "beta", "n")
            value = bnd.iteration_bound(args.x0, args.alpha, args.beta, args.n)
            extra["oracle"] = bnd.iteration_oracle(args.x0, args.alpha, args.beta, args.n)
        elif sub == "eta":
            inputs = _echo(args, "action", "delta", "kappa")
            value = bnd.eta_bound(args.action, args.delta, args.kappa)
        elif sub in ("step", "chain", "limit"):
            inputs = _echo(args, "delta", "d0", "d1", "d2", "sigma")
            p = bnd.BoundParams(args.delta, args.d0, args.d1, args.d2, args.sigma)
            if sub == "step":
                value = bnd.per_step_bound(p)
                extra["threshold"] = bnd.step_threshold(args.delta)
            elif sub == "chain":
                if args.doublings < 1:
                    raise MorsespecError(f"--doublings must be >= 1, got {args.doublings}")
                n = args.n_steps if args.n_steps else bnd.min_steps(args.delta, args.d1)
                inputs["n_steps"] = n
                value = bnd.chained_bound(p, n)
                extra["min_steps"] = bnd.min_steps(args.delta, args.d1)
                if args.convergence:
                    limit = bnd.adiabatic_limit_bound(p)
                    table = []
                    for m in (n * 2**j for j in range(args.doublings)):
                        val = bnd.chained_bound(p, m)
                        table.append({"n": m, "value": val, "gap": abs(val - limit)})
                    monotone = all(b["gap"] <= a["gap"] for a, b in zip(table, table[1:]))
                    extra["limit"] = limit
                    extra["doubling_table"] = table
                    extra["gap_monotone"] = monotone
                    failed = int(not monotone)
            else:
                inputs["statement_variant"] = args.statement_variant
                value = bnd.adiabatic_limit_bound(p, statement_variant=args.statement_variant)
        else:
            inputs = _echo(args, "sigma", "norm_plus", "norm_minus", "norm_diff", "delta")
            value = bnd.corollary_bound(
                args.sigma, args.norm_plus, args.norm_minus, args.norm_diff, args.delta
            )
        results = {"value": value, "precondition_ok": True, **extra}
    except OverflowError:
        # math.exp and ** raise on overflow; other arithmetic gives inf or
        # nan, which _emit refuses.
        raise _overflow(f"bounds {sub}", inputs) from None
    return _finish(args, inputs, results, 1 - failed, failed)


# --------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Reports bad flags as bad input (exit 2, one JSON line), not as usage text."""

    def error(self, message):
        raise MorsespecError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="morsespec", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--json", default=None, help="also write the report here")

    def command(name, help, with_field=True, with_class=True):
        p = sub.add_parser(name, parents=[shared], help=help)
        p.add_argument("--complex", required=True, help="torus:NX:NY or file:PATH")
        if with_field:
            p.add_argument("--field", required=True, help="value file path or expr:NAME")
        if with_class:
            p.add_argument("--class", dest="cls", default="all",
                           help="point | fundamental | grade:K:index:I | all")
        return p

    command("homology", "Betti numbers and critical-cell census", with_class=False)

    p = command("spectral", "spectral values of selected classes")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against rho on the full complex (up to "
                   f"{MAX_ORACLE_CELLS} cells)")

    p = command("compare", "two-field continuation comparison", with_field=False)
    p.add_argument("--field-a", default=None)
    p.add_argument("--field-b", default=None)
    p.add_argument("--trials", type=int, default=0,
                   help=f"run this many random field pairs instead (up to {MAX_TRIALS})")

    p = command("sweep", "family sweeps: invariance and Lipschitz margins")
    p.add_argument("--family", required=True,
                   help="translate[:STEPS] | constant[:STEPS] | perturb:EPS_MAX:STEPS[:SEED]")

    pb = sub.add_parser("bounds", help="closed-form estimate arithmetic")
    bsub = pb.add_subparsers(dest="bounds_cmd", required=True)

    q = bsub.add_parser("iterate", parents=[shared])
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--n", type=int, required=True)

    q = bsub.add_parser("eta", parents=[shared])
    q.add_argument("--action", type=float, required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--kappa", type=float, default=0.0)

    for name in ("step", "chain", "limit"):
        q = bsub.add_parser(name, parents=[shared])
        q.add_argument("--delta", type=float, required=True)
        q.add_argument("--d0", type=float, default=0.0)
        q.add_argument("--d1", type=float, default=0.0)
        q.add_argument("--d2", type=float, default=0.0)
        q.add_argument("--sigma", type=float, required=True)
        if name == "chain":
            q.add_argument("--n-steps", type=int, default=0)
            q.add_argument("--convergence", action="store_true")
            q.add_argument("--doublings", type=int, default=10)
        if name == "limit":
            q.add_argument("--statement-variant", action="store_true")

    q = bsub.add_parser("corollary", parents=[shared])
    q.add_argument("--sigma", type=float, required=True)
    q.add_argument("--norm-plus", type=float, required=True)
    q.add_argument("--norm-minus", type=float, required=True)
    q.add_argument("--norm-diff", type=float, required=True)
    q.add_argument("--delta", type=float, required=True)

    return ap


_DISPATCH = {
    "homology": _cmd_homology,
    "spectral": _cmd_spectral,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    # The pipeline makes no reference cycles, so reference counting frees
    # every complex, field, gradient and Morse complex, and the cyclic
    # collector's passes over the complex's tuples would find nothing; a
    # command leaves the same few objects of cyclic garbage (argparse's) at
    # any size.  tests/test_cli.py checks both.  The caller's setting is
    # restored on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.cmd](args)
    except BrokenPipeError:
        # Silence the interpreter's final flush of the dead pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (MorsespecError, OSError, ValueError) as e:
        diag = {"error": str(e), "kind": type(e).__name__}
        for attr in ("threshold", "minimum", "line"):
            if getattr(e, attr, None) is not None:
                diag[attr] = getattr(e, attr)
        print(json.dumps(diag), file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
