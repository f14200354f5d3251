"""Built-in scalar fields and sweep families for the command line and for
experiments."""

from __future__ import annotations

import math
import random
import re
from collections.abc import Iterator

from .complex import CellComplex, ScalarField, make_field
from .errors import InputFormatError

# Random fields use dyadic values k / 2^20 with distinct k, so sums and
# differences of field values stay exact in binary64.
_DENOM_BITS = 20

# A sweep builds one Morse complex per family field; longer families are bad
# input, refused before any field is built.
MAX_FAMILY_STEPS = 10_000


def random_numerators(cx: CellComplex, rng: random.Random) -> list[int]:
    """The distinct k of one random field, the field's only draws from ``rng``."""
    if cx.n_vertices > 1 << _DENOM_BITS:
        raise InputFormatError(
            f"a random field takes one distinct value k / 2^{_DENOM_BITS} per vertex: "
            f"{cx.n_vertices} vertices are more than 2^{_DENOM_BITS}"
        )
    return rng.sample(range(1 << _DENOM_BITS), cx.n_vertices)


def random_field(cx: CellComplex, rng: random.Random) -> ScalarField:
    return make_field(cx, [k / float(1 << _DENOM_BITS) for k in random_numerators(cx, rng)])


def _torus_bump(cx: CellComplex, centers) -> ScalarField:
    shape = cx.torus_shape
    if shape is None:
        raise InputFormatError("bump fields are defined for torus grids only")
    nx, ny = shape
    vals = []  # row-major: vertex (i, j) has id j * nx + i
    for j in range(ny):
        for i in range(nx):
            total = 0.0
            for (cx0, cy0, height, width) in centers:
                dx = min(abs(i - cx0), nx - abs(i - cx0))
                dy = min(abs(j - cy0), ny - abs(j - cy0))
                total += height * math.exp(-(dx * dx + dy * dy) / (2.0 * width * width))
            vals.append(total)
    return make_field(cx, vals)


def bump_field(cx: CellComplex) -> ScalarField:
    """One smooth bump centered on the grid."""
    nx, ny = cx.torus_shape if cx.torus_shape else (0, 0)
    return _torus_bump(cx, [(nx / 2.0, ny / 2.0, 1.0, max(nx, ny) / 4.0)])


def twobump_field(cx: CellComplex) -> ScalarField:
    """Two bumps of different heights on opposite quarters of the grid."""
    nx, ny = cx.torus_shape if cx.torus_shape else (0, 0)
    return _torus_bump(
        cx,
        [
            (nx / 4.0, ny / 4.0, 1.0, max(nx, ny) / 6.0),
            (3.0 * nx / 4.0, 3.0 * ny / 4.0, 0.6, max(nx, ny) / 6.0),
        ],
    )


def translate_field(fld: ScalarField, dx: int, dy: int) -> ScalarField:
    """Pull the field back along a grid translation of the torus."""
    cx = fld.complex
    shape = cx.torus_shape
    if shape is None:
        raise InputFormatError("translate requires a torus-grid complex")
    nx, ny = shape
    old, cut = fld.vertex_values, nx - dx % nx
    vals = []
    for j in range(ny):
        # Row j is row j - dy rotated by dx: vertex (i, j) takes (i - dx, j - dy).
        r = (j - dy) % ny * nx
        vals += old[r + cut : r + nx] + old[r : r + cut]
    return make_field(cx, vals)


def expression_field(cx: CellComplex, name: str) -> ScalarField:
    """Resolve an ``expr:NAME`` field: bump, twobump, or random:SEED."""
    if name == "bump":
        return bump_field(cx)
    if name == "twobump":
        return twobump_field(cx)
    if name.startswith("random:"):
        try:
            seed = int(name.split(":", 1)[1])
        except ValueError:
            raise InputFormatError(f"bad random field seed in {name!r}") from None
        return random_field(cx, random.Random(seed))
    raise InputFormatError(f"unknown field expression {name!r}")


# Each family kind's ``--family`` form, and how many of its numbers it needs.
_FAMILY_FORMS = {
    "translate": ("translate[:STEPS]", 0),
    "constant": ("constant[:STEPS]", 0),
    "perturb": ("perturb:EPS_MAX:STEPS[:SEED]", 2),
}


def family(base: ScalarField, spec: str, seed: int = 0) -> Iterator[ScalarField]:
    """The fields of a ``--family`` spec, built lazily once the whole spec checks.

    ``translate[:STEPS]`` shifts ``base`` by 0..STEPS-1 grid steps in x (STEPS
    defaults to NX); ``constant[:STEPS]`` repeats it (3 times by default);
    ``perturb:EPS_MAX:STEPS[:SEED]`` adds eps * g for STEPS eps evenly spaced
    from 0 to EPS_MAX, with one g in [0, 1) per vertex drawn from SEED
    (default ``seed``).
    """

    def bad(reason: str) -> InputFormatError:
        return InputFormatError(f"--family {spec!r}: {reason}")

    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    if kind not in _FAMILY_FORMS:
        raise bad("want " + " or ".join(form for form, _ in _FAMILY_FORMS.values()))
    form, required = _FAMILY_FORMS[kind]
    names = re.findall(r"[A-Z_]+", form)
    if not required <= len(parts) <= len(names):
        raise bad(f"want {form}")
    nums = {}
    for name, text in zip(names, parts):
        try:
            nums[name] = float(text) if name == "EPS_MAX" else int(text)
        except ValueError:
            raise bad(f"bad {name} {text!r}") from None
    cx = base.complex
    if kind == "translate" and cx.torus_shape is None:
        raise bad("translate needs a torus grid")
    eps_max = nums.get("EPS_MAX", 0.0)
    if not math.isfinite(max(map(abs, base.vertex_values)) + abs(eps_max)):
        raise bad("EPS_MAX must be finite, also when added to the field values")
    steps = nums.get("STEPS", cx.torus_shape[0] if kind == "translate" else 3)
    if not 1 <= steps <= MAX_FAMILY_STEPS:
        raise bad(f"STEPS must be in 1..{MAX_FAMILY_STEPS}, got {steps}")
    if kind == "translate":
        return (translate_field(base, k, 0) for k in range(steps))
    if kind == "constant":
        return (base for _ in range(steps))
    rng = random.Random(nums.get("SEED", seed))
    g = [rng.random() for _ in range(cx.n_vertices)]
    return (
        make_field(cx, [a + eps * b for a, b in zip(base.vertex_values, g)])
        for eps in (eps_max * i / max(steps - 1, 1) for i in range(steps))
    )
