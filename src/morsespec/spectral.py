"""Spectral values: exact minimax of the action over a homology class.

The action of a nonzero chain is the largest cell value in its support.  The
spectral value of a nonzero class is the minimum action over all
representatives.  It is computed exactly by greedy pivot cancellation:
echelonize the boundary columns entering the grade (pivot = order-maximal
support cell, always the column's top because boundaries strictly descend in
the total order), then cancel the representative's top cell against matching
pivots until stuck.  Any other representative differs by a sum of echelon
columns; the largest pivot used either exceeds the surviving top (raising the
action) or cannot reach it, so the greedy result is the true minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .complex import CellComplex, ScalarField, c0_distance
from .errors import ChainError, ComplexMismatchError, SpectrumMismatchError
from .homology import HomologyClass, is_cycle as full_is_cycle
from .morse import MorseComplex, check_one_complex


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of one spectral-value computation."""

    sigma: float
    witness: frozenset[int]
    spectrum_member: bool
    critical_cell: int
    grade: int

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "critical_cell": self.critical_cell,
            "grade": self.grade,
            "witness_support": sorted(self.witness),
        }


def chain_action(fld: ScalarField, chain) -> float:
    """Largest cell value over the support of a nonzero chain."""
    support = frozenset(chain)
    if not support:
        raise ChainError("action of the zero chain is undefined")
    return max(fld.cell_values[c] for c in support)


def spectrum(mc: MorseComplex) -> list[float]:
    """Sorted distinct critical values of the field's Morse complex."""
    vals = {mc.field.cell_values[c] for cells in mc.grades.values() for c in cells}
    return sorted(vals)


def spectral_gap(values) -> float:
    """Smallest positive gap between distinct spectrum points (inf if none)."""
    vs = sorted(set(values))
    if len(vs) < 2:
        return float("inf")
    return min(b - a for a, b in zip(vs, vs[1:]))


def spectral_value(mc: MorseComplex, X: HomologyClass) -> SpectralReport:
    """Exact minimax over representatives of a nonzero Morse class."""
    if X.basis != "morse":
        raise ChainError("spectral_value expects a Morse-complex class")
    if X.owner is not None and X.owner is not mc:
        raise ComplexMismatchError("class belongs to a different Morse complex")
    k = X.grade
    v = mc.mask(k, X.support)
    if v == 0:
        raise ChainError("spectral value of the zero class is undefined")
    if not mc.is_cycle(k, v):
        raise ChainError("representative is not a cycle")
    v = gf2.reduce_vector(v, mc.boundary_echelon(k))
    if v == 0:
        raise ChainError("class is a boundary; spectral value undefined")
    top = gf2.pivot(v)
    cell = mc.grades[k][top]
    sigma = mc.field.cell_values[cell]
    witness = mc.unmask(k, v)
    return SpectralReport(sigma, witness, sigma in set(spectrum(mc)), cell, k)


def exhaustive_spectral_value(
    mc: MorseComplex, X: HomologyClass, max_generators: int = 20
) -> float:
    """Brute-force minimum action over the whole coset of X.

    Walks all combinations of the raw boundary columns entering the grade in
    Gray-code order; independent of the echelon-greedy path.  The action of a
    mask is the value of its highest bit because each grade lists cells in
    ascending order.
    """
    k = X.grade
    cols = mc.boundary.get(k + 1, [])
    if len(cols) > max_generators:
        raise ValueError(
            f"{len(cols)} boundary generators exceed the cap {max_generators}"
        )
    base = mc.mask(k, X.support)
    if base == 0:
        raise ChainError("zero class")
    values = mc.values(k)
    best = values[base.bit_length() - 1]
    cur = base
    prev_gray = 0
    for i in range(1, 1 << len(cols)):
        gray = i ^ (i >> 1)
        cur ^= cols[gf2.pivot(gray ^ prev_gray)]
        prev_gray = gray
        if cur:
            best = min(best, values[cur.bit_length() - 1])
    return best


def _check_full_class(cx: CellComplex, Y: HomologyClass) -> None:
    if Y.basis != "full":
        raise ChainError("expected a full-complex class")
    if Y.owner is not None and Y.owner is not cx:
        raise ComplexMismatchError("class belongs to a different complex")
    if not Y.support:
        raise ChainError("zero class")
    dims = {cx.cells[c].dim for c in Y.support}
    if dims != {Y.grade}:
        raise ChainError(f"support dimensions {sorted(dims)} do not match grade {Y.grade}")
    if not full_is_cycle(cx, Y.support):
        raise ChainError("representative is not a cycle")


def project_class(mc: MorseComplex, Y: HomologyClass) -> HomologyClass:
    """The Morse class of a full-complex cycle: its flow onto critical cells."""
    return HomologyClass(Y.grade, mc.gradient.flow_down(Y.support), "morse", owner=mc)


def rho(mc: MorseComplex, Y: HomologyClass) -> SpectralReport:
    """Spectral value of a fixed full-complex class under the field of ``mc``.

    Y is checked against ``mc.complex``, then evaluated through its flow onto
    the critical cells.  Defined directly for every field: the field's Morse
    data always exists here, so no approximation by nearby generic fields is
    needed; the 1-Lipschitz dependence on the field remains available as a
    checkable property.
    """
    _check_full_class(mc.complex, Y)
    return spectral_value(mc, project_class(mc, Y))


@dataclass(frozen=True)
class LipschitzReport:
    lhs: float
    rhs: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


def lipschitz_report(
    f1: ScalarField, f2: ScalarField, sigma1: float, sigma2: float
) -> LipschitzReport:
    """Compare |sigma1 - sigma2| against the sup distance of the fields."""
    lhs = abs(sigma1 - sigma2)
    rhs = c0_distance(f1, f2)
    return LipschitzReport(lhs, rhs, lhs <= rhs)


def lipschitz_check(
    mc1: MorseComplex, mc2: MorseComplex, Y: HomologyClass
) -> LipschitzReport:
    """Compare |rho(f1) - rho(f2)| against the sup distance of the fields."""
    check_one_complex(mc1, mc2)
    return lipschitz_report(mc1.field, mc2.field, rho(mc1, Y).sigma, rho(mc2, Y).sigma)


@dataclass(frozen=True)
class SweepResult:
    values: tuple[float, ...]
    constant: bool
    spectrum: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "values": list(self.values),
            "constant": self.constant,
            "spectrum": list(self.spectrum),
        }


def invariance_sweep(mcs, Y: HomologyClass) -> SweepResult:
    """Evaluate rho across the Morse complexes of a family sharing one spectrum.

    The family is a finite list of built Morse complexes of fields on one
    complex; the shared-spectrum hypothesis is verified and a mismatch raises
    SpectrumMismatchError.  The verdict is meaningful when consecutive fields
    are close in sup norm relative to the smallest spectral gap.
    """
    mcs = list(mcs)
    if not mcs:
        raise ChainError("empty family")
    check_one_complex(*mcs)
    values = [rho(mc, Y).sigma for mc in mcs]
    spectra = [tuple(spectrum(mc)) for mc in mcs]
    for i, sp in enumerate(spectra[1:], start=1):
        if sp != spectra[0]:
            raise SpectrumMismatchError(
                f"field {i} has spectrum {sp}, expected {spectra[0]}"
            )
    return SweepResult(tuple(values), len(set(values)) <= 1, spectra[0])
