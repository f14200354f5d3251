"""Spectral values: exact minimax of the action over a homology class.

The action of a nonzero chain is the largest cell value in its support.  The
spectral value of a nonzero class is the minimum action over all
representatives.  It is computed exactly by greedy pivot cancellation:
echelonize the boundary columns entering the grade (pivot = order-maximal
support cell, always the column's top because boundaries strictly descend in
the total order), then cancel the representative's top cell against matching
pivots until stuck.  Any other representative differs by a sum of echelon
columns; the largest pivot used either exceeds the surviving top (raising the
action) or cannot reach it, so the greedy result is the true minimum.  The
echelon and the cancellation are ``MorseComplex.boundary_echelon`` and
``MorseComplex.reduce_chain``; chains here are position sets.
"""

from __future__ import annotations

from .complex import CellComplex, c0_distance
from .errors import ChainError, ComplexMismatchError, ReadOnly
from .homology import HomologyClass, is_cycle as full_is_cycle
from .morse import MorseComplex, check_one_complex


class SpectralReport(ReadOnly):
    """Outcome of one spectral-value computation."""

    __slots__ = ("sigma", "witness", "spectrum_member", "critical_cell", "grade")

    def __init__(self, sigma: float, witness: frozenset[int], spectrum_member: bool,
                 critical_cell: int, grade: int):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "spectrum_member", spectrum_member)
        object.__setattr__(self, "critical_cell", critical_cell)
        object.__setattr__(self, "grade", grade)

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "critical_cell": self.critical_cell,
            "grade": self.grade,
            "witness_support": sorted(self.witness),
        }


def spectrum(mc: MorseComplex) -> list[float]:
    """Sorted distinct critical values of the field's Morse complex."""
    vals = {mc.field.cell_values[c] for cells in mc.grades.values() for c in cells}
    return sorted(vals)


def spectral_value(mc: MorseComplex, X: HomologyClass) -> SpectralReport:
    """Exact minimax over representatives of a nonzero Morse class."""
    k = X.grade
    rest = mc.reduce_chain(k, mc.class_positions(X))
    if not rest:
        raise ChainError("class is a boundary; spectral value undefined")
    cell = mc.grades[k][rest[-1]]
    sigma = mc.field.cell_values[cell]
    # The grade's critical values are part of the spectrum.
    return SpectralReport(sigma, mc.cells_at(k, rest), sigma in mc.values(k), cell, k)


def _check_full_class(cx: CellComplex, Y: HomologyClass) -> None:
    if Y.basis != "full":
        raise ChainError("expected a full-complex class")
    if Y.owner is not None and Y.owner is not cx:
        raise ComplexMismatchError("class belongs to a different complex")
    if not Y.support:
        raise ChainError("zero class")
    dims = {cx.dim(c) for c in Y.support}
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


class SweepReport(ReadOnly):
    """rho of one class along a family of fields.

    ``lipschitz_margins`` holds c0_distance - |rho change| per consecutive
    pair of fields; ``constant`` is None unless every field has one spectrum.
    """

    __slots__ = ("rho_values", "lipschitz_margins", "spectra_equal", "constant")

    def __init__(self, rho_values: list[float], lipschitz_margins: list[float],
                 spectra_equal: bool, constant: bool | None):
        object.__setattr__(self, "rho_values", rho_values)
        object.__setattr__(self, "lipschitz_margins", lipschitz_margins)
        object.__setattr__(self, "spectra_equal", spectra_equal)
        object.__setattr__(self, "constant", constant)

    def to_json_dict(self) -> dict:
        return {
            "rho_values": self.rho_values,
            "lipschitz_margins": self.lipschitz_margins,
            "spectra_equal": self.spectra_equal,
            "constant": self.constant,
        }

    @property
    def checks(self) -> list[bool]:
        """One verdict per margin, plus the constancy verdict if there is one."""
        verdicts = [m >= 0 for m in self.lipschitz_margins]
        return verdicts if self.constant is None else verdicts + [self.constant]


def sweep(mcs, Ys: list[HomologyClass]) -> list[SweepReport]:
    """rho of each class in ``Ys`` along the Morse complexes of a family.

    ``mcs`` is consumed once, in order, holding only the previous complex, so
    it may be a generator that builds each one on demand.  The invariance
    verdict is meaningful when consecutive fields are close in sup norm
    relative to the smallest spectral gap.
    """
    rows, dists, prev = [], [], None
    for mc in mcs:
        if prev is None:
            first, spectra_equal = spectrum(mc), True
        else:
            check_one_complex(prev, mc)
            dists.append(c0_distance(prev.field, mc.field))
            spectra_equal = spectra_equal and spectrum(mc) == first
        rows.append([rho(mc, Y).sigma for Y in Ys])
        prev = mc
    if prev is None:
        raise ChainError("empty family")
    reports = []
    for vals in map(list, zip(*rows)):
        margins = [d - abs(a - b) for d, a, b in zip(dists, vals, vals[1:])]
        constant = len(set(vals)) <= 1 if spectra_equal else None
        reports.append(SweepReport(vals, margins, spectra_equal, constant))
    return reports
