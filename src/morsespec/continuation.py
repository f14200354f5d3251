"""Continuation maps between Morse complexes of two fields on one complex.

The map is the canonical identification: expand a cycle of critical cells of
the source field into the full complex, then project along the matching of
the target field.  Both steps are chain maps, so the composite is one; on
homology it is an isomorphism, functorial in the fields, and the identity
when the fields agree.  The action estimate for spectral values (the sandwich
between the vertexwise min and max of the field difference) follows because
expansion never raises the source action and projection never raises the
target action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex import CellComplex, ScalarField
from .errors import ChainError
from .homology import HomologyClass
from .morse import MorseComplex, homology_basis, same_class


@dataclass(frozen=True)
class ContinuationReport:
    """Spectral values of a class and its image, with the difference bounds."""

    source_sigma: float
    target_sigma: float
    lower: float
    upper: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "source_sigma": self.source_sigma,
            "target_sigma": self.target_sigma,
            "lower": self.lower,
            "upper": self.upper,
            "pass": self.passed,
        }


def _transfer(mc_src: MorseComplex, mc_dst: MorseComplex, support) -> frozenset[int]:
    return mc_dst.gradient.flow_down(mc_src.gradient.expand(support))


def _check_source_class(mc: MorseComplex, X: HomologyClass) -> None:
    if not X.support:
        raise ChainError("zero class has no continuation image")
    if not mc.is_cycle(X.grade, mc.mask(X.grade, X.support)):
        raise ChainError("representative is not a cycle")


def continuation_map(
    cx: CellComplex, f_minus: ScalarField, f_plus: ScalarField, X: HomologyClass
) -> HomologyClass:
    """Image of a class of the source field in the target field's complex."""
    mc_minus = MorseComplex.from_field(cx, f_minus)
    mc_plus = MorseComplex.from_field(cx, f_plus)
    _check_source_class(mc_minus, X)
    image = _transfer(mc_minus, mc_plus, X.support)
    return HomologyClass(X.grade, image, "morse", owner=mc_plus)


def functoriality_check(
    cx: CellComplex, f_a: ScalarField, f_b: ScalarField, f_c: ScalarField
) -> bool:
    """Composing a->b and b->c equals a->c on a full homology basis."""
    mc_a, mc_b, mc_c = (MorseComplex.from_field(cx, f) for f in (f_a, f_b, f_c))
    for classes in homology_basis(mc_a).values():
        for X in classes:
            direct = _transfer(mc_a, mc_c, X.support)
            via_b = _transfer(mc_a, mc_b, X.support)
            composed = _transfer(mc_b, mc_c, via_b)
            if not same_class(mc_c, direct, composed):
                return False
    return True


def roundtrip_check(cx: CellComplex, f_a: ScalarField, f_b: ScalarField) -> bool:
    """Going a->b->a is the identity on a homology basis of the source."""
    mc_a, mc_b = MorseComplex.from_field(cx, f_a), MorseComplex.from_field(cx, f_b)
    for classes in homology_basis(mc_a).values():
        for X in classes:
            there = _transfer(mc_a, mc_b, X.support)
            back = _transfer(mc_b, mc_a, there)
            if not same_class(mc_a, X.support, back):
                return False
    return True


def sandwich_built(
    mc_minus: MorseComplex, mc_plus: MorseComplex, X: HomologyClass
) -> ContinuationReport:
    """Sandwich evaluation on already-built Morse complexes of one complex."""
    from .spectral import spectral_value  # local import to avoid a cycle

    _check_source_class(mc_minus, X)
    source = spectral_value(
        mc_minus, HomologyClass(X.grade, X.support, "morse", owner=mc_minus)
    )
    image = _transfer(mc_minus, mc_plus, X.support)
    target = spectral_value(
        mc_plus, HomologyClass(X.grade, image, "morse", owner=mc_plus)
    )
    diffs = [
        b - a
        for a, b in zip(mc_minus.field.vertex_values, mc_plus.field.vertex_values)
    ]
    lower, upper = min(diffs), max(diffs)
    shift = target.sigma - source.sigma
    return ContinuationReport(
        source.sigma, target.sigma, lower, upper, lower <= shift <= upper
    )


def sandwich_check(
    cx: CellComplex, f_minus: ScalarField, f_plus: ScalarField, X: HomologyClass
) -> ContinuationReport:
    """Evaluate the two-sided bound on the spectral-value shift of X.

    The inequality is exact in this model, so ``passed`` is expected to be
    true on every input; both bounds are attained when the fields differ by
    a constant.
    """
    mc_minus = MorseComplex.from_field(cx, f_minus)
    mc_plus = MorseComplex.from_field(cx, f_plus)
    return sandwich_built(mc_minus, mc_plus, X)
