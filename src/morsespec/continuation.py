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

from .homology import HomologyClass
from .morse import MorseComplex, check_one_complex, homology_basis, same_class
from .spectral import spectral_value


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


def continuation_map(
    mc_minus: MorseComplex, mc_plus: MorseComplex, X: HomologyClass
) -> HomologyClass:
    """Image of a class of the source field in the target field's complex.

    X must be a nonzero cycle of ``mc_minus`` (``MorseComplex.class_positions``).
    """
    check_one_complex(mc_minus, mc_plus)
    mc_minus.class_positions(X)
    image = _transfer(mc_minus, mc_plus, X.support)
    return HomologyClass(X.grade, image, "morse", owner=mc_plus)


def functoriality_check(
    mc_a: MorseComplex, mc_b: MorseComplex, mc_c: MorseComplex
) -> bool:
    """Composing a->b and b->c equals a->c on a full homology basis."""
    check_one_complex(mc_a, mc_b, mc_c)
    for classes in homology_basis(mc_a).values():
        for X in classes:
            direct = _transfer(mc_a, mc_c, X.support)
            via_b = _transfer(mc_a, mc_b, X.support)
            composed = _transfer(mc_b, mc_c, via_b)
            if not same_class(mc_c, direct, composed):
                return False
    return True


def roundtrip_check(mc_a: MorseComplex, mc_b: MorseComplex) -> bool:
    """Going a->b->a is the identity on a homology basis of the source."""
    check_one_complex(mc_a, mc_b)
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
    """Evaluate the two-sided bound on the spectral-value shift of X.

    X is a class of ``mc_minus``, checked as ``spectral_value`` checks it;
    both Morse complexes must live on one cell complex.  The inequality is
    exact in this model, so ``passed`` is expected to be true on every input;
    both bounds are attained when the fields differ by a constant.
    """
    check_one_complex(mc_minus, mc_plus)
    source = spectral_value(mc_minus, X)
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
