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

from .errors import ReadOnly
from .homology import HomologyClass
from .morse import MorseComplex, check_one_complex
from .spectral import spectral_value


class ContinuationReport(ReadOnly):
    """Spectral values of a class and its image, with the difference bounds."""

    __slots__ = ("source_sigma", "target_sigma", "lower", "upper", "passed")

    def __init__(self, source_sigma: float, target_sigma: float, lower: float,
                 upper: float, passed: bool):
        object.__setattr__(self, "source_sigma", source_sigma)
        object.__setattr__(self, "target_sigma", target_sigma)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "passed", passed)

    def to_json_dict(self) -> dict:
        return {
            "source_sigma": self.source_sigma,
            "target_sigma": self.target_sigma,
            "lower": self.lower,
            "upper": self.upper,
            "pass": self.passed,
        }


def continuation_map(
    mc_minus: MorseComplex, mc_plus: MorseComplex, X: HomologyClass
) -> HomologyClass:
    """Image of a class of the source field in the target field's complex.

    X must be a nonzero cycle of ``mc_minus`` (``MorseComplex.class_positions``).
    """
    mc_minus.class_positions(X)
    return _image(mc_minus, mc_plus, X)


def _image(mc_minus: MorseComplex, mc_plus: MorseComplex, X: HomologyClass) -> HomologyClass:
    check_one_complex(mc_minus, mc_plus)
    image = mc_plus.gradient.flow_down(mc_minus.gradient.expand(X.support))
    return HomologyClass(X.grade, image, "morse", owner=mc_plus)


def sandwich_built(
    mc_minus: MorseComplex, mc_plus: MorseComplex, X: HomologyClass
) -> ContinuationReport:
    """Evaluate the two-sided bound on the spectral-value shift of X.

    X is a class of ``mc_minus``, checked as ``spectral_value`` checks it;
    both Morse complexes must live on one cell complex.  The inequality is
    exact in this model, so ``passed`` is expected to be true on every input;
    both bounds are attained when the fields differ by a constant.
    """
    source = spectral_value(mc_minus, X)  # the one check of X
    target = spectral_value(mc_plus, _image(mc_minus, mc_plus, X))
    diffs = [
        b - a
        for a, b in zip(mc_minus.field.vertex_values, mc_plus.field.vertex_values)
    ]
    lower, upper = min(diffs), max(diffs)
    shift = target.sigma - source.sigma
    return ContinuationReport(
        source.sigma, target.sigma, lower, upper, lower <= shift <= upper
    )
