"""Closed-form arithmetic for the quantitative continuation estimates.

Everything here is scalar binary64 arithmetic: an iteration inequality with
its recursion oracle, a Lagrange-multiplier bound, the per-step spectral
bound under a smallness condition, its N-step chaining, the adiabatic
(N -> infinity) limit, and the norm-based variant that dominates the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundsDomainError, PreconditionError, StepCountError


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise BoundsDomainError(f"{name} must be finite, got {x!r}")
    return x


def _require_nonneg(name: str, x: float) -> float:
    x = _require_finite(name, x)
    if x < 0:
        raise BoundsDomainError(f"{name} must be >= 0, got {x}")
    return x


def _require_delta(delta: float) -> float:
    delta = _require_finite("delta", delta)
    if not 0.0 < delta < 1.0:
        raise BoundsDomainError(f"delta must lie strictly in (0, 1), got {delta}")
    return delta


@dataclass(frozen=True)
class BoundParams:
    """Scalar inputs of the continuation estimates.

    delta is the fixed profile parameter in (0, 1); delta0 bounds the
    integrated sup distance of the perturbations, delta1 the sup distance of
    the defining functions, delta2 the larger of the two perturbation
    semi-norms; sigma_minus is the source spectral value.
    """

    delta: float
    delta0: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    sigma_minus: float = 0.0

    def __post_init__(self):
        _require_delta(self.delta)
        _require_nonneg("delta0", self.delta0)
        _require_nonneg("delta1", self.delta1)
        _require_nonneg("delta2", self.delta2)
        _require_finite("sigma_minus", self.sigma_minus)


@dataclass(frozen=True)
class MoserNorm:
    """Components of the norm of an adapted pair: sup norm of the defining
    function, integrated sup norm of the perturbation, and its semi-norm."""

    f_c0: float
    h_integral: float
    kappa: float

    def __post_init__(self):
        _require_nonneg("f_c0", self.f_c0)
        _require_nonneg("h_integral", self.h_integral)
        _require_nonneg("kappa", self.kappa)


def moser_norm(n: MoserNorm) -> float:
    """Norm value: sum of the three components."""
    return n.f_c0 + n.h_integral + n.kappa


def _iteration_args(
    x0: float, alpha: float, beta: float, n: int
) -> tuple[float, float, float, int]:
    x0 = _require_finite("x0", x0)
    alpha = _require_finite("alpha", alpha)
    beta = _require_finite("beta", beta)
    if alpha <= 0:
        raise BoundsDomainError(f"alpha must be > 0, got {alpha}")
    if beta <= 0:
        raise BoundsDomainError(f"beta must be > 0, got {beta}")
    if n < 0 or int(n) != n:
        raise BoundsDomainError(f"n must be a nonnegative integer, got {n!r}")
    return x0, alpha, beta, int(n)


def iteration_bound(x0: float, alpha: float, beta: float, n: int) -> float:
    """Closed-form majorant of the recursion x -> max(alpha*x, 0) + beta.

    Value: alpha^n * max(x0, beta) + beta * (alpha^n - 1) / (alpha - 1),
    read as max(x0, beta) + n*beta when alpha = 1.
    """
    x0, alpha, beta, n = _iteration_args(x0, alpha, beta, n)
    if alpha == 1.0:
        return max(x0, beta) + n * beta
    a_n = alpha**n
    return a_n * max(x0, beta) + beta * (a_n - 1.0) / (alpha - 1.0)


def iteration_oracle(x0: float, alpha: float, beta: float, n: int) -> float:
    """Run the recursion x -> max(alpha*x, 0) + beta with equality n times."""
    x, alpha, beta, n = _iteration_args(x0, alpha, beta, n)
    for _ in range(n):
        x = max(alpha * x, 0.0) + beta
    return x


def eta_bound(action_abs: float, delta: float, kappa: float) -> float:
    """Bound on the time-shift magnitude near a critical point.

    Value: (2 / (2 - delta)) * (action_abs + delta/4 + kappa).
    """
    action_abs = _require_nonneg("action_abs", action_abs)
    delta = _require_delta(delta)
    kappa = _require_nonneg("kappa", kappa)
    return 2.0 / (2.0 - delta) * (action_abs + delta / 4.0 + kappa)


def step_threshold(delta: float) -> float:
    """Largest admissible delta1 for a single continuation step."""
    delta = _require_delta(delta)
    return delta * (2.0 - delta) / (128.0 - 56.0 * delta)


def per_step_bound(p: BoundParams) -> float:
    """Target spectral value after one small continuation step.

    Requires delta1 <= delta*(2-delta)/(128-56*delta); the violated threshold
    travels with the error.  Value:

        max((1 + 8*delta1/(2-delta)) * sigma_minus, 0)
        + delta0
        + 2*delta1 * ( (64-28*delta)/(delta*(2-delta)) * delta0
                       + (delta + 4*delta2)/(2-delta) )
    """
    thr = step_threshold(p.delta)
    if p.delta1 > thr:
        raise PreconditionError(
            f"delta1 = {p.delta1} exceeds the step threshold {thr}", thr
        )
    d = p.delta
    growth = max((1.0 + 8.0 * p.delta1 / (2.0 - d)) * p.sigma_minus, 0.0)
    correction = (64.0 - 28.0 * d) / (d * (2.0 - d)) * p.delta0 + (
        d + 4.0 * p.delta2
    ) / (2.0 - d)
    return growth + p.delta0 + 2.0 * p.delta1 * correction


def min_steps(delta: float, delta1: float) -> int:
    """Smallest admissible step count for chaining."""
    delta = _require_delta(delta)
    delta1 = _require_nonneg("delta1", delta1)
    return max(1, math.ceil((256.0 - 112.0 * delta) / (delta * (2.0 - delta)) * delta1))


def chained_bound(p: BoundParams, n_steps: int) -> float:
    """N-step form of the chained per-step bounds.

    With a = 1 + 16*delta1/((2-delta)*N) and
    b = (2/N)*delta0 + (4/N)*delta1*( (64-28*delta)/(delta*(2-delta))*(2/N)*delta0
                                      + (delta+4*delta2)/(2-delta) ),
    the value is a^N * max(sigma_minus, b) + b*(a^N - 1)/(a - 1); for
    delta1 = 0 the geometric factor degenerates to N, and with b = 0 the
    whole bound is the clamp max(sigma_minus, 0).

    When sigma_minus >= b this is exactly the N-fold chain of per_step_bound
    with delta0' = 2*delta0/N and delta1' = 2*delta1/N, which is the affine
    map sigma -> a*sigma + b.  Otherwise it is the iteration_bound majorant
    of that chain, started from max(sigma_minus, b).  A b that overflows
    binary64 raises OverflowError.
    """
    if n_steps < 1 or int(n_steps) != n_steps:
        raise BoundsDomainError(f"n_steps must be a positive integer, got {n_steps!r}")
    n_steps = int(n_steps)
    lo = min_steps(p.delta, p.delta1)
    if n_steps < lo:
        raise StepCountError(
            f"n_steps = {n_steps} below the admissible minimum {lo}", lo
        )
    d, n = p.delta, n_steps
    alpha = 1.0 + 16.0 * p.delta1 / ((2.0 - d) * n)
    beta = (2.0 / n) * p.delta0 + (4.0 / n) * p.delta1 * (
        (64.0 - 28.0 * d) / (d * (2.0 - d)) * (2.0 / n) * p.delta0
        + (d + 4.0 * p.delta2) / (2.0 - d)
    )
    if beta == 0.0:
        return max(p.sigma_minus, 0.0)
    if not math.isfinite(beta):
        raise OverflowError(f"the per-step increment overflows at n_steps = {n}")
    return iteration_bound(p.sigma_minus, alpha, beta, n)


def adiabatic_limit_bound(p: BoundParams, statement_variant: bool = False) -> float:
    """Limit of the chained bound as the step count grows.

    Default form (the one the chaining actually converges to):

        e^x * max(sigma_minus, 0)
        + (1/8) * ( (2-delta)*delta0/delta1 + 2*(delta + 4*delta2) ) * (e^x - 1)

    with x = 16*delta1/(2-delta).  At delta1 = 0 the middle term tends to
    2*delta0 and the last to 0.  ``statement_variant`` drops the 1/8
    prefactor, matching a differently normalized published form of the same
    inequality; the two are exposed side by side rather than reconciled.
    """
    d = p.delta
    scale = 1.0 if statement_variant else 0.125
    clamp = max(p.sigma_minus, 0.0)
    if p.delta1 == 0.0:
        return clamp + scale * 16.0 * p.delta0
    x = 16.0 * p.delta1 / (2.0 - d)
    e = math.exp(x)
    coeff = (2.0 - d) * p.delta0 / p.delta1 + 2.0 * (d + 4.0 * p.delta2)
    return e * clamp + scale * coeff * (e - 1.0)


def corollary_bound(
    sigma_minus: float,
    norm_plus: float,
    norm_minus: float,
    norm_diff: float,
    delta: float,
) -> float:
    """Norm-based bound dominating the adiabatic limit.

    Value: e^y * max(sigma_minus, 0)
           + (1/8) * (2 + delta + 8*max(norm_plus, norm_minus)) * (e^y - 1)
    with y = 16*norm_diff/(2-delta).  Domination over the limit holds
    whenever delta0, delta1 <= norm_diff and delta2 <= max of the norms,
    by monotonicity of x -> (e^x - 1)/x.
    """
    sigma_minus = _require_finite("sigma_minus", sigma_minus)
    norm_plus = _require_nonneg("norm_plus", norm_plus)
    norm_minus = _require_nonneg("norm_minus", norm_minus)
    norm_diff = _require_nonneg("norm_diff", norm_diff)
    delta = _require_delta(delta)
    y = 16.0 * norm_diff / (2.0 - delta)
    e = math.exp(y)
    return e * max(sigma_minus, 0.0) + 0.125 * (
        2.0 + delta + 8.0 * max(norm_plus, norm_minus)
    ) * (e - 1.0)
