import math

import pytest

from morsespec.bounds import (
    BoundParams,
    MoserNorm,
    adiabatic_limit_bound,
    chained_bound,
    corollary_bound,
    eta_bound,
    iteration_bound,
    iteration_oracle,
    min_steps,
    moser_norm,
    per_step_bound,
    step_threshold,
)
from morsespec.errors import BoundsDomainError, PreconditionError, StepCountError

REL = 1e-12


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------ iteration


def test_iteration_bound_base_case():
    assert iteration_bound(3.0, 2.0, 1.0, 0) == 3.0
    assert iteration_bound(-3.0, 2.0, 1.0, 0) == 1.0  # max{x0, beta}


def test_iteration_bound_matches_hand_recursion():
    # worst-case recursion 1 -> 3 -> 7 -> 15 with alpha=2, beta=1
    assert iteration_oracle(1.0, 2.0, 1.0, 3) == 15.0
    assert iteration_bound(1.0, 2.0, 1.0, 3) == 15.0


def test_iteration_bound_negative_start():
    assert iteration_oracle(-5.0, 2.0, 1.0, 1) == 1.0  # max{-10,0}+1
    assert iteration_bound(-5.0, 2.0, 1.0, 1) == 3.0  # 2*max{-5,1}+1


def test_iteration_oracle_zero_start():
    for alpha in (0.5, 1.0, 2.0):
        assert iteration_oracle(0.0, alpha, 0.75, 1) == 0.75


def test_iteration_alpha_one_sum_form():
    assert iteration_bound(2.0, 1.0, 0.5, 4) == 2.0 + 4 * 0.5
    assert iteration_bound(-2.0, 1.0, 0.5, 4) == 0.5 + 4 * 0.5


def test_iteration_domain_errors():
    for bad in [(1.0, 0.0, 1.0, 1), (1.0, -2.0, 1.0, 1), (1.0, 2.0, 0.0, 1), (1.0, 2.0, -1.0, 1)]:
        with pytest.raises(BoundsDomainError):
            iteration_bound(*bad)
        with pytest.raises(BoundsDomainError):
            iteration_oracle(*bad)
    with pytest.raises(BoundsDomainError):
        iteration_bound(1.0, 2.0, 1.0, -1)


def test_oracle_below_bound_on_grid():
    xs = [-10.0, -1.0, 0.0, 0.5, 3.0, 10.0]
    alphas = [0.25, 0.5, 1.0, 1.5, 2.0, 4.0]
    betas = [0.01, 0.5, 1.0, 4.0]
    ns = [0, 1, 2, 5, 13, 40]
    for x0 in xs:
        for a in alphas:
            for b in betas:
                for n in ns:
                    lo = iteration_oracle(x0, a, b, n)
                    hi = iteration_bound(x0, a, b, n)
                    assert lo <= hi * (1 + REL) + REL


def test_equality_on_positive_subfamily():
    # x0 >= beta > 0: the recursion never clamps, so the bound is attained
    for x0, a, b, n in [(1.0, 2.0, 1.0, 3), (4.0, 1.5, 0.5, 10), (0.5, 3.0, 0.5, 7)]:
        assert close(iteration_oracle(x0, a, b, n), iteration_bound(x0, a, b, n))


# ------------------------------------------------------------ eta


def test_eta_bound_values():
    assert close(eta_bound(0.0, 0.5, 0.0), 1.0 / 6.0)
    assert close(eta_bound(1.0, 0.5, 0.0), 1.5)


def test_eta_bound_monotone():
    grid = [0.0, 0.3, 1.0, 2.5]
    deltas = [0.1, 0.4, 0.7, 0.95]
    for d in deltas:
        for k in grid:
            vals = [eta_bound(a, d, k) for a in grid]
            assert vals == sorted(vals)
    for a in grid:
        for k in grid:
            vals = [eta_bound(a, d, k) for d in deltas]
            assert vals == sorted(vals)
    for a in grid:
        for d in deltas:
            vals = [eta_bound(a, d, k) for k in grid]
            assert vals == sorted(vals)


def test_eta_bound_domain():
    with pytest.raises(BoundsDomainError):
        eta_bound(1.0, 0.0, 0.0)
    with pytest.raises(BoundsDomainError):
        eta_bound(1.0, 1.0, 0.0)
    with pytest.raises(BoundsDomainError):
        eta_bound(-1.0, 0.5, 0.0)


# ------------------------------------------------------------ per-step


def test_per_step_zero_perturbation_is_clamp():
    for s in (-2.0, 0.0, 1.5):
        p = BoundParams(0.5, 0.0, 0.0, 0.0, s)
        assert per_step_bound(p) == max(s, 0.0)


def test_per_step_clamped_source():
    p = BoundParams(0.3, 0.07, 0.0, 1.0, -4.0)
    assert per_step_bound(p) == 0.07


def test_per_step_threshold_value():
    assert close(step_threshold(0.5), 0.0075)


def test_per_step_term_by_term():
    # recompute every subterm independently at the threshold point
    d, d0, d1, d2, s = 0.5, 0.01, 0.0075, 0.0, 1.0
    p = BoundParams(d, d0, d1, d2, s)
    growth = max((1 + 8 * d1 / (2 - d)) * s, 0.0)
    inner = (64 - 28 * d) / (d * (2 - d)) * d0 + (d + 4 * d2) / (2 - d)
    expected = growth + d0 + 2 * d1 * inner
    assert per_step_bound(p) == expected
    assert close(expected, 1.065)


def test_per_step_precondition_error_carries_threshold():
    p = BoundParams(0.5, 0.0, 0.008, 0.0, 0.0)
    with pytest.raises(PreconditionError) as err:
        per_step_bound(p)
    assert close(err.value.threshold, 0.0075)


# ------------------------------------------------------------ chaining


def test_chained_zero_perturbation_any_n():
    for s in (-1.0, 0.0, 2.0):
        p = BoundParams(0.7, 0.0, 0.0, 0.3, s)
        for n in (1, 5, 1000):
            assert chained_bound(p, n) == max(s, 0.0)


def test_chained_matches_iteration_closed_form():
    p = BoundParams(0.5, 0.1, 0.2, 0.05, 1.0)
    for n in (54, 100, 1024):
        d = p.delta
        alpha = 1 + 16 * p.delta1 / ((2 - d) * n)
        beta = (2 / n) * p.delta0 + (4 / n) * p.delta1 * (
            (64 - 28 * d) / (d * (2 - d)) * (2 / n) * p.delta0
            + (d + 4 * p.delta2) / (2 - d)
        )
        assert chained_bound(p, n) == iteration_bound(p.sigma_minus, alpha, beta, n)


def test_chained_step_count_guard():
    p = BoundParams(0.5, 0.1, 0.2, 0.05, 1.0)
    assert min_steps(0.5, 0.2) == 54
    with pytest.raises(StepCountError) as err:
        chained_bound(p, 53)
    assert err.value.minimum == 54
    with pytest.raises(BoundsDomainError):
        chained_bound(p, 0)


def test_chained_value_decreases_in_descent_regime():
    # approach from above: clamped source, difference term dominated by the
    # 1/N^2 cross contribution
    for d in (0.3, 0.5, 0.7):
        for d0 in (0.3, 0.6, 1.0):
            for d1 in (0.02, 0.05, 0.1):
                p = BoundParams(d, d0, d1, 0.0, -1.0)
                n = min_steps(d, d1)
                prev = None
                for _ in range(10):
                    val = chained_bound(p, n)
                    if prev is not None:
                        assert val <= prev + 1e-15
                    prev = val
                    n *= 2


def test_chained_converges_to_limit():
    p = BoundParams(0.5, 0.1, 0.2, 0.05, 1.0)
    limit = adiabatic_limit_bound(p)
    gaps = []
    n = min_steps(0.5, 0.2)
    for _ in range(16):
        gaps.append(abs(chained_bound(p, n) - limit))
        n *= 2
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] / abs(limit) < 1e-5


# ------------------------------------------------------------ limit


def test_limit_all_zero_is_clamp():
    for s in (-3.0, 0.0, 2.0):
        assert adiabatic_limit_bound(BoundParams(0.5, 0.0, 0.0, 0.0, s)) == max(s, 0.0)


def test_limit_d1_zero_closed_form_and_numeric():
    p = BoundParams(0.5, 0.3, 0.0, 0.4, 1.0)
    assert adiabatic_limit_bound(p) == max(1.0, 0.0) + 0.6
    tiny = BoundParams(0.5, 0.3, 1e-8, 0.4, 1.0)
    assert close(adiabatic_limit_bound(tiny), adiabatic_limit_bound(p), 1e-6)


def test_limit_statement_variant_scales_excess():
    p = BoundParams(0.4, 0.2, 0.3, 0.1, 2.0)
    proof = adiabatic_limit_bound(p)
    stmt = adiabatic_limit_bound(p, statement_variant=True)
    e = math.exp(16 * 0.3 / 1.6)
    assert close(stmt - e * 2.0, 8 * (proof - e * 2.0))


def test_limit_monotone_in_each_delta():
    base = dict(delta=0.5, delta0=0.2, delta1=0.3, delta2=0.1, sigma_minus=1.0)
    for key in ("delta0", "delta1", "delta2", "sigma_minus"):
        vals = []
        for t in (0.0, 0.1, 0.4, 1.0):
            kw = dict(base)
            kw[key] = t if key != "sigma_minus" else t - 0.5
            vals.append(adiabatic_limit_bound(BoundParams(**kw)))
        assert vals == sorted(vals)


@pytest.mark.parametrize(
    "kw",
    [
        dict(delta=0.0), dict(delta=1.0), dict(delta=math.nan),
        dict(delta=0.5, delta0=-0.1), dict(delta=0.5, delta1=-0.1),
        dict(delta=0.5, delta2=-0.1), dict(delta=0.5, delta2=math.inf),
        dict(delta=0.5, sigma_minus=math.inf), dict(delta=0.5, sigma_minus=math.nan),
    ],
    ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
)
def test_bound_params_are_checked_at_construction(kw):
    with pytest.raises(BoundsDomainError):
        BoundParams(**kw)


# ------------------------------------------------------------ norms


def test_moser_norm_values():
    assert moser_norm(MoserNorm(0.0, 0.0, 0.0)) == 0.0
    assert moser_norm(MoserNorm(1.0, 2.0, 3.0)) == 6.0
    for bad in [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0), (math.nan, 0.0, 0.0)]:
        with pytest.raises(BoundsDomainError):
            MoserNorm(*bad)


def test_moser_norm_triangle_inequality():
    import random

    rng = random.Random(9)
    for _ in range(100):
        a = MoserNorm(rng.random(), rng.random(), rng.random())
        b = MoserNorm(rng.random(), rng.random(), rng.random())
        s = MoserNorm(a.f_c0 + b.f_c0, a.h_integral + b.h_integral, a.kappa + b.kappa)
        assert moser_norm(s) <= moser_norm(a) + moser_norm(b) + 1e-15


# ------------------------------------------------------------ corollary


def test_corollary_zero_distance():
    assert corollary_bound(2.0, 1.0, 3.0, 0.0, 0.5) == 2.0
    assert corollary_bound(-2.0, 1.0, 3.0, 0.0, 0.5) == 0.0


def test_corollary_dominates_limit():
    import random

    rng = random.Random(11)
    for _ in range(300):
        d = rng.uniform(0.05, 0.95)
        diff = rng.uniform(0.0, 1.5)
        d0 = rng.uniform(0.0, 1.0) * diff
        d1 = rng.uniform(0.0, 1.0) * diff
        npl = rng.uniform(0.0, 2.0)
        nmi = rng.uniform(0.0, 2.0)
        d2 = rng.uniform(0.0, 1.0) * max(npl, nmi)
        s = rng.uniform(-2.0, 3.0)
        lim = adiabatic_limit_bound(BoundParams(d, d0, d1, d2, s))
        cor = corollary_bound(s, npl, nmi, diff, d)
        assert cor >= lim


def test_corollary_domain():
    with pytest.raises(BoundsDomainError):
        corollary_bound(1.0, -1.0, 0.0, 0.0, 0.5)
    with pytest.raises(BoundsDomainError):
        corollary_bound(1.0, 1.0, 1.0, 1.0, 1.5)
