"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; comparisons marked exact use ``==`` on binary64
values (test fields are dyadic, so the arithmetic involved is exact).
"""

import itertools
import random
import time
from decimal import Decimal, localcontext

import morsespec.homology as fullh
import oracles
from conftest import (
    cycle_graph,
    dyadic_field,
    random_instance,
    shifted,
    tetra_boundary,
)
from morsespec import (
    BoundParams,
    MorseComplex,
    adiabatic_limit_bound,
    build_gradient,
    build_morse_complex,
    build_torus_grid,
    c0_distance,
    chained_bound,
    corollary_bound,
    homology_basis,
    iteration_bound,
    iteration_oracle,
    min_steps,
    per_step_bound,
    rho,
    sandwich_built,
    spectral_value,
    spectrum,
    sweep,
    verify_d_squared,
)
from morsespec.fields import translate_field
from morsespec.homology import HomologyClass


def _check(label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _mc(cx, fld):
    g = build_gradient(fld)
    return g, build_morse_complex(g)


def point_class(cx):
    return HomologyClass(0, frozenset({0}), "full", owner=cx)


def fundamental_class(cx):
    return HomologyClass(
        cx.top_dim,
        frozenset(cx.ids_of_dim(cx.top_dim)),
        "full",
        owner=cx,
    )


def test_criterion_01_topology_sanity():
    rng = random.Random(101)
    t0 = time.time()
    ok = True
    for nx, ny in [(4, 4), (8, 8), (16, 16), (16, 8), (32, 32), (64, 64)]:
        cx = build_torus_grid(nx, ny)
        _, mc = _mc(cx, dyadic_field(cx, rng))
        ok = ok and mc.betti() == [1, 2, 1]
    tetra = tetra_boundary()
    _, mc = _mc(tetra, dyadic_field(tetra, rng))
    ok = ok and mc.betti() == [1, 0, 1]
    for n in (3, 5, 8):
        cx = cycle_graph(n)
        _, mc = _mc(cx, dyadic_field(cx, rng))
        ok = ok and mc.betti() == [1, 1]
    elapsed = time.time() - t0
    _check("criterion 1: topology sanity up to 64x64", ok, f"{elapsed:.2f}s")


def test_criterion_02_d_squared_thousand_instances():
    rng = random.Random(102)
    failures = 0
    for _ in range(1000):
        cx, fld = random_instance(rng)
        _, mc = _mc(cx, fld)
        if not verify_d_squared(mc):
            failures += 1
    _check(
        "criterion 2: boundary-squared zero on 1000 random instances",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_03_morse_vs_full_homology(corpus):
    bad = 0
    for cx, fld in corpus:
        _, mc = _mc(cx, fld)
        if mc.betti() != oracles.betti_numbers(cx):
            bad += 1
    _check(
        "criterion 3: Morse Betti equals full-complex reduction on the corpus",
        bad == 0,
        f"{len(corpus)} instances",
    )


def test_criterion_04_spectral_oracle():
    rng = random.Random(104)
    instances = 0
    mismatches = 0
    while instances < 200:
        if rng.random() < 0.5:
            cx = build_torus_grid(rng.randint(3, 4), rng.randint(3, 4))
        else:
            cx, _ = random_instance(rng)
        fld = dyadic_field(cx, rng)
        _, mc = _mc(cx, fld)
        if any(len(mc.boundary.get(k + 1, [])) > 20 for k in mc.grades):
            continue
        instances += 1
        for k, classes in homology_basis(mc).items():
            for X in classes:
                if spectral_value(mc, X).sigma != oracles.exhaustive_spectral_value(mc, X):
                    mismatches += 1
    _check(
        "criterion 4: greedy sigma equals exhaustive coset minimum",
        mismatches == 0,
        "200 instances, <= 20 generators each",
    )


def test_criterion_05_extremal_classes():
    rng = random.Random(105)
    bad = 0
    total = 0
    instances = [build_torus_grid(rng.randint(3, 6), rng.randint(3, 6)) for _ in range(20)]
    instances += [tetra_boundary(), cycle_graph(4), cycle_graph(7)]
    for cx in instances:
        for _ in range(3):
            fld = dyadic_field(cx, rng)
            mc = MorseComplex.from_field(fld)
            total += 1
            if rho(mc, point_class(cx)).sigma != min(fld.vertex_values):
                bad += 1
            if rho(mc, fundamental_class(cx)).sigma != max(fld.vertex_values):
                bad += 1
    _check(
        "criterion 5: sigma(point)=min f and sigma(fundamental)=max f",
        bad == 0,
        f"{total} instances",
    )


def test_criterion_06_sandwich_theorem():
    rng = random.Random(106)
    cx = build_torus_grid(3, 3)
    bad = 0
    checked = 0
    for _ in range(500):
        fa = dyadic_field(cx, rng)
        fb = dyadic_field(cx, rng)
        ga, mca = _mc(cx, fa)
        _, mcb = _mc(cx, fb)
        for k, classes in homology_basis(mca).items():
            for X in classes:
                rep = sandwich_built(mca, mcb, X)
                checked += 1
                if not rep.passed:
                    bad += 1
    # sharpness: constant shifts meet both bounds with equality
    tight = True
    for c in (0.5, -0.75, 2.0):
        fa = dyadic_field(cx, rng)
        fb = shifted(fa, c)
        ga, mca = _mc(cx, fa)
        _, mcb = _mc(cx, fb)
        for k, classes in homology_basis(mca).items():
            for X in classes:
                rep = sandwich_built(mca, mcb, X)
                shift = rep.target_sigma - rep.source_sigma
                tight = tight and rep.lower == rep.upper == shift == c
    _check(
        "criterion 6: sandwich estimate, 500 pairs x all classes + tight shifts",
        bad == 0 and tight,
        f"{checked} class checks",
    )


def test_criterion_07_lipschitz():
    rng = random.Random(107)
    cx = build_torus_grid(4, 4)
    Ys = (
        [point_class(cx)]
        + fullh.homology_basis(cx)[1]
        + [fundamental_class(cx)]
    )
    bad = 0
    for _ in range(500):
        f = dyadic_field(cx, rng)
        g = dyadic_field(cx, rng)
        gf, mcf = _mc(cx, f)
        gg, mcg = _mc(cx, g)
        dist = c0_distance(f, g)
        for Y in Ys:
            a = spectral_value(
                mcf, HomologyClass(Y.grade, gf.flow_down(Y.support), "morse", owner=mcf)
            ).sigma
            b = spectral_value(
                mcg, HomologyClass(Y.grade, gg.flow_down(Y.support), "morse", owner=mcg)
            ).sigma
            if abs(a - b) > dist:
                bad += 1
    _check(
        "criterion 7: 1-Lipschitz in the sup norm over 500 random pairs",
        bad == 0,
        "4 classes each",
    )


def test_criterion_08_spectrum_membership():
    rng = random.Random(108)
    bad = 0
    total = 0
    for _ in range(60):
        cx = build_torus_grid(rng.randint(3, 5), rng.randint(3, 5))
        fld = dyadic_field(cx, rng)
        for k, classes in fullh.homology_basis(cx).items():
            for Y in classes:
                mc = MorseComplex.from_field(fld)
                rep = rho(mc, Y)
                total += 1
                if rep.sigma not in set(spectrum(mc)):
                    bad += 1
    _check(
        "criterion 8: rho lands in the spectrum on every instance",
        bad == 0,
        f"{total} class evaluations",
    )


def test_criterion_09_functoriality():
    rng = random.Random(109)
    bad = 0
    for i in range(100):
        cx = (
            build_torus_grid(rng.randint(3, 4), rng.randint(3, 4))
            if i % 3
            else tetra_boundary()
        )
        mca, mcb, mcc = (_mc(cx, dyadic_field(cx, rng))[1] for _ in range(3))
        if not oracles.functoriality_check(mca, mcb, mcc):
            bad += 1
        if not oracles.roundtrip_check(mca, mcb):
            bad += 1
    _check(
        "criterion 9: functoriality and two-sided inverse over 100 triples",
        bad == 0,
    )


def test_criterion_10_gradient_independence():
    rng = random.Random(110)
    bad = 0
    instances = 0
    while instances < 200:
        cx, fld = random_instance(rng)
        instances += 1
        mc_id = _mc(cx, fld)[1]
        mc_rev = build_morse_complex(oracles.reference_gradient(cx, fld, "reverse-id"))
        mc_full = build_morse_complex(oracles.empty_gradient(fld))
        for k, classes in fullh.homology_basis(cx).items():
            for Y in classes:
                a = rho(mc_id, Y).sigma
                if rho(mc_rev, Y).sigma != a or rho(mc_full, Y).sigma != a:
                    bad += 1
    _check(
        "criterion 10: sigma agrees across the lower-star, reverse-id and empty matchings",
        bad == 0,
        "200 instances",
    )


def test_criterion_11_invariance_translate_families():
    rng = random.Random(111)
    bad = 0
    for nx, ny in [(4, 4), (5, 3), (6, 6)]:
        cx = build_torus_grid(nx, ny)
        fld = dyadic_field(cx, rng)
        family = [translate_field(fld, k, 0) for k in range(nx)]
        family += [translate_field(fld, 0, k) for k in range(ny)]
        Ys = (
            [point_class(cx)]
            + fullh.homology_basis(cx)[1]
            + [fundamental_class(cx)]
        )
        mcs = [_mc(cx, f)[1] for f in family]
        for res in sweep(mcs, Ys):
            if not res.constant:
                bad += 1
    _check("criterion 11: translate families give constant rho", bad == 0)


def test_criterion_12_iteration_inequality():
    xs = [-10.0, -2.0, -0.5, 0.0, 0.25, 1.0, 2.5, 5.0, 7.5, 10.0]
    alphas = [0.1, 0.35, 0.5, 0.8, 1.0, 1.25, 1.7, 2.0, 3.0, 4.0]
    betas = [0.05, 0.3, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    ns = [0, 1, 2, 3, 5, 8, 13, 21, 30, 40]
    rel = 1e-12
    bad = 0
    points = 0
    for x0, a in itertools.product(xs, alphas):
        for b, n in itertools.product(betas, ns):
            points += 1
            lo = iteration_oracle(x0, a, b, n)
            hi = iteration_bound(x0, a, b, n)
            if lo > hi + rel * max(1.0, abs(lo), abs(hi)):
                bad += 1
    eq_bad = 0
    for x0, a, b, n in itertools.product(
        [1.0, 2.0, 5.0, 10.0], [1.1, 1.5, 2.0, 3.0], [0.25, 0.5, 1.0], [1, 7, 19, 40]
    ):
        if x0 >= b:
            lo = iteration_oracle(x0, a, b, n)
            hi = iteration_bound(x0, a, b, n)
            if abs(lo - hi) > rel * max(1.0, abs(lo), abs(hi)):
                eq_bad += 1
    _check(
        "criterion 12: iteration oracle below closed form on 10^4 grid",
        bad == 0 and eq_bad == 0,
        f"{points} points, equality subfamily exact",
    )


def test_criterion_13a_convergence_gap_monotone():
    deltas = [0.2, 0.35, 0.5, 0.65, 0.8]
    d0s = [0.0, 0.1, 0.3, 0.6, 1.0]
    d1s = [0.05, 0.2]
    sigmas = [-1.0, 1.0]
    bad = 0
    points = 0
    for d, d0, d1, s in itertools.product(deltas, d0s, d1s, sigmas):
        points += 1
        p = BoundParams(d, d0, d1, 0.05, s)
        limit = adiabatic_limit_bound(p)
        n = min_steps(d, d1)
        prev = None
        for _ in range(10):
            gap = abs(chained_bound(p, n) - limit)
            if prev is not None and gap >= prev:
                bad += 1
                break
            prev = gap
            n *= 2
    _check(
        "criterion 13a: |chained - limit| strictly decreases under N-doubling",
        bad == 0,
        f"{points}-point grid, 10 doublings",
    )


def _closed_forms_50_digits(p, n):
    """The chained_bound and adiabatic_limit_bound docstring formulas at the
    binary64 values of p, evaluated in 50-digit decimal, together with the
    analytic first-order coefficient c1 of N*(chained - limit).
    Assumes sigma_minus >= the per-step offset b, so max(sigma_minus, b) is
    sigma_minus."""
    with localcontext() as ctx:
        ctx.prec = 50
        d, d0, d1, d2, s = (
            Decimal(v) for v in (p.delta, p.delta0, p.delta1, p.delta2, p.sigma_minus)
        )
        big_n = Decimal(n)
        a = 1 + 16 * d1 / ((2 - d) * big_n)
        b = (2 / big_n) * d0 + (4 / big_n) * d1 * (
            (64 - 28 * d) / (d * (2 - d)) * (2 / big_n) * d0 + (d + 4 * d2) / (2 - d)
        )
        a_n = a**n
        chained = a_n * max(s, b) + b * (a_n - 1) / (a - 1)
        y = 16 * d1 / (2 - d)
        e = y.exp()
        limit = e * max(s, 0) + ((2 - d) * d0 / d1 + 2 * (d + 4 * d2)) * (e - 1) / 8
        # b = b1/N + b2/N^2 and a^N = e^y * (1 - y^2/(2N) + O(1/N^2)).
        b1 = 2 * d0 + 4 * d1 * (d + 4 * d2) / (2 - d)
        b2 = 8 * d0 * d1 * (64 - 28 * d) / (d * (2 - d))
        c1 = b2 * (e - 1) / y - b1 * e * y / 2 - s * e * y**2 / 2
        return chained, limit, c1


def test_criterion_13b_convergence_reference_point():
    # Reference point, N = 10^6.  With y = 16*d1/(2-d),
    # b1 = 2*d0 + 4*d1*(d+4*d2)/(2-d) and b2 = 8*d0*d1*(64-28*d)/(d*(2-d)),
    # the gap of the closed forms is first order:
    #   chained - limit = c1/N + c2/N^2 + O(1/N^3),
    #   c1 = b2*(e^y-1)/y - b1*e^y*y/2 - sigma*e^y*y^2/2,
    # which is 12.839/N, i.e. 1.22941e-6 relative at N = 10^6; it first
    # drops below 1e-6 relative at N = 1,229,407.  Three checks pin it:
    #   - the binary64 relative gap matches the 50-digit reference to 1e-4 of
    #     the gap: rounding alpha = 1 + O(1/N) moves alpha^N by up to N*2^-53
    #     relative, about 0.9e-4 of the gap here;
    #   - N*gap from the reference is within 40/N of c1: the next term is
    #     c2/N with c2 = e^y*u*(sigma + b1/y) - b2*e^y*y/2 = -33.66, where
    #     u = y^3/3 + y^4/8 is the 1/N^2 coefficient of a^N/e^y;
    #   - chained_bound equals the N-fold chain of per_step_bound with
    #     delta0' = 2*d0/N and delta1' = 2*d1/N to 1e-9 relative (a few N*eps
    #     of accumulated rounding).  per_step_bound is the affine map
    #     sigma -> alpha*sigma + b for sigma >= 0; iteration_oracle runs it.
    p = BoundParams(0.5, 0.1, 0.2, 0.05, 1.0)
    n = 10**6
    limit = adiabatic_limit_bound(p)
    value = chained_bound(p, n)
    rel = abs(value - limit) / abs(limit)

    ref_chained, ref_limit, c1 = _closed_forms_50_digits(p, n)
    ref_gap = ref_chained - ref_limit
    ref_rel = float(ref_gap / ref_limit)
    n_gap = float(n * ref_gap)
    matches_reference = abs(rel - ref_rel) <= 1e-4 * ref_rel
    matches_expansion = abs(n_gap - float(c1)) <= 40.0 / n

    step = BoundParams(p.delta, 2 * p.delta0 / n, 2 * p.delta1 / n, p.delta2, 0.0)
    b = per_step_bound(step)
    a = per_step_bound(BoundParams(step.delta, step.delta0, step.delta1, step.delta2, 1.0)) - b
    chain = iteration_oracle(p.sigma_minus, a, b, n)
    chain_rel = abs(value - chain) / abs(chain)
    matches_chain = chain_rel <= 1e-9

    _check(
        "criterion 13b: gap at N=10^6 matches its 50-digit value and c1/N, "
        "chained bound matches the per-step chain",
        matches_reference and matches_expansion and matches_chain,
        f"relative gap {rel:.6e} vs {ref_rel:.6e}, N*gap {n_gap:.6f} vs "
        f"c1 {float(c1):.6f}, chain {chain_rel:.1e}",
    )


def test_criterion_14_corollary_domination():
    rng = random.Random(114)
    bad = 0
    for _ in range(1000):
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
        if cor < lim:
            bad += 1
    _check(
        "criterion 14: norm-based bound dominates the adiabatic limit",
        bad == 0,
        "1000 random points",
    )
