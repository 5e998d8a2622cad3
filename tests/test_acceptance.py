"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single ``[acceptance NN] PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  Criteria 1 and 10 are implemented
exactly as stated even though parts of them are unattainable for a correct
implementation; their failure messages carry the full analysis.
"""

import math
import time

import numpy as np
import pytest

from corpus import OBS_LENGTHS, full_corpus
from stepweaver.builders import dynamic_short, short_step_recurrence, silver
from stepweaver.gd import coord_form, huber_instance, quad_instance, run, tight_delta
from stepweaver.io import RunConfig
from stepweaver.optimizer import (
    P_EXPONENT,
    build_tables,
    c_low,
    enumerate_basic,
    obs_f,
    obs_g,
    obs_s,
    r_constant,
)
from stepweaver.schedule import CompClass, StepSchedule, reverse
from stepweaver.verify import (
    CertificateV,
    _f_cert_slack_raw,
    _g_slack_raw,
    _neighbour_min,
    _q_min_batched,
    _s_slack_raw,
    build_f_certificate,
    defining_slack,
    verify_schedule,
)

PHI = 1.0 + math.sqrt(2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def big_tables():
    return build_tables(2**13 - 1)


@pytest.fixture(scope="module")
def corpus(big_tables):
    return full_corpus(big_tables)


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    config = RunConfig(battery=200)
    t0 = time.perf_counter()
    reports = {name: verify_schedule(sched, config) for name, sched in corpus}
    return reports, time.perf_counter() - t0


def test_criterion_01_published_rate_regression():
    """Optimal f-rates for lengths 1..10 against the frozen expected values."""
    expected = [0.25, 0.13189, 0.08579, 0.06234, 0.04814, 0.04020, 0.03266, 0.02811, 0.02456, 0.02124]
    t0 = time.perf_counter()
    tables = build_tables(11)
    elapsed = time.perf_counter() - t0
    rows = [(n, float(tables.f_rate[n + 1]), expected[n - 1]) for n in range(1, 11)]
    bad = [(n, got, want) for n, got, want in rows if abs(got - want) > 1e-4]
    ok = not bad and elapsed < 1.0
    if bad:
        detail = (
            "recurrence optimum is strictly better than the frozen expected value at "
            + ", ".join(f"n={n} (computed {got:.6f} < expected {want:.5f})" for n, got, want in bad)
            + "; the expected values at these lengths reproduce externally computed "
            "schedules that are not optimal over join-built constructions — the "
            "exhaustive enumeration oracle (criterion 5) independently confirms the "
            "computed optima, and the built rates match the expected values at every "
            "other length"
        )
    else:
        detail = f"10/10 rates within 1e-4, built in {elapsed:.3f}s"
    _report(1, ok, detail)


def test_criterion_02_balanced_family_exactness():
    t0 = time.perf_counter()
    tables = build_tables(4096)
    worst_rate = 0.0
    worst_step = 0.0
    for k in range(0, 13):
        n = 2**k - 1
        h = obs_s(n, tables)
        s = silver(k)
        worst_rate = max(worst_rate, abs(h.rate * PHI**k - 1.0))
        if n:
            worst_step = max(worst_step, float(np.max(np.abs(h.steps - s.steps))))
    elapsed = time.perf_counter() - t0
    ok = worst_rate <= 1e-10 and worst_step <= 1e-12 and elapsed < 10.0
    _report(
        2,
        ok,
        f"k<=12: max relative rate error {worst_rate:.2e} (tol 1e-10), max step "
        f"deviation {worst_step:.2e} (tol 1e-12), {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_03_lower_bounds(big_tables):
    ns = np.arange(1, 4097)
    npow = ns.astype(float) ** P_EXPONENT
    s_norm = big_tables.s_rate[ns] * npow
    f_norm = big_tables.f_rate[ns] * npow
    s_ok = bool(np.all(s_norm >= 1.0 - 1e-10))
    f_ok = bool(np.all(f_norm >= 0.4208 - 2e-4))
    _report(
        3,
        s_ok and f_ok,
        f"n<=4096: min normalized s-rate {s_norm.min():.12f} (>= 1 - 1e-10: {s_ok}), "
        f"min normalized f-rate {f_norm.min():.6f} (>= 0.4208 - 2e-4: {f_ok})",
    )


def test_criterion_04_lower_constant_fixed_point():
    t0 = time.perf_counter()
    c = c_low()
    elapsed = time.perf_counter() - t0
    # residual of the defining minimization at the returned point
    from stepweaver.numerics import golden_min
    from stepweaver.schedule import _fgjoin_rate

    lam = np.arange(1e-3, 1.0, 1e-3)
    vals = _fgjoin_rate(lam ** (-P_EXPONENT), c * (1.0 - lam) ** (-P_EXPONENT))
    i = int(np.argmin(vals))
    _, refined = golden_min(
        lambda t: float(_fgjoin_rate(t ** (-P_EXPONENT), c * (1.0 - t) ** (-P_EXPONENT))),
        lam[i - 1],
        lam[i + 1],
        tol=1e-12,
    )
    residual = abs(c - min(refined, float(vals[i])))
    ok = abs(c - 0.4208) <= 2e-4 and residual < 1e-10 and elapsed < 5.0
    _report(
        4,
        ok,
        f"c = {c:.10f} (0.4208 ± 2e-4), fixed-point residual {residual:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_05_enumeration_oracle(big_tables):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(0, 11):
        for cls, table in ((CompClass.S, big_tables.s_rate), (CompClass.F, big_tables.f_rate)):
            best, _ = enumerate_basic(n, cls)
            worst = max(worst, abs(best.rate - float(table[n + 1])))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and elapsed < 120.0
    _report(
        5,
        ok,
        f"exhaustive enumeration matches the recurrence optimum for n<=10 in both "
        f"classes, max deviation {worst:.2e} (tol 1e-14), {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_06_tightness_suite(corpus):
    t0 = time.perf_counter()
    worst = 0.0
    worst_q = np.inf
    count = 0
    for name, sched in corpus:
        pair = (huber_instance(tight_delta(sched.comp_class, "defining", sched.rate)), quad_instance())
        for inst in pair:
            tr = run(sched, inst, np.ones(1))
            worst = max(worst, abs(defining_slack(sched, tr)))
            worst_q = min(worst_q, _q_min_batched(tr.x[:, None], coord_form(inst.is_huber, inst.param))[0])
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and worst_q >= -1e-9 and elapsed < 30.0
    _report(
        6,
        ok,
        f"{count} schedules x (quadratic + class-specific huber): max |slack| "
        f"{worst:.2e} (tol 1e-9), min Q {worst_q:.2e}, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_07_certificate_battery(corpus_reports):
    reports, elapsed = corpus_reports
    worst_name, worst_rel = None, 0.0
    q_name, q_min = None, 0.0
    failed = []
    for name, rep in reports.items():
        for check in rep.checks:
            if check.name.startswith("battery/"):
                if not check.passed:
                    failed.append(f"{name}:{check.name}")
                if check.slack < worst_rel:
                    worst_name, worst_rel = f"{name}:{check.name}", check.slack
            elif check.name == "interpolation":
                if not check.passed:
                    failed.append(f"{name}:interpolation")
                if check.slack < q_min:
                    q_name, q_min = name, check.slack
    ok = not failed and elapsed < 120.0
    _report(
        7,
        ok,
        f"{len(reports)} schedules x 200 seeded instances: min scaled slack "
        f"{worst_rel:.2e} at {worst_name} (tol -1e-8), min Q {q_min:.2e} at {q_name} "
        f"(tol -1e-9), {elapsed:.1f}s (budget 120s)"
        + (f"; FAILED: {failed[:5]}" if failed else ""),
    )


def test_criterion_08_reversal_duality(big_tables, corpus_reports):
    reports, _ = corpus_reports
    mismatched = []
    for n in OBS_LENGTHS:
        f = obs_f(n, big_tables)
        g = obs_g(n, big_tables)
        r = reverse(f)
        if not (np.array_equal(g.steps, r.steps) and g.rate == f.rate):
            mismatched.append(n)
    battery_failures = [
        f"obsg({n})"
        for n in OBS_LENGTHS
        if not all(
            c.passed for c in reports[f"obsg({n})"].checks if c.name.startswith("battery/")
        )
    ]
    ok = not mismatched and not battery_failures
    _report(
        8,
        ok,
        f"n<=64: reversed gap-optimal schedules equal the gradient-optimal family "
        f"float-for-float ({len(list(OBS_LENGTHS))} lengths), and all pass the "
        f"gradient battery"
        + (f"; mismatched: {mismatched}" if mismatched else "")
        + (f"; battery failures: {battery_failures}" if battery_failures else ""),
    )


def test_criterion_09_dynamic_short_steps():
    h = dynamic_short(100)
    mus, etas = short_step_recurrence(100)
    step_dev = float(np.max(np.abs(h.steps - mus) / mus))
    in_range = bool(np.all(h.steps > 0.0) and np.all(h.steps < 2.0))
    rate_dev = 0.0
    strictly_below = True
    for n in range(2, 101):
        rate_dev = max(rate_dev, abs(dynamic_short(n).rate - etas[n - 1]) / etas[n - 1])
        if dynamic_short(n, "sigma").rate >= dynamic_short(n).rate:
            strictly_below = False
    sigma2 = dynamic_short(2, "sigma").rate
    sigma_ok = abs(sigma2 - 0.131892) <= 1e-5
    ok = step_dev <= 1e-12 and rate_dev <= 1e-12 and in_range and strictly_below and sigma_ok
    _report(
        9,
        ok,
        f"n<=100: recurrence deviation steps {step_dev:.2e} / rates {rate_dev:.2e} "
        f"(tol 1e-12), steps in (0,2): {in_range}, seeded variant strictly better "
        f"for 2<=n<=100: {strictly_below}, two-step seeded rate {sigma2:.6f} "
        f"(0.131892 ± 1e-5)",
    )


def test_criterion_10_block_constants(big_tables):
    """As stated: R_k strictly decreasing for k <= 12 with bracketed k=12 values."""
    rs = [r_constant(CompClass.S, k, big_tables) for k in range(13)]
    rf = [r_constant(CompClass.F, k, big_tables) for k in range(13)]
    s_decreasing = all(b < a for a, b in zip(rs, rs[1:]))
    f_decreasing = all(b < a for a, b in zip(rf, rf[1:]))
    s_bracket = 1.007 < rs[12] < 1.09
    f_bracket = 0.423 < rf[12] < 0.46
    ok = s_decreasing and f_decreasing and s_bracket and f_bracket
    detail = (
        f"f-side: strictly decreasing {f_decreasing}, R_12 = {rf[12]:.6f} in (0.423, 0.46): "
        f"{f_bracket}; s-side: R_12 = {rs[12]:.6f} in (1.007, 1.09): {s_bracket}, "
        f"strictly decreasing {s_decreasing}"
    )
    if not s_decreasing:
        detail += (
            f" — the s-side block constants provably rise from the trivial R_0 = 1 "
            f"toward their limit (R_1 = {rs[1]:.6f} > R_0 = {rs[0]:.1f}; full sequence "
            + ", ".join(f"{v:.7f}" for v in rs)
            + "); a sequence starting at 1 cannot both decrease strictly and end "
            "inside (1.007, 1.09), so the stated monotonicity is unattainable as "
            "written; the bracket and the f-side behave exactly as stated"
        )
    _report(10, ok, detail)


def test_criterion_11_falsifiability():
    failures = []

    # corrupted rate: closed-form identity check must reject
    bad = StepSchedule(np.array([1.9, 1.9, 1.9]), CompClass.F, 1.0 / (1.0 + 2.0 * 5.7))
    rep = verify_schedule(bad, RunConfig(battery=10))
    if not any(c.name == "identity" and not c.passed for c in rep.checks):
        failures.append("corrupted rate escaped the identity check")

    # mistyped tree: the typechecker must reject
    from stepweaver.dsl import DslTypeError, parse, typecheck

    try:
        typecheck(parse("((e |> e) >< e)"))
        failures.append("mistyped tree escaped the typechecker")
    except DslTypeError:
        pass

    # corrupted certificate: negative slack must appear on the quadratic
    h3 = obs_f(1)
    cert = build_f_certificate(h3.tree)
    weights = cert.weights.copy()
    weights[0] *= 0.5
    doctored = CertificateV.__new__(CertificateV)
    object.__setattr__(doctored, "weights", weights)
    object.__setattr__(doctored, "eta", cert.eta)
    tr = run(h3, quad_instance(1.0), 1.0)
    if not _f_cert_slack_raw(doctored.weights, tr.x, tr.g, tr.f) < -1e-6:
        failures.append("halved certificate weight escaped the certificate check")

    # over-claimed gradient rate: tight run must show negative slack
    g1 = obs_g(1)
    tr = run(g1, huber_instance(2.0 * g1.rate / (1.0 + g1.rate)), 1.0)
    if not _g_slack_raw(g1.rate * 0.6, tr.x, tr.g, tr.f) < -1e-6:
        failures.append("over-claimed gradient rate escaped the inequality check")

    # over-claimed mixed rate
    s2 = silver(2)
    tr = run(s2, quad_instance(1.0), 1.0)
    if not _s_slack_raw(s2.steps, s2.rate * 0.8, tr.x, tr.g, tr.f) < -1e-6:
        failures.append("over-claimed mixed rate escaped the inequality check")

    # non-convex synthetic trace: interpolation check must reject; f(3) lies
    # below the tangent at 1, and neither point alone clashes with the
    # minimizer.  The check's neighbour core takes the points sorted by x,
    # the minimizer first
    x, g, f = np.array([[0.0, 1.0, 3.0]]), np.array([[0.0, 1.0, 1.0]]), np.array([[0.0, 0.5, 1.5]])
    if not _neighbour_min(x, g, f)[0] < -1e-9:
        failures.append("non-convex trace escaped the interpolation check")

    _report(
        11,
        not failures,
        "6/6 crafted negatives rejected by their intended checks"
        if not failures
        else "; ".join(failures),
    )
