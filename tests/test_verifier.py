import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import f_cert_slack_reference, f_certificate_spine_walk, s_slack_reference
from stepweaver import dsl, gd
from stepweaver.builders import constant_optimal, dynamic_short, right_heavy, silver
from stepweaver.gd import ProblemInstance, huber_instance, quad_instance, random_instance, random_x0, run
from stepweaver.io import RunConfig
from stepweaver.numerics import bisect_root
from stepweaver.optimizer import obs_f, obs_g, obs_s
from stepweaver.schedule import (
    LEAF,
    ClassMismatchError,
    CompClass,
    CompositionTree,
    IdentityError,
    JoinOp,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    empty_schedule,
    fold_tree,
    join,
    join_step,
    materialize,
    reverse,
    validate_schedule,
)
from stepweaver.verify import (
    MAX_TRACE_VALUES,
    CertificateV,
    _check_trace_size,
    _f_cert_slack_raw,
    _g_slack_raw,
    _neighbour_min,
    _q_min_batched,
    _s_fg_slacks_raw,
    _s_slack_raw,
    build_f_certificate,
    check_s_implies_fg,
    defining_slack,
    fg_residuals,
    verify_schedule,
)

SQ2 = math.sqrt(2.0)


def one_step_f():
    return join(JoinOp.FJOIN, empty_schedule(CompClass.S), empty_schedule(CompClass.F))


def one_step_g():
    return join(JoinOp.GJOIN, empty_schedule(CompClass.G), empty_schedule(CompClass.S))


class TestCertificateConstruction:
    def test_leaf(self):
        cert = build_f_certificate(empty_schedule(CompClass.F).tree)
        assert np.array_equal(cert.weights, [1.0])
        assert cert.eta == 1.0

    def test_single_join(self):
        cert = build_f_certificate(one_step_f().tree)
        assert np.allclose(cert.weights, [2.0, 2.0], rtol=1e-15)
        assert cert.weights.sum() == pytest.approx(4.0, rel=1e-14)

    def test_three_step_weights_sum(self):
        h = obs_f(3)
        cert = build_f_certificate(h.tree)
        assert cert.weights.sum() == pytest.approx(6.0 + 4.0 * SQ2, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 32, 64])
    def test_weights_sum_is_reciprocal_rate(self, n):
        h = obs_f(n)
        cert = build_f_certificate(h.tree)
        assert cert.weights.sum() == pytest.approx(1.0 / h.rate, rel=1e-10)
        assert np.all(cert.weights >= 0.0)
        assert cert.eta == pytest.approx(h.rate, rel=1e-14)

    def test_scaling_identity_at_every_join(self):
        # sqrt(beta/eta) = beta/eta - 2 beta/alpha = alpha*beta*(mu-1)/eta
        for h in (obs_f(7), obs_f(20), one_step_f()):
            node = h.tree
            while not node.is_leaf:
                a = materialize(node.left, CompClass.S)
                beta_tree = node.right
                beta = materialize(beta_tree, CompClass.F).rate
                mu, eta = join_step(JoinOp.FJOIN, a.rate, beta)
                scale = math.sqrt(beta / eta)
                assert scale == pytest.approx(beta / eta - 2.0 * beta / a.rate, rel=1e-12)
                assert scale == pytest.approx(a.rate * beta * (mu - 1.0) / eta, rel=1e-12)
                node = node.right

    def test_rejects_non_f_trees(self):
        with pytest.raises(ClassMismatchError):
            build_f_certificate(silver(2).tree)

    @pytest.mark.parametrize("text", ["(e |> obsf(2))", "((e >< e) |> (e |> rheavy(1)))", "(silver(1) |> e)"])
    def test_rejects_a_macro_leaf(self, text):
        """A macro is not the bare ``e`` an F side starts from, nor an empty
        S side: the fold refuses it instead of reading it as empty."""
        with pytest.raises(ScheduleError, match=r"leaf \w+\(\d\) is not e"):
            build_f_certificate(dsl.parse(text))

    @pytest.mark.parametrize(
        "text", ["obsf(64)", "rheavy(6)", "(silver(4) |> (silver(3) |> (e |> e)))", "((e >< (e >< e)) |> e)"]
    )
    def test_fold_matches_the_spine_walk(self, text):
        tree = dsl.compile_expression(text, CompClass.F)[0].tree
        cert = build_f_certificate(tree)
        weights, eta = f_certificate_spine_walk(tree)
        assert cert.weights.tobytes() == weights.tobytes() and cert.eta == eta

    @given(
        st.recursive(
            st.just(LEAF),
            lambda sub: st.builds(CompositionTree, st.sampled_from(list(JoinOp)), sub, sub),
            max_leaves=24,
        )
    )
    def test_every_tree_without_class_f_is_a_class_mismatch(self, tree):
        if CompClass.F in fold_tree(tree).classes:
            cert = build_f_certificate(tree)
            assert cert.weights.size == tree.length() + 1
        else:
            with pytest.raises(ClassMismatchError):
                build_f_certificate(tree)


class TestInequalities:
    def test_f_certificate_zero_on_single_point(self):
        cert = CertificateV(np.array([1.0]), 1.0)
        tr = run(empty_schedule(CompClass.F), quad_instance(1.0), 3.0)
        assert _f_cert_slack_raw(cert.weights, tr.x, tr.g, tr.f) == 0.0

    def test_f_certificate_tight_on_extremal_pair(self):
        h = obs_f(5)
        cert = build_f_certificate(h.tree)
        for inst in (quad_instance(1.0), huber_instance(h.rate)):
            tr = run(h, inst, 1.0)
            assert abs(_f_cert_slack_raw(cert.weights, tr.x, tr.g, tr.f)) < 1e-12

    def test_f_certificate_nonnegative_on_battery(self):
        h = obs_f(5)
        cert = build_f_certificate(h.tree)
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(500):
            d = int(rng.integers(1, 9))
            inst = random_instance(rng, d)
            x0 = random_x0(rng, d)
            tr = run(h, inst, x0)
            scale = max(1.0, float(x0 @ x0), float(tr.f[0]))
            worst = min(worst, _f_cert_slack_raw(cert.weights, tr.x, tr.g, tr.f) / scale)
        assert worst >= -1e-8

    def test_g_inequality_tight_and_random(self):
        h = one_step_g()
        tr = run(h, huber_instance(0.4), 1.0)
        assert abs(_g_slack_raw(h.rate, tr.x, tr.g, tr.f)) < 1e-10
        rng = np.random.default_rng(9)
        for _ in range(100):
            inst = random_instance(rng, 4)
            tr = run(h, inst, rng.standard_normal(4))
            assert _g_slack_raw(h.rate, tr.x, tr.g, tr.f) >= -1e-10

    def test_s_inequality_tight_on_quadratic(self):
        h = silver(2)
        tr = run(h, quad_instance(1.0), 1.0)
        assert abs(_s_slack_raw(h.steps, h.rate, tr.x, tr.g, tr.f)) < 1e-12

    def test_s_inequality_random_battery(self):
        h = silver(2)
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            inst = random_instance(rng, d)
            tr = run(h, inst, random_x0(rng, d))
            scale = max(1.0, float(tr.x[0] @ tr.x[0]), float(tr.f[0]))
            assert _s_slack_raw(h.steps, h.rate, tr.x, tr.g, tr.f) >= -1e-8 * scale

    def test_implied_bounds_tight_cases(self):
        h = silver(3)
        eta = h.rate
        tr = run(h, huber_instance(eta / (2.0 - eta)), 1.0)
        f_slack, _ = check_s_implies_fg(h, tr)
        f_resid, _ = fg_residuals(h, tr)
        assert abs(f_slack) < 1e-12 and abs(f_resid) < 1e-9

        tr = run(h, huber_instance(eta), 1.0)
        _, g_slack = check_s_implies_fg(h, tr)
        _, g_resid = fg_residuals(h, tr)
        assert abs(g_slack) < 1e-12 and abs(g_resid) < 1e-9
        # on that instance the usable budget is the full initial gap
        r = 1.0 / (2.0 / eta - 1.0)
        assert 0.5 * float(tr.g[-1] @ tr.g[-1]) == pytest.approx(r * tr.f[0], rel=1e-12)

    def test_implied_bounds_random(self):
        h = obs_s(7)
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            inst = random_instance(rng, d)
            tr = run(h, inst, random_x0(rng, d))
            scale = max(1.0, float(tr.x[0] @ tr.x[0]), float(tr.f[0]))
            f_slack, g_slack = check_s_implies_fg(h, tr)
            assert f_slack >= -1e-8 * scale
            assert g_slack >= -1e-8 * scale

    def test_class_guards(self):
        h = obs_f(2)
        tr = run(h, quad_instance(1.0), 1.0)
        with pytest.raises(ClassMismatchError):
            check_s_implies_fg(h, tr)


def _pair_matrix(X, G, F):
    """Q_ij = 2f_i - 2f_j - 2<g_j, x_i - x_j> - ||g_i - g_j||^2 over the points
    of an ``(n+1, d)`` trace and the minimizer (last), as an array."""
    X, G, F = (np.concatenate([a, np.zeros((1,) + a.shape[1:])]) for a in (X, G, F))
    dx, dg = X[:, None] - X[None, :], G[:, None] - G[None, :]
    return 2.0 * (F[:, None] - F[None, :]) - 2.0 * np.sum(G[None, :] * dx, axis=-1) - np.sum(dg * dg, axis=-1)


class TestSeparablePremise:
    """The verifier's battery is 1-D because every battery function is
    separable: on a d-dimensional instance each raw slack kernel, and each
    Q_ij, is the sum of its values on the instance's coordinates run alone,
    within 1e-12 of max(1, ||x0||^2, f_0), the scale the battery divides by."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_slacks_and_pairs_sum_over_coordinates(self, d):
        rng = np.random.default_rng(1000 + d)
        f, g, s = obs_f(30), obs_g(30), obs_s(31)
        v = build_f_certificate(f.tree).weights
        kernels = {
            f: lambda X, G, F: [_f_cert_slack_raw(v, X, G, F)],
            g: lambda X, G, F: [_g_slack_raw(g.rate, X, G, F)],
            s: lambda X, G, F: [
                _s_slack_raw(s.steps, s.rate, X, G, F),
                *_s_fg_slacks_raw(s.steps, s.rate, X, G, F)[:2],  # the f and g slacks
            ],
        }
        for _ in range(5):
            inst, x0 = random_instance(rng, d), random_x0(rng, d)
            for h, kernel in kernels.items():
                whole = gd.raw_run(h.steps, inst.is_huber, inst.param, x0)
                coords = [slice(k, k + 1) for k in range(d)]
                parts = [gd.raw_run(h.steps, inst.is_huber[c], inst.param[c], x0[c]) for c in coords]
                scale = max(1.0, float(x0 @ x0), float(whole[2][0]))
                sums = np.sum([kernel(*part) for part in parts], axis=0)
                assert len(sums) == (3 if h is s else 1)
                for got, want in zip(kernel(*whole), sums, strict=True):
                    assert abs(got - want) <= 1e-12 * scale, (h.describe(), got, want)
                Q = _pair_matrix(*whole)
                Q_sum = np.sum([_pair_matrix(*part) for part in parts], axis=0)
                assert np.abs(Q - Q_sum).max() <= 1e-12 * scale, h.describe()
                for part, c in zip(parts, coords):
                    got = _q_min_batched(part[0][:, None], gd.coord_form(inst.is_huber[c], inst.param[c]))
                    assert got == pytest.approx(_pair_matrix(*part).min(), abs=1e-12 * scale)


def _slack_cases(seed, points, shape):
    """Points, gradients and values drawn independently, shaped
    ``(points,) + shape`` (the last entry of ``shape`` is d), with S steps,
    F weights and a rate to weigh them."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    X = scale * rng.standard_normal((points,) + shape)
    G = rng.standard_normal((points,) + shape)
    F = scale * rng.standard_normal((points,) + shape[:-1])
    return X, G, F, rng.uniform(0.1, 3.0, points - 1), rng.uniform(0.0, 2.0, points), rng.uniform(0.05, 1.0)


class TestBlockedPointTerms:
    """Both certificate slacks take their per-point terms by blocks of points
    of at most ``gd._VALUE_BLOCK`` coordinates; they must give the bytes of
    the one-shot expressions in ``oracles``."""

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    @pytest.mark.parametrize("batch", [None, 64], ids=["one-trace", "batch64"])
    def test_slacks_are_byte_equal_to_one_shot(self, batch, d):
        shape = (d,) if batch is None else (batch, d)
        rows = gd._VALUE_BLOCK // math.prod(shape)  # points per block
        # S weighs points 0..n-1 and F points 0..n, so both meet each edge
        for points in (1, 2, rows - 1, rows, rows + 1, rows + 2, 3 * rows + 5):
            X, G, F, steps, v, eta = _slack_cases(points * d, points, shape)
            got, want = _s_slack_raw(steps, eta, X, G, F), s_slack_reference(steps, eta, X, G, F)
            assert got.tobytes() == want.tobytes(), ("s", points)
            got, want = _f_cert_slack_raw(v, X, G, F), f_cert_slack_reference(v, X, G, F)
            assert got.tobytes() == want.tobytes(), ("f", points)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_a_nan_reaches_its_slack(self, d):
        """A NaN coordinate in the second block of points makes its
        instance's slacks NaN and no other's."""
        rows = gd._VALUE_BLOCK // (64 * d)
        X, G, F, steps, v, eta = _slack_cases(d, 3 * rows + 5, (64, d))
        X[rows + 3, 5, d - 1] = np.nan
        with np.errstate(invalid="ignore"):
            for got, want in (
                (_s_slack_raw(steps, eta, X, G, F), s_slack_reference(steps, eta, X, G, F)),
                (_f_cert_slack_raw(v, X, G, F), f_cert_slack_reference(v, X, G, F)),
            ):
                assert np.isnan(got).tolist() == [i == 5 for i in range(64)]
                assert got.tobytes() == want.tobytes()


def _f_and_long_traces():
    """A trace of obs_f(3), and one of silver(3) for checking silver(2)."""
    return run(obs_f(3), quad_instance(1.0), 1.0), run(silver(3), quad_instance(1.0), 1.0)


class TestTraceGuards:
    """The per-trace checks that take a schedule refuse one of the wrong
    class or a trace of another length."""

    def test_check_s_implies_fg(self):
        f_trace, long_trace = _f_and_long_traces()
        with pytest.raises(ClassMismatchError):
            check_s_implies_fg(obs_f(3), f_trace)
        with pytest.raises(ScheduleError, match="schedule has 3 steps, trace has 7"):
            check_s_implies_fg(silver(2), long_trace)

    def test_fg_residuals(self):
        f_trace, long_trace = _f_and_long_traces()
        with pytest.raises(ClassMismatchError):
            fg_residuals(obs_f(3), f_trace)
        with pytest.raises(ScheduleError, match="schedule has 3 steps, trace has 7"):
            fg_residuals(silver(2), long_trace)

    def test_defining_slack(self):
        f_trace, long_trace = _f_and_long_traces()
        assert isinstance(defining_slack(obs_f(3), f_trace), float)
        with pytest.raises(ScheduleError, match="schedule has 3 steps, trace has 7"):
            defining_slack(silver(2), long_trace)


class TestVerifySchedule:
    def test_pass_for_certified_families(self):
        cfg = RunConfig(battery=60)
        for h in (obs_f(10), obs_g(6), obs_s(9), silver(4), dynamic_short(12)):
            report = verify_schedule(h, cfg)
            assert report.passed, report.summary()
            assert report.certified

    @pytest.mark.parametrize(
        "comp_class,first",
        [(CompClass.F, 1.8), (CompClass.F, 1.414), (CompClass.G, 2.0), (CompClass.S, 2.0)],
        ids=["f-1.8", "f-1.414", "g-2", "s-2"],
    )
    def test_treeless_schedule_passes_but_is_not_certified(self, comp_class, first):
        """Two-step tree-less schedules whose second step solves both closed
        forms pass every check, though their true worst cases exceed their
        rates (F [1.8, 1.45607]: 1.23x; G [2, 1.35991]: 1.39x): without a
        proven tree a passing report is not certified, and says why."""
        c = 1.0 if comp_class is CompClass.S else 2.0  # the closed forms' factor
        power = 1 if comp_class is CompClass.S else 2
        gap = lambda h: 1.0 / (1.0 + c * (first + h)) - ((first - 1.0) * (h - 1.0)) ** power
        second = bisect_root(gap, 1.0 + 1e-12, 2.0 - 1e-12, tol=1e-15)
        h = StepSchedule([first, second], comp_class, 1.0 / (1.0 + c * (first + second)))
        assert validate_schedule(h, 1e-12) <= 1e-12
        report = verify_schedule(h, RunConfig(battery=40))
        assert report.passed and not report.certified, report.summary()
        assert "identity" in {c.name for c in report.checks} and "reversal-duality" not in {c.name for c in report.checks}
        assert report.summary().splitlines()[1] == "result: PASS (not certified: no construction tree proves the rate)"
        assert "proven_tree" not in report.to_dict()

    def test_conjectured_report(self):
        report = verify_schedule(constant_optimal(CompClass.S, 5), RunConfig(battery=40))
        assert report.conjectured
        assert report.passed
        assert not report.certified
        assert not any("certificate" in c.name for c in report.checks)

    def test_report_serializes(self):
        report = verify_schedule(obs_f(3), RunConfig(battery=20))
        doc = json.loads(report.to_json())
        assert doc["certified"] is True
        assert {c["name"] for c in doc["checks"]} >= {"identity", "interpolation"}

    def test_nan_slacks_fail_their_checks(self):
        # steps of 1000 diverge: every battery trace overflows to NaN
        bad = StepSchedule(np.full(200, 1e3), CompClass.G, 0.5)
        report = verify_schedule(bad, RunConfig(battery=20))
        for name in ("interpolation", "battery/gradient-inequality"):
            check = next(c for c in report.checks if c.name == name)
            assert not check.passed and np.isnan(check.slack), check
            assert "battery instance #" in check.instance

    def test_rate_outside_unit_interval_is_reported(self):
        """No tight instance has a kink for rate 1.5: the tightness entry
        fails with the reason, and the battery still runs."""
        report = verify_schedule(StepSchedule([1.5], CompClass.S, 1.5), RunConfig(battery=8))
        checks = {c.name: c for c in report.checks}
        assert not report.passed
        assert not checks["identity"].passed
        tight = checks["tightness"]
        assert not tight.passed and np.isnan(tight.slack)
        assert tight.instance == "rate must lie in (0, 1], got 1.5"
        assert not any(name.startswith("tightness/") for name in checks)
        assert {"battery/mixed-inequality", "battery/implied-gap", "interpolation"} <= set(checks)

    @pytest.mark.parametrize("rate", [1e-300, 1e-160, 5e-324])
    @pytest.mark.parametrize("comp_class", list(CompClass), ids=lambda c: c.value)
    def test_rate_that_underflows_is_reported(self, comp_class, rate):
        """A rate whose square underflows, or makes the s certificate's
        weight (1 - eta)/eta^2 of ||g_n||^2 infinite, fails the class's
        battery entry it cannot weigh (s: the mixed inequality, with NaN
        slack and the reason) and the identity entry; the battery runs the
        rest."""
        report = verify_schedule(StepSchedule([1.5], comp_class, rate), RunConfig(battery=8))
        checks = {c.name: c for c in report.checks}
        assert not report.passed and not report.certified
        assert not checks["identity"].passed
        assert "interpolation" in checks and any(name.startswith("tightness/") for name in checks)
        if comp_class is CompClass.S:
            mixed = checks["battery/mixed-inequality"]
            assert not mixed.passed and math.isnan(mixed.slack)
            assert mixed.instance == f"the s certificate's weight (1 - eta)/eta^2 is not finite at rate {rate!r}"
            assert {"battery/implied-gap", "battery/implied-gradient"} <= set(checks)
        else:
            battery = "battery/gap-inequality" if comp_class is CompClass.F else "battery/gradient-inequality"
            assert not checks[battery].passed

    @pytest.mark.parametrize("rate", [0.0, 2.0])
    def test_rate_where_the_implied_bounds_divide_by_zero_is_reported(self, rate):
        """At rate 0 or 2 the factor 1/(2/eta - 1) of the s-implied gap and
        gradient bounds divides by zero: both battery/implied-* entries fail
        with NaN slack and the reason, the tightness entry fails (no kink
        outside (0, 1]), and the battery runs the rest.  The per-trace
        functions raise the same ``ScheduleError``."""
        h = StepSchedule([1.5], CompClass.S, rate)
        report = verify_schedule(h, RunConfig(battery=8))
        checks = {c.name: c for c in report.checks}
        assert not report.passed
        reason = f"the s-implied bounds' factor 1/(2/eta - 1) is not defined at rate {rate!r}"
        for name in ("battery/implied-gap", "battery/implied-gradient"):
            assert not checks[name].passed and math.isnan(checks[name].slack)
            assert checks[name].instance == reason
        tight = checks["tightness"]
        assert not tight.passed and math.isnan(tight.slack)
        assert not any(name.startswith("tightness/") for name in checks)
        assert {"battery/mixed-inequality", "interpolation"} <= set(checks)
        trace = run(h, quad_instance(1.0), 1.0)
        for check in (check_s_implies_fg, fg_residuals):
            with pytest.raises(ScheduleError, match=re.escape(reason)):
                check(h, trace)

    @pytest.mark.parametrize(
        "steps,comp_class,rate",
        [(steps, c, 0.5) for steps in ([math.inf], [1e308], [1.5, 1e200]) for c in CompClass]
        + [([1.5], CompClass.S, math.inf)],
        ids=lambda v: v.value if isinstance(v, CompClass) else repr(v),
    )
    def test_overflowing_schedule_fails_without_a_warning(self, steps, comp_class, rate):
        """Steps whose runs overflow, and an infinite s rate, fail the report
        while no numpy warning leaves the verifier."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_schedule(StepSchedule(steps, comp_class, rate), RunConfig(battery=8))
        assert not report.passed

    def test_tree_without_class_f_is_reported(self):
        """obs_f(3)'s steps carrying obs_g(3)'s g-tree, whose closed forms
        hold, fail the identity entry with the class the tree admits.  An
        unproven tree gets no f certificate and no reversal check: the
        battery runs the direct gap inequality instead."""
        f3 = obs_f(3)
        report = verify_schedule(StepSchedule(f3.steps, CompClass.F, f3.rate, obs_g(3).tree), RunConfig(battery=8))
        checks = {c.name: c for c in report.checks}
        assert not report.passed and not report.certified
        identity = checks["identity"]
        assert not identity.passed and np.isnan(identity.slack)
        assert identity.instance == "tree does not admit class f (admits {g})"
        assert "battery/certificate" not in checks and "reversal-duality" not in checks
        assert checks["battery/gap-inequality"].passed and "interpolation" in checks
        assert any(name.startswith("tightness/") for name in checks)

    @pytest.mark.parametrize(
        "make,factor,tol",
        [(lambda: silver(2), 1.0, 1e-9), (lambda: right_heavy(3), 1.5, 1e-9), (lambda: right_heavy(3), 1.0, 1e-15)],
        ids=["silver2-labeled-f", "rheavy3-rate-x1.5", "rheavy3-tol-1e-15"],
    )
    def test_reversal_that_breaks_identities_is_reported(self, make, factor, tol):
        """A schedule labeled f whose reverse breaks its class's identities
        fails, and the failing entry carries NaN slack and the text of an
        IdentityError, which says which identity failed.  silver(2)'s steps
        and s-tree, and right_heavy(3) with its rate x1.5, break the forward
        identities too: the identity entry reports that, and the unproven
        tree gets no reversal check.  right_heavy(3) meets a 1e-15 identity
        tolerance and its reverse misses it by about 1.06e-15: the proven
        tree's reversal-duality entry reports the reverse's error."""
        base, config = make(), RunConfig(battery=8, identity_tol=tol)
        h = StepSchedule(base.steps, CompClass.F, base.rate * factor, base.tree)
        with pytest.raises(IdentityError) as reverse_err:
            validate_schedule(reverse(h), config.identity_tol)
        try:
            validate_schedule(h, config.identity_tol)
            forward_err = None
        except IdentityError as err:
            forward_err = err
        report = verify_schedule(h, config)
        checks = {c.name: c for c in report.checks}
        assert not report.passed and not report.certified
        if forward_err is None:
            assert checks["identity"].passed and checks["battery/certificate"].passed
            check, err = checks["reversal-duality"], reverse_err.value
        else:
            assert "reversal-duality" not in checks and "battery/certificate" not in checks
            check, err = checks["identity"], forward_err
        assert not check.passed and np.isnan(check.slack)
        assert check.instance == str(err)
        assert "identity violated" in check.instance
        assert "interpolation" in checks

    def test_json_report_writes_a_nan_slack_as_null(self):
        """``to_json`` is strict JSON: a NaN slack is ``null`` there, while the
        check, ``to_dict()`` and ``summary()`` keep the NaN.  right_heavy(3)'s
        reverse misses a 1e-15 identity tolerance by about 1.06e-15."""
        report = verify_schedule(right_heavy(3), RunConfig(battery=8, identity_tol=1e-15))
        i = next(i for i, c in enumerate(report.checks) if c.name == "reversal-duality")
        assert np.isnan(report.checks[i].slack) and np.isnan(report.to_dict()["checks"][i]["slack"])
        assert "slack=nan" in report.summary()
        assert json.loads(report.to_json())["checks"][i]["slack"] is None
        assert "NaN" not in report.to_json()

    def test_checks_sorted_by_name(self):
        report = verify_schedule(obs_s(4), RunConfig(battery=20))
        names = [c.name for c in report.checks]
        assert names == sorted(names)

    def test_failed_check_carries_witness(self):
        bad = StepSchedule(np.array([1.9, 1.9, 1.9]), CompClass.F, 1.0 / (1.0 + 2.0 * 5.7))
        report = verify_schedule(bad, RunConfig(battery=20))
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert failing
        assert all(c.instance for c in failing)

    def test_battery_witness_is_replayable(self):
        from stepweaver import verify

        # the bogus gradient schedule from the falsifiability family
        b = 1.07
        for _ in range(60):
            b = 1.0 + 1.0 / (4.0 * math.sqrt(11.0 + 2.0 * b))
        bogus = StepSchedule(np.array([5.0, b]), CompClass.G, 1.0 / (1.0 + 2.0 * (5.0 + b)))
        cfg = RunConfig(battery=40)
        verify._battery.cache_clear()
        for _ in range(2):  # a freshly built battery, then the cached one
            report = verify_schedule(bogus, cfg)
            check = next(c for c in report.checks if c.name == "battery/gradient-inequality")
            assert not check.passed
            index = int(re.search(r"instance #(\d+)", check.instance).group(1))
            inst, x0 = verify.battery_instances(cfg)[index][1:]
            tr = run(bogus, inst, x0)
            scale = max(1.0, float(x0 @ x0), float(tr.f[0]))
            assert _g_slack_raw(bogus.rate, tr.x, tr.g, tr.f) / scale == pytest.approx(check.slack, rel=1e-12)

    @pytest.mark.parametrize(
        "steps_of,tree_of,message",
        [
            (lambda: obs_s(7), lambda: obs_f(7), r"tree does not admit class s \(admits \{f\}\)"),
            (lambda: silver(3), lambda: silver(2), "tree has length 3, schedule has 7 steps"),
            (lambda: obs_g(6), lambda: obs_g(5), "tree has length 5, schedule has 6 steps"),
            (lambda: obs_f(6), lambda: obs_f(5), "tree has length 5, schedule has 6 steps"),
            (lambda: obs_f(5), lambda: obs_f(6), "tree has length 6, schedule has 5 steps"),
            (lambda: obs_f(3), lambda: dsl.compile_expression("(e |> (e |> (e |> e)))")[0], "tree steps differ"),
        ],
        ids=[
            "obss7-obsf7-tree",
            "silver3-silver2-tree",
            "obsg6-obsg5-tree",
            "obsf6-obsf5-tree",
            "obsf5-obsf6-tree",
            "obsf3-chain-tree",
        ],
    )
    def test_wrong_tree_fails_identity(self, steps_of, tree_of, message):
        """A schedule carrying a tree that does not build its steps, though
        its closed forms hold, fails the identity entry with NaN slack and a
        message naming what differs (class, length or steps), and is neither
        passed nor certified.  The unproven tree feeds neither the
        certificate nor the reversal check, so an f-schedule's battery checks
        the gap inequality instead."""
        h, tree = steps_of(), tree_of().tree
        bad = StepSchedule(h.steps, h.comp_class, h.rate, tree)
        validate_schedule(bad)
        report = verify_schedule(bad, RunConfig(battery=8))
        checks = {c.name: c for c in report.checks}
        identity = checks["identity"]
        assert not identity.passed and math.isnan(identity.slack)
        assert re.search(message, identity.instance), identity.instance
        assert not report.passed and not report.certified
        assert "reversal-duality" not in checks and "battery/certificate" not in checks
        if h.comp_class is CompClass.F:
            assert checks["battery/gap-inequality"].passed

    def test_macro_leaf_tree_is_not_certified(self):
        """A one-step schedule carrying ``(silver(2) >< e)`` (whose expansion
        has 4 steps) fails the identity entry, whose fold stops at the macro
        and names it; the unproven tree gets no reversal check."""
        bad = StepSchedule([math.sqrt(2.0)], CompClass.S, math.sqrt(2.0) - 1.0, dsl.parse("(silver(2) >< e)"))
        validate_schedule(bad)
        report = verify_schedule(bad, RunConfig(battery=8))
        checks = {c.name: c for c in report.checks}
        assert not checks["identity"].passed and math.isnan(checks["identity"].slack)
        assert checks["identity"].instance == "leaf silver(2) is not e: it needs its leaf schedule"
        assert "reversal-duality" not in checks
        assert not report.passed and not report.certified

    @pytest.mark.parametrize("make", [lambda: silver(3), lambda: obs_f(6), lambda: obs_g(6)], ids=["s", "f", "g"])
    def test_cached_battery_builds_no_instance(self, monkeypatch, make):
        """Beside the battery, which is cached, a verification runs on raw
        arrays: the tight instances and the reversed schedule's runs build no
        ProblemInstance."""
        schedule, cfg = make(), RunConfig(battery=40)
        verify_schedule(schedule, cfg)  # builds and caches the battery
        built = []
        post_init = ProblemInstance.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ProblemInstance, "__post_init__", counted)
        quad_instance()
        assert len(built) == 1  # the counter sees a construction
        report = verify_schedule(schedule, cfg)
        assert report.certified, report.summary()
        assert len(built) == 1


class TestTraceCap:
    """``MAX_TRACE_VALUES`` bounds the (n+1) x (battery coordinates + tight
    rows) values of a verification's one GD loop."""

    @pytest.mark.parametrize("n, battery", [(32767, 200), (255, 2000)])
    def test_admits_the_stated_sizes(self, n, battery):
        _check_trace_size(n, battery, 6)  # 4 tight rows of class s, 2 of its reversal

    def test_counts_one_coordinate_per_instance(self):
        # battery 7 is 7 coordinates, and 2 tight rows make 9: n + 1 is the
        # most points that 9 coordinates may take
        n = MAX_TRACE_VALUES // 9 - 1
        _check_trace_size(n, 7, 2)
        _check_trace_size(n, 9, 0)
        with pytest.raises(ResourceCapError, match=f"of {n + 1} points x 10 coordinates"):
            _check_trace_size(n, 7, 3)
        with pytest.raises(ResourceCapError, match=f"of {n + 1} points x 10 coordinates"):
            _check_trace_size(n, 10, 0)
        with pytest.raises(ResourceCapError, match=f"of {n + 2} points x 9 coordinates"):
            _check_trace_size(n + 1, 7, 2)

    def test_refused_before_any_instance_is_drawn(self, monkeypatch):
        from stepweaver import verify

        def refuse(*args):
            raise AssertionError("battery drawn")

        monkeypatch.setattr(verify, "battery_instances", refuse)
        monkeypatch.setattr(verify, "random_instance", refuse)
        with pytest.raises(ResourceCapError, match="exceeds cap 33554432 values"):
            verify_schedule(silver(3), RunConfig(battery=10**9))


class TestFalsifiability:
    """Each verification check must reject a crafted negative case."""

    def test_identity_check_rejects_corrupted_rate(self):
        bad = StepSchedule(np.array([1.9, 1.9, 1.9]), CompClass.F, 1.0 / (1.0 + 2.0 * 5.7))
        report = verify_schedule(bad, RunConfig(battery=20))
        assert any(c.name == "identity" and not c.passed for c in report.checks)

    def test_corrupted_rate_with_tree_fires_identity_and_tightness(self):
        """A tree whose schedule fails its closed forms is not proven, so it
        gets no reversal check."""
        s2 = silver(2)
        bad = StepSchedule(s2.steps, CompClass.S, s2.rate * 1.01, s2.tree)
        report = verify_schedule(bad, RunConfig(battery=20))
        failed = {c.name for c in report.checks if not c.passed}
        assert "identity" in failed
        assert "reversal-duality" not in {c.name for c in report.checks}
        assert any(name.startswith("tightness/") for name in failed)

    def test_typecheck_rejects_mistyped_tree(self):
        from stepweaver.dsl import DslTypeError, parse, typecheck

        with pytest.raises(DslTypeError):
            typecheck(parse("((e |> e) >< e)"))

    def test_corrupted_certificate_detected_on_quadratic(self):
        h = one_step_f()
        cert = build_f_certificate(h.tree)
        corrupted = cert.weights.copy()
        corrupted[0] *= 0.5
        bad = CertificateV.__new__(CertificateV)
        object.__setattr__(bad, "weights", corrupted)
        object.__setattr__(bad, "eta", cert.eta)
        tr = run(h, quad_instance(1.0), 1.0)
        assert _f_cert_slack_raw(bad.weights, tr.x, tr.g, tr.f) < -1e-3

    def test_overclaimed_g_rate_detected(self):
        h = one_step_g()
        claimed = 0.15  # true rate is 1/4
        tr = run(h, huber_instance(2.0 * h.rate / (1.0 + h.rate)), 1.0)
        assert _g_slack_raw(claimed, tr.x, tr.g, tr.f) < -1e-3

    def test_overclaimed_s_rate_detected(self):
        h = silver(2)
        tr = run(h, quad_instance(1.0), 1.0)
        assert _s_slack_raw(h.steps, h.rate * 0.8, tr.x, tr.g, tr.f) < -1e-6

    def test_tightness_detects_wrong_rate(self):
        wrong = StepSchedule(silver(2).steps, CompClass.S, silver(2).rate, silver(2).tree)
        tr = run(wrong, quad_instance(1.0), 1.0)
        doctored = StepSchedule(
            np.concatenate([silver(2).steps[:-1], [silver(2).steps[-1] * 1.01]]),
            CompClass.S,
            silver(2).rate,
            None,
        )
        tr2 = run(doctored, quad_instance(1.0), 1.0)
        assert abs(defining_slack(doctored, tr2)) > 1e-6
        assert abs(defining_slack(wrong, tr)) < 1e-12

    def test_interpolation_detects_nonconvex_trace(self):
        # slope 1 at x = 1 and x = 3, but f(3) = 1.5 lies below the tangent
        # at 1; each point alone agrees with the minimizer (their Q pairs
        # with it are 0 and 2), so the negative pair is the points' own.
        # The neighbour core takes the points sorted, the minimizer first
        x, g, f = np.array([[0.0, 1.0, 3.0]]), np.array([[0.0, 1.0, 1.0]]), np.array([[0.0, 0.5, 1.5]])
        assert _neighbour_min(x, g, f)[0] < -1e-9

    def test_certificate_weight_sum_guard(self):
        with pytest.raises(IdentityError):
            CertificateV(np.array([1.0, 1.0]), 0.25)
        with pytest.raises(IdentityError):
            CertificateV(np.array([5.0, -1.0]), 0.25)

    @pytest.mark.parametrize(
        "weights,eta",
        [
            ([np.nan, 1.0], 0.5),  # NaN < 0 and the NaN sum test are both false
            ([np.inf, 1.0], 0.5),
            ([2.0], float("nan")),
            ([0.5], 2.0),
            ([-1.0], -1.0),
            ([1.0], 0.0),
        ],
    )
    def test_certificate_refuses_non_finite_weight_and_rate_outside_unit_interval(self, weights, eta):
        with pytest.raises(IdentityError):
            CertificateV(np.array(weights), eta)


class TestHDualityBattery:
    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    def test_reverse_passes_gradient_battery(self, n):
        f = obs_f(n)
        g = reverse(f)
        assert g.rate == f.rate
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            inst = random_instance(rng, d)
            tr = run(g, inst, random_x0(rng, d))
            scale = max(1.0, float(tr.x[0] @ tr.x[0]), float(tr.f[0]))
            assert _g_slack_raw(g.rate, tr.x, tr.g, tr.f) >= -1e-8 * scale
