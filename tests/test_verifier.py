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
from stepweaver.optimizer import obs_f, obs_g, obs_s
from stepweaver.schedule import (
    LEAF,
    ClassMismatchError,
    CompClass,
    CompositionTree,
    IdentityError,
    JoinOp,
    ScheduleError,
    StepSchedule,
    admissible_classes,
    empty_schedule,
    join,
    join_rate,
    materialize,
    middle_step,
    reverse,
    validate_schedule,
)
from stepweaver.verify import (
    CertificateV,
    _f_cert_slack_raw,
    _g_slack_raw,
    _q_min_batched,
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
                eta = join_rate(JoinOp.FJOIN, a.rate, beta)
                mu = middle_step(JoinOp.FJOIN, a.rate, beta)
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
        if CompClass.F in admissible_classes(tree):
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
        """silver(2)'s steps and s-tree labeled f have no f certificate: the
        certificate entry fails with the reason, and the battery runs the
        direct gap inequality instead."""
        s2 = silver(2)
        report = verify_schedule(StepSchedule(s2.steps, CompClass.F, s2.rate, s2.tree), RunConfig(battery=8))
        checks = {c.name: c for c in report.checks}
        assert not report.passed
        cert = checks["battery/certificate"]
        assert not cert.passed and np.isnan(cert.slack)
        assert cert.instance == "tree is not an f-class construction"
        assert {"battery/gap-inequality", "interpolation", "reversal-duality"} <= set(checks)
        assert any(name.startswith("tightness/") for name in checks)

    @pytest.mark.parametrize(
        "make,factor",
        [(lambda: silver(2), 1.0), (lambda: right_heavy(3), 1.5)],
        ids=["silver2-labeled-f", "rheavy3-rate-x1.5"],
    )
    def test_reversal_that_breaks_identities_is_reported(self, make, factor):
        """A reversed schedule that breaks its class's identities fails the
        reversal-duality entry with NaN slack and the IdentityError's text,
        which says which identity failed: silver(2)'s steps and s-tree
        labeled f, and the f-schedule right_heavy(3) with its rate x1.5."""
        base, config = make(), RunConfig(battery=8)
        h = StepSchedule(base.steps, CompClass.F, base.rate * factor, base.tree)
        with pytest.raises(IdentityError) as err:
            validate_schedule(reverse(h), config.identity_tol)
        report = verify_schedule(h, config)
        check = next(c for c in report.checks if c.name == "reversal-duality")
        assert not check.passed and np.isnan(check.slack)
        assert check.instance == str(err.value)
        assert "identity violated" in check.instance
        assert "interpolation" in {c.name for c in report.checks}

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
        from stepweaver.verify import battery_instance

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
            inst, x0 = battery_instance(cfg, index)
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
        passed nor certified.  A tree of another length feeds neither the
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
        if tree.length() != h.n:
            assert "reversal-duality" not in checks and "battery/certificate" not in checks
            if h.comp_class is CompClass.F:
                assert checks["battery/gap-inequality"].passed

    def test_macro_leaf_tree_is_not_certified(self):
        """A one-step schedule carrying ``(silver(2) >< e)`` (whose expansion
        has 4 steps) fails the identity entry, which names the macro, and the
        reversal check, which cannot mirror it."""
        bad = StepSchedule([math.sqrt(2.0)], CompClass.S, math.sqrt(2.0) - 1.0, dsl.parse("(silver(2) >< e)"))
        validate_schedule(bad)
        report = verify_schedule(bad, RunConfig(battery=8))
        checks = {c.name: c for c in report.checks}
        for name in ("identity", "reversal-duality"):
            assert not checks[name].passed and math.isnan(checks[name].slack)
            assert "leaf silver(2) is not e" in checks[name].instance
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


class TestFalsifiability:
    """Each verification check must reject a crafted negative case."""

    def test_identity_check_rejects_corrupted_rate(self):
        bad = StepSchedule(np.array([1.9, 1.9, 1.9]), CompClass.F, 1.0 / (1.0 + 2.0 * 5.7))
        report = verify_schedule(bad, RunConfig(battery=20))
        assert any(c.name == "identity" and not c.passed for c in report.checks)

    def test_corrupted_rate_with_tree_fires_identity_tightness_and_reversal(self):
        s2 = silver(2)
        bad = StepSchedule(s2.steps, CompClass.S, s2.rate * 1.01, s2.tree)
        report = verify_schedule(bad, RunConfig(battery=20))
        failed = {c.name for c in report.checks if not c.passed}
        assert "identity" in failed
        assert "reversal-duality" in failed
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
        # with it are 0 and 2), so the negative pair is the points' own
        X = np.array([[1.0], [3.0]])
        G = np.array([[1.0], [1.0]])
        F = np.array([0.5, 1.5])
        assert _q_min_batched(X[:, None], G[:, None], F[:, None])[0] < -1e-9

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
