"""Property tests over randomly shaped join constructions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepweaver.gd import huber_instance, quad_instance, run, tight_delta
from stepweaver.schedule import (
    CompClass,
    JoinOp,
    closed_form_rates,
    empty_schedule,
    join,
    reverse,
)
from stepweaver.verify import _f_cert_slack_raw, build_f_certificate, defining_slack


def build_random(cls, draws, depth=0):
    """Materialize a random construction of the requested class.

    ``draws`` is a hypothesis-driven iterator of booleans deciding whether to
    stop at a leaf; depth caps the recursion.
    """
    if depth >= 6 or next(draws):
        return empty_schedule(cls)
    if cls is CompClass.S:
        return join(
            JoinOp.SJOIN,
            build_random(CompClass.S, draws, depth + 1),
            build_random(CompClass.S, draws, depth + 1),
        )
    if cls is CompClass.F:
        return join(
            JoinOp.FJOIN,
            build_random(CompClass.S, draws, depth + 1),
            build_random(CompClass.F, draws, depth + 1),
        )
    return join(
        JoinOp.GJOIN,
        build_random(CompClass.G, draws, depth + 1),
        build_random(CompClass.S, draws, depth + 1),
    )


def draws_from(bits):
    yield from bits
    while True:
        yield True


@given(st.sampled_from(list(CompClass)), st.lists(st.booleans(), min_size=0, max_size=120))
def test_random_constructions_satisfy_identities_and_tightness(cls, bits):
    h = build_random(cls, draws_from(bits))
    denom, prod = closed_form_rates(h.steps, h.comp_class)
    assert denom == pytest.approx(h.rate, rel=1e-10)
    assert prod == pytest.approx(h.rate, rel=1e-10)

    pair = (huber_instance(tight_delta(h.comp_class, "defining", h.rate)), quad_instance())
    for inst in pair:
        tr = run(h, inst, np.ones(1))
        assert abs(defining_slack(h, tr)) <= 1e-10 * max(1.0, 1.0 / h.rate)

    r = reverse(h)
    assert r.rate == h.rate
    assert np.array_equal(r.steps, h.steps[::-1])


@given(st.lists(st.booleans(), min_size=0, max_size=120))
def test_random_f_constructions_carry_valid_certificates(bits):
    h = build_random(CompClass.F, draws_from(bits))
    cert = build_f_certificate(h.tree)
    assert cert.weights.sum() == pytest.approx(1.0 / h.rate, rel=1e-10)
    pair = (huber_instance(tight_delta(CompClass.F, "defining", h.rate)), quad_instance())
    for inst in pair:
        tr = run(h, inst, np.ones(1))
        # the aggregated certificate is exactly saturated on the tight pair
        assert abs(_f_cert_slack_raw(cert.weights, tr.x, tr.g, tr.f)) <= 1e-9 * max(1.0, 1.0 / h.rate)
