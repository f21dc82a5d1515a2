"""Growth-rate regression and the entropy estimators."""
import math

import numpy as np
import pytest

from translocal import entropy
from translocal.entropy import (DEFAULT_SCHEDULE, Schedule, cell_log_count,
                                growth_rate, lyapunov_exponent,
                                restricted_entropy, toral_translocal,
                                translocal_entropy, yz_entropy_function)
from translocal.maps import get_system, log_derivative_sum, toral_eigen_data
from translocal.spaces import Ball, circle, interval, word

LOG3 = math.log(3.0)


def test_growth_rate_recovers_exact_slope():
    data = [(n, 0.7 * n + 2.0) for n in range(4, 15)]
    est = growth_rate(data, "limsup")
    assert est.value == pytest.approx(0.7, abs=1e-9)
    assert growth_rate(data, "liminf").value == pytest.approx(0.7, abs=1e-9)


def test_growth_rate_limsup_above_liminf_on_oscillation():
    rng = np.random.default_rng(3)
    data = [(n, 0.5 * n + 0.3 * rng.standard_normal()) for n in range(4, 20)]
    up = growth_rate(data, "limsup").value
    lo = growth_rate(data, "liminf").value
    assert up >= lo


def test_growth_rate_clamps_negative_slopes():
    data = [(n, -0.2 * n) for n in range(4, 12)]
    assert growth_rate(data, "limsup", clamp=True).value == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule((5, 4, 3), (0.05,), 1000)
    with pytest.raises(ValueError):
        Schedule((4, 5, 6), (0.01, 0.05), 1000)


def test_restricted_entropy_tripling_whole_circle():
    sys = get_system("tripling")
    est = restricted_entropy(sys, Ball(circle(0.0), 0.5))
    assert est.value == pytest.approx(LOG3, rel=0.02)


def test_translocal_tripling_linear_in_omega():
    sys = get_system("tripling")
    for omega in (0.3, 0.6):
        up, lo = translocal_entropy(sys, circle(0.37), omega)
        expect = LOG3 - omega
        assert up.value == pytest.approx(expect, rel=0.05)
        assert lo.value == pytest.approx(expect, rel=0.05)


def test_translocal_sandwich_and_omega_monotonicity():
    sys = get_system("g3branch")
    values = []
    for omega in (0.2, 0.5, 0.8):
        up, lo = translocal_entropy(sys, circle(2.0 / 3.0), omega)
        assert lo.value <= up.value + 1e-9
        values.append(up.value)
    assert values[0] >= values[1] - 0.02
    assert values[1] >= values[2] - 0.02


def test_yz_function_bounded_by_topological_entropy():
    sys = get_system("tripling")
    est = yz_entropy_function(sys, circle(0.2))
    assert est.value <= LOG3 * 1.05
    assert est.value == pytest.approx(LOG3, rel=0.05)


def test_lyapunov_tripling_constant():
    sys = get_system("tripling")
    up, lo = lyapunov_exponent(sys, circle(0.123), 60)
    assert up == pytest.approx(LOG3, abs=1e-9)
    assert lo == pytest.approx(LOG3, abs=1e-9)


def test_lyapunov_is_the_tail_of_running_averages():
    sys = get_system("g3branch")
    x = circle(0.3141)
    averages = [log_derivative_sum(sys, x, k) / k for k in range(1, 31)]
    tail = averages[14:]
    assert lyapunov_exponent(sys, x, 30) == (max(tail), min(tail))


def test_toral_translocal_closed_form():
    eigs = toral_eigen_data(get_system("cat"))
    top = math.log(eigs[0][0])
    assert toral_translocal(eigs, 0.0) == pytest.approx(top)
    assert toral_translocal(eigs, 0.3) == pytest.approx(top - 0.3)
    assert toral_translocal(eigs, 2.0) == 0.0


def test_translocal_rejects_negative_omega():
    sys = get_system("tripling")
    with pytest.raises(ValueError):
        translocal_entropy(sys, circle(0.1), -0.2)


def test_symbolic_cell_over_budget_is_capped():
    sys = get_system("fullshift:2")
    ball = Ball(word([0] * 24), 1.0)
    logc, capped = cell_log_count(sys, ball, 10, 0.01, budget=64)
    assert capped
    assert 0.0 < logc <= math.log(128)
    sched = Schedule((6, 7, 8, 9), (0.05,), budget=64)
    est = restricted_entropy(sys, ball, sched)
    assert est.warning is not None


def test_symbolic_cell_propagates_other_errors(monkeypatch):
    real, calls = entropy.symbolic_grid, []

    def fails_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("grid failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(entropy, "symbolic_grid", fails_once)
    with pytest.raises(RuntimeError, match="grid failure"):
        cell_log_count(get_system("fullshift:2"), Ball(word([0] * 8), 1.0),
                       4, 0.05, budget=1000)
