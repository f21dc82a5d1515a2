"""The library's records: plain slotted classes with the repr, equality,
hash and immutability of frozen dataclasses."""
import copy
import pickle

import pytest

from translocal.entropy import DEFAULT_SCHEDULE, RateEstimate, Schedule
from translocal.maps import get_system
from translocal.pressure import Region
from translocal.separated import SeparationQuery
from translocal.spaces import Ball, Point, circle, torus, word


def test_reprs_name_every_field():
    # the strings frozen dataclasses printed for the same records
    assert repr(RateEstimate(0.5, (6, 7), 0.01, 0.0, "limsup")) == (
        "RateEstimate(value=0.5, n_window=(6, 7), eps=0.01, residual=0.0, "
        "kind='limsup', eps_trend=None, warning=None)")
    assert repr(word([0, 1, 1])) == \
        "Point(space='symbolic', coords=(), word=(0, 1, 1))"
    assert repr(Ball(torus(0.1, 0.2), 0.05)) == (
        "Ball(center=Point(space='torus', coords=(0.1, 0.2), word=()), "
        "radius=0.05, closed=True)")
    assert repr(Schedule((6, 7, 8), (0.05, 0.01), 100)) == \
        "Schedule(n_values=(6, 7, 8), epsilons=(0.05, 0.01), budget=100)"
    assert repr(get_system("cat")) == (
        "System(name='toral:2,1;1,1', space='torus', matrix=((2, 1), (1, 1)), "
        "alphabet=None, branches=(), base=None, power=1)")


def test_systems_compare_by_their_defining_fields():
    a, b = get_system("cat"), get_system("cat")
    assert a is not b
    # a derived slot is left out of equality and hash, and the tracer's
    # object.__setattr__ still rebinds it
    object.__setattr__(b, "step_many", lambda coords: coords)
    assert a == b and hash(a) == hash(b)
    assert a != get_system("toral:2,1;1,2")


def test_records_of_other_classes_are_not_compared():
    assert circle(0.5).__eq__(("circle", (0.5,), ())) is NotImplemented
    assert circle(0.5) != Point("interval", (0.5,))
    assert hash(circle(0.5)) == hash(Point("circle", (0.5,)))


@pytest.mark.parametrize("record,name", [
    (circle(0.5), "coords"), (DEFAULT_SCHEDULE, "epsilons"),
    (RateEstimate(0.5, (6, 7), 0.01, 0.0, "limsup"), "value"),
    (get_system("tripling"), "name"), (get_system("tripling"), "step"),
])
def test_fields_cannot_be_assigned_or_deleted(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.undeclared = 1


def test_records_copy_and_pickle_by_their_fields():
    est = RateEstimate(0.5, (6, 7), 0.01, 0.0, "liminf", -0.1, "w")
    ball = Ball(circle(0.3), 0.1, closed=False)
    assert copy.copy(est) == est
    assert pickle.loads(pickle.dumps(ball)) == ball


@pytest.mark.parametrize("build", [
    lambda: Schedule((6, 7, 8), (0.05,), 0),
    lambda: Ball(circle(0.5), 0.0),
    lambda: Ball(circle(0.5), -0.1),
    lambda: Region(),
    lambda: SeparationQuery(get_system("tripling"), [circle(0.5)], 0, 0.1),
    lambda: SeparationQuery(get_system("tripling"), [circle(0.5)], 3, 0.0),
], ids=["schedule-budget", "ball-zero", "ball-negative", "region-empty",
        "query-n", "query-eps"])
def test_constructors_check_their_input(build):
    with pytest.raises(ValueError):
        build()
