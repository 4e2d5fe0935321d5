"""The fleet is the one store of instance state: ``Fleet`` holds one
list per per-instance field and each ``Instance`` is a write-through
view of its entry, on fresh, copied and checkpointed fleets alike."""

import copy
import pickle

import pytest

from repro.control import ControlScenario
from repro.control.simulator import _control_inputs, prepare_controlled
from repro.power.dvfs import DVFSModel
from repro.serve import Fleet
from repro.serve.fleet import _FIELDS

_COLUMNS = ("queue", *_FIELDS)


def _columns(fleet):
    return {name: getattr(fleet, name) for name in _COLUMNS}


@pytest.mark.parametrize("name", _COLUMNS)
def test_view_and_column_write_through(name):
    fleet = Fleet(3)
    column = getattr(fleet, name)
    marker = object()
    setattr(fleet[1], name, marker)
    assert column[1] is marker
    assert column[0] is not marker and column[2] is not marker
    other = object()
    column[2] = other
    assert getattr(fleet[2], name) is other
    assert getattr(fleet, name) is column


def test_fresh_fleet_holds_the_defaults():
    fleet = Fleet(2)
    for name, value in _FIELDS.items():
        assert getattr(fleet, name) == [value, value]
    assert fleet.queue[0] is not fleet.queue[1]
    assert [instance.index for instance in fleet] == [0, 1]
    assert all(instance.fleet is fleet for instance in fleet)


@pytest.mark.parametrize(
    "clone",
    [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copied_views_bind_the_copy(clone):
    fleet = Fleet(3)
    fleet[1].busy_until = 2.5
    fleet[2].queue.append(7)
    twin = clone(fleet)
    assert twin.busy_until == [0.0, 2.5, 0.0]
    assert list(twin[2].queue) == [7]
    for j, instance in enumerate(twin):
        assert instance.fleet is twin and instance.index == j
        assert twin[j] is instance
    twin[0].served = 4
    twin[2].queue.append(8)
    assert twin.served[0] == 4 and fleet.served[0] == 0
    assert list(fleet[2].queue) == [7]


def test_fold_never_rebinds_a_column():
    """A governed run sliced at three horizons, with a pickle round
    trip between slices: each slice (fold, governor ticks, shedding
    hooks) mutates every list in place, so the fold's bound locals are
    the fleet's lists throughout."""
    scenario = ControlScenario(
        requests=2_000, qps=9_000.0, instances=3, mix="mixed",
        policy="deadline-aware", shedding="priority",
        autoscale="utilization", tick_ms=1.0, seed=5,
    )
    dvfs_model = DVFSModel()
    fleet, mix, capacity, qps, requests, _ = _control_inputs(
        scenario, dvfs_model
    )
    execution = prepare_controlled(
        scenario, fleet, mix, capacity, qps, requests,
        dvfs_model=dvfs_model,
    )
    last = float(requests.arrival[-1])
    for cut in (0.3, 0.6, float("inf")):
        fleet = execution.engine.fleet
        ids = {name: id(column) for name, column in _columns(fleet).items()}
        execution.engine.run_until(cut * last)
        assert execution.engine.last_run.dispatch == "fold"
        assert execution.engine.fleet is fleet is execution.fleet
        assert {
            name: id(column) for name, column in _columns(fleet).items()
        } == ids
        assert all(instance.fleet is fleet for instance in fleet)
        execution = pickle.loads(pickle.dumps(execution))
    assert execution.engine.finished
    assert execution.engine.last_run.tick_actions > 0
    assert sum(execution.engine.fleet.served) > 0
