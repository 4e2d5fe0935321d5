"""SLO classes, class parsing, and admission/shedding policies."""

import pytest
from arena_rows import arena_of

from repro.control import (
    DEFAULT_SLO_CLASSES,
    SHEDDING_POLICIES,
    ControlScenario,
    SLOClass,
    make_shedder,
    parse_slo_classes,
    simulate_controlled,
)
from repro.errors import ConfigError
from repro.serve import build_mix
from repro.serve.fleet import Instance

MIX = build_mix("v1-224")
PROFILE = MIX.profiles[0]


def _row(priority=0, deadline=1.0, arrival=0.0):
    return dict(
        model=PROFILE.name,
        profile=PROFILE,
        arrival=arrival,
        priority=priority,
        deadline=deadline,
        slo="c",
    )


class TestSLOClass:
    def test_defaults_are_valid_and_tiered(self):
        priorities = [c.priority for c in DEFAULT_SLO_CLASSES]
        assert priorities == sorted(priorities)
        deadlines = [c.deadline_ms for c in DEFAULT_SLO_CLASSES]
        assert deadlines == sorted(deadlines)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", deadline_ms=5.0),
            dict(name="x", deadline_ms=0.0),
            dict(name="x", deadline_ms=5.0, target=0.0),
            dict(name="x", deadline_ms=5.0, target=1.5),
            dict(name="x", deadline_ms=5.0, share=0.0),
            dict(name="x", deadline_ms=float("nan")),
            dict(name="x", deadline_ms=5.0, share=float("nan")),
            dict(name="x", deadline_ms=5.0, share=float("inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SLOClass(**kwargs)

    def test_infinite_deadline_means_no_deadline(self):
        assert SLOClass("x", deadline_ms=float("inf")).deadline_s == float(
            "inf"
        )

    def test_parse_full_and_partial_specs(self):
        classes = parse_slo_classes("rt:5:0.99:0:0.4,bulk:80")
        assert classes[0] == SLOClass("rt", 5.0, 0.99, 0, 0.4)
        assert classes[1].name == "bulk"
        assert classes[1].deadline_ms == 80.0
        assert classes[1].target == 0.99

    @pytest.mark.parametrize(
        "text", ["", "a", "a:b", "a:5,a:9", "a:5:x"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_slo_classes(text)


class TestModelBoundSpecs:
    def test_parse_key_value_fields_with_model_binding(self):
        classes = parse_slo_classes(
            "llm:deadline=5ms:model=mobilenet-v1-224:share=0.4,"
            "default:deadline=50:prio=1"
        )
        assert classes[0] == SLOClass(
            "llm", 5.0, share=0.4, model="mobilenet-v1-224"
        )
        assert classes[1] == SLOClass("default", 50.0, priority=1)
        assert classes[1].model is None

    def test_positional_fields_may_precede_key_value(self):
        (cls,) = parse_slo_classes("rt:5:0.95:model=edge-tiny")
        assert cls == SLOClass(
            "rt", 5.0, target=0.95, model="edge-tiny"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "a:deadline=5:deadline=9",  # duplicate field
            "a:model=m",  # no deadline
            "a:unknown=1:deadline=5",  # unknown key
            "a:deadline=5:2",  # positional after key=value
            "a:deadline=xms",  # non-numeric
        ],
    )
    def test_parse_rejects_malformed_key_value(self, text):
        with pytest.raises(ConfigError):
            parse_slo_classes(text)

    def test_unbound_class_key_is_stable(self):
        """The model binding is an extension field: unbound classes
        (every pre-existing spec) keep their canonical form, so warm
        caches keyed before multi-tenancy stay valid."""
        from repro.parallel.cache import canonical

        fields = dict(canonical(SLOClass("x", 5.0))[1])
        assert "model" not in fields
        fields = dict(canonical(SLOClass("x", 5.0, model="m"))[1])
        assert fields["model"] == "m"

    def test_model_binding_validation(self):
        with pytest.raises(ConfigError):
            SLOClass("x", 5.0, model="")


class TestShedders:
    def test_registry_round_trip(self):
        for name in SHEDDING_POLICIES:
            assert make_shedder(name, queue_threshold=4).name == name
        with pytest.raises(ConfigError):
            make_shedder("nope")

    def test_none_always_admits(self):
        instance = Instance(index=0)
        shedder = make_shedder("none")
        admitted, victim = shedder.admit(
            arena_of(_row())[0], instance, 0.0
        )
        assert admitted and victim is None

    def test_deadline_sheds_infeasible(self):
        instance = Instance(index=0)
        shedder = make_shedder("deadline")
        feasible, *backlog = arena_of(
            _row(deadline=10 * PROFILE.per_image_seconds),
            *(_row() for _ in range(20)),
        )
        admitted, _ = shedder.admit(feasible, instance, 0.0)
        assert admitted
        # Backlog pushes the estimate past the deadline.
        for request in backlog:
            instance.enqueue(request)
        admitted, _ = shedder.admit(feasible, instance, 0.0)
        assert not admitted

    def test_queue_depth_bounds_admission(self):
        instance = Instance(index=0)
        shedder = make_shedder("queue-depth", queue_threshold=3)
        *queued, last = arena_of(*(_row() for _ in range(4)))
        for request in queued:
            admitted, _ = shedder.admit(request, instance, 0.0)
            assert admitted
            instance.enqueue(request)
        admitted, _ = shedder.admit(last, instance, 0.0)
        assert not admitted

    def test_priority_preempts_lower_class(self):
        instance = Instance(index=0)
        shedder = make_shedder("priority", queue_threshold=2)
        low_a, low_b, urgent = arena_of(
            _row(priority=2), _row(priority=2), _row(priority=0)
        )
        instance.enqueue(low_a)
        instance.enqueue(low_b)
        admitted, victim = shedder.admit(urgent, instance, 0.0)
        assert admitted
        assert victim is low_b  # newest lowest-priority pays
        assert victim.shed is False  # simulator marks it
        assert len(instance.queue) == 1

    def test_priority_sheds_equal_class_arrival(self):
        instance = Instance(index=0)
        shedder = make_shedder("priority", queue_threshold=1)
        queued, arriving = arena_of(
            _row(priority=1), _row(priority=1)
        )
        instance.enqueue(queued)
        admitted, victim = shedder.admit(arriving, instance, 0.0)
        assert not admitted and victim is None


def _conservation_scenario(shedding, arrival, **kwargs):
    defaults = dict(
        requests=400,
        instances=2,
        qps=6_000.0,  # overloaded: every shedder has work to do
        shedding=shedding,
        arrival=arrival,
        queue_threshold=8,
        seed=11,
    )
    if arrival == "trace":
        defaults["trace"] = tuple(i * 1e-4 for i in range(400))
    defaults.update(kwargs)
    return ControlScenario(**defaults)


class TestConservation:
    """admitted + shed == offered, per class, for every policy/arrival."""

    @pytest.mark.parametrize("shedding", sorted(SHEDDING_POLICIES))
    @pytest.mark.parametrize("arrival", ["poisson", "bursty", "trace"])
    def test_per_class_conservation(self, shedding, arrival):
        report = simulate_controlled(
            _conservation_scenario(shedding, arrival)
        )
        assert report.offered_requests == 400
        assert sum(cs.offered for cs in report.class_stats) == 400
        for cs in report.class_stats:
            assert cs.shed + cs.completed == cs.offered
            assert 0 <= cs.met <= cs.completed
        assert (
            sum(cs.shed for cs in report.class_stats)
            == report.shed_requests
        )
        assert (
            sum(cs.completed for cs in report.class_stats)
            == report.requests
        )
        assert sum(report.served_per_instance) == report.requests

    def test_no_shedding_completes_everything(self):
        report = simulate_controlled(
            _conservation_scenario("none", "poisson")
        )
        assert report.shed_requests == 0
        assert report.requests == report.offered_requests
