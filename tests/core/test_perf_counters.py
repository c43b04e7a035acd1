"""ProbeCounters: field-complete as_dict and registry publish.

``as_dict`` and ``publish`` are driven by ``dataclasses.fields``, so
these tests fail loudly if any counter -- present or future -- goes
missing from the dict view or from the registry.
"""

from dataclasses import fields

import pytest

from repro.core.perf import (
    PROBE_METRIC_LABELS,
    PROBE_METRIC_NAMES,
    ProbeCounters,
)
from repro.obs.metrics import MetricsRegistry

FIELD_NAMES = tuple(spec.name for spec in fields(ProbeCounters))


def _distinct_counters():
    """A ProbeCounters with a different non-zero value per field."""
    return ProbeCounters(**{
        name: index + 1 for index, name in enumerate(FIELD_NAMES)
    })


def test_as_dict_covers_every_field():
    counters = _distinct_counters()
    payload = counters.as_dict()
    assert set(payload) == set(FIELD_NAMES)
    assert all(payload[name] == getattr(counters, name)
               for name in FIELD_NAMES)


def test_every_field_has_a_registry_metric_name():
    assert set(PROBE_METRIC_NAMES) == set(FIELD_NAMES)
    assert all(name.startswith("repro_") and name.endswith("_total")
               for name in PROBE_METRIC_NAMES.values())


def test_publish_maps_fields_to_canonical_counters():
    registry = MetricsRegistry()
    counters = _distinct_counters()
    counters.publish(registry=registry)
    values = registry.counter_values()
    for field_name, metric_name in PROBE_METRIC_NAMES.items():
        labels = PROBE_METRIC_LABELS.get(field_name)
        if labels:
            # Labeled fields land on their own child of the family.
            family = registry.counter(metric_name, labels=tuple(labels))
            value = family.labels(**labels).value
        else:
            value = values[metric_name]
        assert value == getattr(counters, field_name)


def test_trcd_fallbacks_publish_one_family_by_reason():
    registry = MetricsRegistry()
    ProbeCounters(
        trcd_probes=40, trcd_fallbacks_per_column=1,
        trcd_fallbacks_retention_guard=2,
    ).publish(registry=registry)
    values = registry.counter_values()
    assert values["repro_trcd_probes_total"] == 40
    assert values["repro_trcd_fallbacks_total"] == 3
    text = registry.prometheus_text()
    assert 'repro_trcd_fallbacks_total{reason="per_column"} 1' in text
    assert 'repro_trcd_fallbacks_total{reason="retention_guard"} 2' in text
    assert "fault_injector" not in text


def test_publish_skips_zero_fields():
    registry = MetricsRegistry()
    ProbeCounters(hammer_probes=3).publish(registry=registry)
    assert registry.counter_values() == {
        "repro_probes_hammer_total": 3,
    }


def test_publish_accumulates_across_modules():
    registry = MetricsRegistry()
    ProbeCounters(hammer_probes=3).publish(registry=registry)
    ProbeCounters(hammer_probes=4).publish(registry=registry)
    assert registry.counter_values()["repro_probes_hammer_total"] == 7


@pytest.mark.parametrize("field_name", FIELD_NAMES)
def test_fields_default_to_zero(field_name):
    assert getattr(ProbeCounters(), field_name) == 0
