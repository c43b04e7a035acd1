"""Central metrics registry with Prometheus text exposition.

Named counters, gauges and histograms live in one process-global
:data:`REGISTRY`. Metrics are always on -- every mutation site sits at
coarse granularity (end of a probe batch, a work unit, a cache access),
so collection costs nothing measurable -- and exposition is on demand:

* :func:`prometheus_text` / :meth:`MetricsRegistry.prometheus_text`
  render the version-0.0.4 text format behind the runner's and
  service's ``--metrics-out metrics.prom`` flags;
* :meth:`MetricsRegistry.snapshot` / :func:`snapshot_delta` /
  :meth:`MetricsRegistry.merge_snapshot` move metric state across
  process boundaries: pool workers return the *delta* their unit
  produced (:func:`snapshot_delta`) and the coordinator folds it in
  (counters and histograms add; gauges keep the maximum).

Every registered name is one :class:`MetricFamily`: a kind, a tuple of
label names and one child series per label-value combination. A plain
metric is the family with no label names and exactly one child, which
its ``inc``/``set``/``dec``/``observe``/``value``/``count``/``sum``
reach directly. A labeled family (``REGISTRY.histogram(name, labels=
("tenant",))``) records through ``.labels(tenant="acme").observe(x)``,
exposes one sample line per label combination with escaped label
values, snapshots as ``{"labels": [...], "series": {...}}`` (a plain
metric as its bare value, or ``{buckets, counts, sum, count}``), and is
created on merge when a worker delta mentions it first.

``docs/OBSERVABILITY.md`` tables every metric the reproduction emits.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Joiner for label-value tuples inside snapshot ``series`` keys (a
#: control character no real tenant/module name contains).
_SERIES_SEP = "\x1f"

#: Default histogram buckets (seconds): covers sub-millisecond probe
#: batches through multi-minute work units.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_le(upper: float) -> str:
    return str(int(upper)) if float(upper).is_integer() else repr(upper)


def _escape_label(value: str) -> str:
    """Escape a label value per the text-format rules (backslash,
    double quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_block(pairs: List[str], le: Optional[str] = None) -> str:
    """``{a="x",le="1"}`` from rendered label pairs ("" when none)."""
    if le is not None:
        pairs = pairs + [f'le="{le}"']
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Series:
    """One child series of a family. Each kind says how it mutates,
    how it renders, its snapshot payload, how it absorbs an incoming
    payload on merge and how it subtracts a baseline payload."""

    @staticmethod
    def layout(name: str, buckets: Sequence[float]):
        return None  # histograms alone have a bucket layout

    @staticmethod
    def carries(incoming: Any) -> bool:
        return True  # whether merging ``incoming`` creates its series


class _CounterSeries(_Series):
    """Monotonically increasing value."""

    kind, section, ops = "counter", "counters", ("inc",)

    def __init__(self, name: str, buckets: Optional[Tuple[float, ...]]):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def expose(self, pairs: List[str]) -> List[str]:
        return [
            f"{self.name}{_label_block(pairs)} {_format_value(self._value)}"
        ]

    def payload(self) -> float:
        return self._value

    def absorb(self, amount: float) -> None:
        self.inc(amount)

    carries = staticmethod(bool)  # merging a zero creates no series

    @staticmethod
    def subtract(current: float, base: Optional[float]) -> Optional[float]:
        changed = current - (0.0 if base is None else base)
        return changed or None


class _GaugeSeries(_CounterSeries):
    """Last-observed value (can go up and down)."""

    kind, section, ops = "gauge", "gauges", ("set", "inc", "dec")

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def absorb(self, incoming: float) -> None:
        with self._lock:
            self._value = max(self._value, incoming)

    carries = staticmethod(_Series.carries)

    @staticmethod
    def subtract(current: float, base: Optional[float]) -> float:
        return current  # a gauge travels whole; receivers keep the max


class _HistogramSeries(_Series):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind, section, ops = "histogram", "histograms", ("observe",)

    def __init__(self, name: str, buckets: Tuple[float, ...]):
        self.name = name
        self._lock = threading.Lock()
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    @staticmethod
    def layout(name: str, buckets: Sequence[float]) -> Tuple[float, ...]:
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ConfigurationError(
                f"histogram {name} needs at least one bucket"
            )
        return uppers

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = len(self.buckets)
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def expose(self, pairs: List[str]) -> List[str]:
        lines = []
        cumulative = 0
        uppers = [_format_le(upper) for upper in self.buckets] + ["+Inf"]
        for le, bucket_count in zip(uppers, self._counts):
            cumulative += bucket_count
            lines.append(
                f"{self.name}_bucket{_label_block(pairs, le)} {cumulative}"
            )
        block = _label_block(pairs)
        lines.append(f"{self.name}_sum{block} {_format_value(self._sum)}")
        lines.append(f"{self.name}_count{block} {self._count}")
        return lines

    def payload(self) -> Dict[str, Any]:
        return {
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }

    def absorb(self, incoming: Dict[str, Any]) -> None:
        with self._lock:
            for i, count in enumerate(incoming["counts"]):
                self._counts[i] += count
            self._sum += incoming["sum"]
            self._count += incoming["count"]

    @staticmethod
    def subtract(
        current: Dict[str, Any], base: Optional[Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        if base is None:
            base = {"counts": [0] * len(current["counts"]), "sum": 0.0,
                    "count": 0}
        counts = [c - b for c, b in zip(current["counts"], base["counts"])]
        if not any(counts):
            return None
        return {
            "counts": counts,
            "sum": current["sum"] - base["sum"],
            "count": current["count"] - base["count"],
        }


#: Series class per kind, in snapshot section order.
_KINDS = {
    cls.kind: cls
    for cls in (_CounterSeries, _GaugeSeries, _HistogramSeries)
}


class MetricFamily:
    """Every series registered under one metric name.

    A plain metric is the family with no label names: its single child
    exists from the start and its mutators *are* that child's bound
    methods. A labeled family creates one child per label-value
    combination on first use and refuses direct mutation -- call
    :meth:`labels` first.
    """

    def __init__(self, kind: str, name: str, help_text: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self.kind = kind
        self._series_cls = _KINDS[kind]
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ConfigurationError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.labelnames = tuple(labelnames)
        self.buckets = self._series_cls.layout(name, buckets)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        solo = None if self.labelnames else self._child(())
        for op in self._series_cls.ops:
            setattr(self, op, self._refuse if solo is None
                    else getattr(solo, op))

    def labels(self, **labelvalues):
        """The child series for one label-value combination (created on
        first use). Every declared label must be supplied."""
        if set(labelvalues) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labelvalues)}"
            )
        return self._child(
            tuple(str(labelvalues[n]) for n in self.labelnames)
        )

    def _child(self, key: Tuple[str, ...]):
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._series_cls(self.name, self.buckets)
                self._children[key] = child
            return child

    def _items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())

    def _refuse(self, *_args, **_kwargs):
        raise ConfigurationError(
            f"metric {self.name!r} is labeled "
            f"({', '.join(self.labelnames)}); record through .labels()"
        )

    def _solo(self):
        if self.labelnames:
            self._refuse()
        return self._children[()]

    @property
    def value(self) -> float:
        """A plain metric's value; a labeled family's sum across every
        label combination."""
        if self.labelnames:
            return sum(child.value for _, child in self._items())
        return self._children[()].value

    count = property(lambda self: self._solo().count)
    sum = property(lambda self: self._solo().sum)

    def expose(self) -> List[str]:
        """Sample lines of every series, in label-value order."""
        lines: List[str] = []
        for key, child in self._items():
            lines.extend(child.expose([
                f'{n}="{_escape_label(v)}"'
                for n, v in zip(self.labelnames, key)
            ]))
        return lines

    def payload(self) -> Any:
        """This family's snapshot payload."""
        return _encode(
            self.labelnames, self.buckets,
            {key: child.payload() for key, child in self._items()},
        )


def _encode(labelnames: Tuple[str, ...], buckets, series: Dict) -> Any:
    """Wire payload of one family: a plain metric's bare value (or
    ``{buckets, counts, sum, count}``), else ``{labels, [buckets,]
    series}`` keyed by the joined label values."""
    if not labelnames:
        (payload,) = series.values()
        if buckets is None:
            return payload
        return {"buckets": list(buckets), **payload}
    encoded: Dict[str, Any] = {"labels": list(labelnames)}
    if buckets is not None:
        encoded["buckets"] = list(buckets)
    encoded["series"] = {
        _SERIES_SEP.join(key): payload for key, payload in series.items()
    }
    return encoded


def _decode(payload: Any):
    """``(labelnames, buckets, {label key: series payload})`` of one
    family's wire payload (the inverse of :func:`_encode`)."""
    if not isinstance(payload, dict):
        return (), None, {(): payload}
    buckets = payload.get("buckets")
    if "series" not in payload:
        series = {k: v for k, v in payload.items() if k != "buckets"}
        return (), buckets, {(): series}
    return tuple(payload.get("labels", ())), buckets, {
        tuple(key.split(_SERIES_SEP)): value
        for key, value in payload["series"].items()
    }


class MetricsRegistry:
    """Name-keyed collection of counter, gauge and histogram families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, MetricFamily] = {}

    def _get_or_create(
        self, kind: str, name: str, help_text: str,
        labels: Sequence[str] = (), buckets: Sequence[float] = (),
    ) -> MetricFamily:
        labels = tuple(labels)
        with self._lock:
            family = self._metrics.get(name)
            if family is None:
                family = MetricFamily(kind, name, help_text, labels, buckets)
                self._metrics[name] = family
                return family
            if family.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}"
                )
            if family.labelnames != labels:
                if family.labelnames and labels:
                    detail = f"with labels {family.labelnames}, not {labels}"
                else:
                    detail = "with" if family.labelnames else "without"
                    detail += " labels"
                raise ConfigurationError(
                    f"metric {name!r} already registered {detail}"
                )
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        """Get (or lazily register) a counter family."""
        return self._get_or_create("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        """Get (or lazily register) a gauge family."""
        return self._get_or_create("gauge", name, help_text, labels)

    def histogram(
        self, name: str, help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Sequence[str] = (),
    ) -> MetricFamily:
        """Get (or lazily register) a histogram family."""
        return self._get_or_create(
            "histogram", name, help_text, labels, buckets
        )

    def reset(self) -> None:
        """Drop every registered metric (tests use this for isolation)."""
        with self._lock:
            self._metrics.clear()

    def _families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._metrics.values())

    # -- exposition --------------------------------------------------------------

    def counter_values(self) -> Dict[str, float]:
        """Plain name->value view of every counter (labeled families
        report the sum across their label combinations)."""
        return {
            f.name: f.value for f in self._families() if f.kind == "counter"
        }

    def prometheus_text(self) -> str:
        """Version-0.0.4 Prometheus text exposition of every metric."""
        lines: List[str] = []
        for family in sorted(self._families(), key=lambda f: f.name):
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> str:
        """Write :meth:`prometheus_text` to ``path``; returns the path."""
        with open(path, "w") as handle:
            handle.write(self.prometheus_text())
        return path

    # -- cross-process transport -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of every metric (picklable, mergeable), one
        section per kind in registration order."""
        snap: Dict[str, Any] = {cls.section: {} for cls in _KINDS.values()}
        for family in self._families():
            snap[_KINDS[family.kind].section][family.name] = family.payload()
        return snap

    def merge_snapshot(self, snap: Optional[Dict[str, Any]]) -> None:
        """Fold a snapshot (usually a worker's delta) into this registry.

        Counters and histograms accumulate; gauges keep the maximum of
        the current and incoming values (a deterministic cross-worker
        reduction). Metrics the worker recorded but this registry has
        never seen -- labeled or plain, histogram or counter -- are
        created on merge rather than dropped, so the first unit a fresh
        coordinator reaps still lands its worker-side series; a plain
        counter at zero is skipped. A bucket layout mismatch against an
        *existing* histogram is still a hard
        :class:`~repro.errors.ConfigurationError`.
        """
        if not snap:
            return
        for kind, series_cls in _KINDS.items():
            for name, payload in snap.get(series_cls.section, {}).items():
                labelnames, buckets, series = _decode(payload)
                series = {
                    key: incoming for key, incoming in series.items()
                    if series_cls.carries(incoming)
                }
                if not (series or labelnames):
                    continue
                family = self._get_or_create(
                    kind, name, "", labelnames, buckets or ()
                )
                if buckets is not None and tuple(buckets) != family.buckets:
                    raise ConfigurationError(
                        f"histogram {name!r} bucket layout mismatch in merge"
                    )
                for key, incoming in series.items():
                    family._child(key).absorb(incoming)


def snapshot_delta(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> Dict[str, Any]:
    """The mergeable difference ``current - baseline`` of two snapshots.

    Worker processes capture a baseline before executing a unit and
    return the delta, so long-lived pool workers never double-report
    state accumulated by earlier units. Unchanged counter and histogram
    series are left out; gauges travel whole.
    """
    delta: Dict[str, Any] = {cls.section: {} for cls in _KINDS.values()}
    for series_cls in _KINDS.values():
        section = series_cls.section
        base_section = baseline.get(section, {})
        for name, payload in current.get(section, {}).items():
            labelnames, buckets, series = _decode(payload)
            base = base_section.get(name)
            base_series = {} if base is None else _decode(base)[2]
            diffs = {key: series_cls.subtract(value, base_series.get(key))
                     for key, value in series.items()}
            changed = {k: d for k, d in diffs.items() if d is not None}
            if changed or series_cls is _GaugeSeries:
                delta[section][name] = _encode(labelnames, buckets, changed)
    return delta


#: Process-global registry every subsystem records into.
REGISTRY = MetricsRegistry()


def prometheus_text() -> str:
    """Prometheus text exposition of the global registry."""
    return REGISTRY.prometheus_text()
