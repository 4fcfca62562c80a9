"""The metrics registry: cheap named + labeled instruments.

Three instrument kinds, chosen for what the LVRM stack actually needs:

* :class:`Counter` — monotone event count (drops, relays, passes);
* :class:`Gauge` — point-in-time value with a ``set_max`` high-water
  helper and an optional pull callback (``set_fn``), so hot paths can
  keep a plain attribute and only pay the indirection at scrape time;
* :class:`Histogram` — fixed-bucket distribution (allocation-pass
  durations, queue occupancies) with Prometheus-compatible cumulative
  export.

Instruments are plain slotted objects: an increment is one attribute
add, so components keep them on the hot path without a flag check.
A :class:`Registry` get-or-creates instruments keyed by ``(name,
labels)`` — asking twice returns the same object — which is what makes
label sets the unit of aggregation *and* of isolation: two LVRM
instances in one process use distinct ``lvrm=...`` labels and therefore
distinct counters, so per-instance read-through views stay correct.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.quantiles import bucket_quantile, summary

__all__ = ["Counter", "Gauge", "Histogram", "Registry",
           "DEFAULT_BUCKETS", "default_registry"]

#: Default histogram buckets: log-spaced from 1 µs to 10 s, suiting both
#: per-frame costs (µs) and allocation-pass / reaction times (ms–s).
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ConfigError("counters only go up")
        self.value += n

    def samples(self) -> Iterable[Tuple[str, LabelItems, float]]:
        yield self.name, self.labels, self.value


class Gauge:
    """Point-in-time value; supports high-water tracking and pull mode."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def set(self, v: float) -> None:
        self._value = float(v)

    def inc(self, n: float = 1.0) -> None:
        self._value += n

    def dec(self, n: float = 1.0) -> None:
        self._value -= n

    def set_max(self, v: float) -> None:
        """High-water-mark update: keep the largest value ever seen."""
        if v > self._value:
            self._value = float(v)

    def set_fn(self, fn: Callable[[], float]) -> None:
        """Pull mode: read ``fn()`` at scrape time instead of a stored
        value (hot paths then maintain a bare attribute for free)."""
        self._fn = fn

    def freeze(self, value: Optional[float] = None) -> None:
        """Leave pull mode holding ``value`` (default: one last pull).
        Drops the callback, and whatever it kept alive, for an owner
        that is going away while the registry lives on."""
        self._value = self.value if value is None else float(value)
        self._fn = None

    def samples(self) -> Iterable[Tuple[str, LabelItems, float]]:
        yield self.name, self.labels, self.value


class Histogram:
    """Fixed-bucket distribution (upper bounds, cumulative on export)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelItems = (),
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigError("buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        # One slot per bound plus the +Inf overflow slot.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.buckets, v)] += 1
        self.sum += v
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate quantile ``q`` by fixed-bucket interpolation (see
        :mod:`repro.obs.quantiles`); ``nan`` while empty."""
        return bucket_quantile(self.buckets, self.counts, q)

    def percentiles(self) -> Dict[str, float]:
        """The p50/p95/p99 read path the admin endpoint serves."""
        return summary(self.buckets, self.counts)

    def samples(self) -> Iterable[Tuple[str, LabelItems, float]]:
        for bound, cum in self.cumulative():
            le = "+Inf" if bound == float("inf") else repr(bound)
            yield (self.name + "_bucket", self.labels + (("le", le),), cum)
        yield self.name + "_sum", self.labels, self.sum
        yield self.name + "_count", self.labels, self.count


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Registry:
    """Get-or-create home for instruments, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        #: Deferred writers by key (see :meth:`deferred`), held weakly.
        self._deferred = weakref.WeakValueDictionary()

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, kind: str, name: str, help_: str, labels: Dict[str, str],
             **extra):
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ConfigError(
                f"metric {name!r} already registered as a {known}")
        key = (name, _label_items(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = _KINDS[kind](name, key[1], **extra)
            self._instruments[key] = inst
            self._kinds[name] = kind
            if help_:
                self._help[name] = help_
        return inst

    def counter(self, name: str, help_: str = "", **labels) -> Counter:
        return self._get("counter", name, help_, labels)

    def gauge(self, name: str, help_: str = "", **labels) -> Gauge:
        return self._get("gauge", name, help_, labels)

    def histogram(self, name: str, help_: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get("histogram", name, help_, labels, buckets=buckets)

    # -- deferred writers --------------------------------------------------
    def deferred(self, key, factory: Callable[[], object]) -> object:
        """The one deferred writer for ``key``, made by ``factory()`` on
        first ask (later asks get the same object).

        A deferred writer buffers observations bound for instruments of
        this registry and applies them in its ``fold()``, which must be
        safe to call from any thread.  Every read path here
        (:meth:`instruments`, :meth:`find`, :meth:`snapshot`,
        :meth:`merge`, :meth:`clear`) folds the writers first, so no
        reader sees an instrument lag.  The registry holds writers
        weakly: a writer lives as long as the components using it,
        which fold it before they go.
        """
        writer = self._deferred.get(key)
        if writer is None:
            writer = factory()
            self._deferred[key] = writer
        return writer

    def fold(self) -> None:
        """Apply every deferred writer's buffered observations."""
        for ref in self._deferred.valuerefs():
            writer = ref()
            if writer is not None:
                writer.fold()

    # -- scrape side -------------------------------------------------------
    def instruments(self) -> List[object]:
        """All instruments, grouped by family name (stable order)."""
        self.fold()
        return [self._instruments[k] for k in sorted(self._instruments)]

    def find(self, name: str, **labels) -> List[object]:
        """Instruments of family ``name`` whose labels include ``labels``
        (a subset match: extra labels on the instrument are fine)."""
        self.fold()
        want = set(_label_items(labels))
        return [inst for (n, li), inst in sorted(self._instruments.items())
                if n == name and want <= set(li)]

    # -- the cross-process telemetry plane ---------------------------------
    def snapshot(self) -> Dict:
        """JSON-ready state of every instrument.

        This is the payload workers ship upstream in ``KIND_STATS``
        messages.  Values are *cumulative state*, not deltas, so a
        receiver applies them with set-semantics (:meth:`merge`) and
        a lost or repeated snapshot never skews the merged view.
        """
        metrics: List[Dict] = []
        for inst in self.instruments():
            entry: Dict = {"name": inst.name, "kind": inst.kind,
                           "labels": dict(inst.labels)}
            help_ = self.help_of(inst.name)
            if help_:
                entry["help"] = help_
            if inst.kind == "histogram":
                entry["buckets"] = list(inst.buckets)
                entry["counts"] = list(inst.counts)
                entry["sum"] = inst.sum
                entry["count"] = inst.count
            else:
                entry["value"] = inst.value
            metrics.append(entry)
        return {"v": 1, "metrics": metrics}

    def merge(self, snapshot: Dict,
              extra_labels: Optional[Dict[str, str]] = None) -> int:
        """Fold a :meth:`snapshot` into this registry; returns how many
        instruments were updated.

        ``extra_labels`` is how the monitor scopes a worker's registry
        into the cluster-wide view (e.g. ``{"vri_id": "3"}``): they are
        added to (and override) each instrument's own labels, so two
        workers' identically-named series stay distinct.

        Merging is **idempotent**: snapshots carry cumulative state and
        this method *replaces* the target instrument's state rather than
        adding to it, so applying the same snapshot twice equals once —
        the property that makes at-least-once delivery over a lossy
        control ring safe.
        """
        if snapshot.get("v") != 1:
            raise ConfigError(
                f"unknown registry snapshot version: {snapshot.get('v')!r}")
        self.fold()
        merged = 0
        for entry in snapshot.get("metrics", ()):
            labels = dict(entry.get("labels", {}))
            if extra_labels:
                labels.update(extra_labels)
            kind = entry["kind"]
            name = entry["name"]
            help_ = entry.get("help", "")
            if kind == "counter":
                self.counter(name, help_, **labels).value = entry["value"]
            elif kind == "gauge":
                self.gauge(name, help_, **labels).set(entry["value"])
            elif kind == "histogram":
                hist = self.histogram(name, help_,
                                      buckets=tuple(entry["buckets"]),
                                      **labels)
                counts = [int(n) for n in entry["counts"]]
                if len(counts) != len(hist.counts):
                    raise ConfigError(
                        f"histogram {name!r}: snapshot bucket layout "
                        "does not match the registered instrument")
                hist.counts = counts
                hist.sum = float(entry["sum"])
                hist.count = int(entry["count"])
            else:
                raise ConfigError(f"unknown instrument kind {kind!r}")
            merged += 1
        return merged

    def kind_of(self, name: str) -> Optional[str]:
        return self._kinds.get(name)

    def help_of(self, name: str) -> str:
        return self._help.get(name, "")

    def clear(self) -> None:
        """Drop every instrument (kept in place: live references held by
        components keep counting, they just stop being exported)."""
        self.fold()
        self._deferred.clear()
        self._instruments.clear()
        self._kinds.clear()
        self._help.clear()


#: Process-wide default registry; ``repro.obs.reset()`` clears it.
_DEFAULT = Registry()


def default_registry() -> Registry:
    return _DEFAULT
