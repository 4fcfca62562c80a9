"""Load-aware admission control: AIMD sampling rates per priority class.

The paper's LVRM is load-*aware* only up to saturation — it spreads
flows across VRIs but has no answer once offered load exceeds aggregate
capacity.  This module is that answer: a shedding/admission stage that
sits in front of monitor dispatch in both backends and degrades the
monitor *gracefully* (shed bulk first, keep control-plane traffic
flowing, hold high-class tail latency) instead of letting every class
collapse together behind full rings.

Mechanism
---------
Each priority class ``c`` (see :mod:`repro.overload.classify`) carries
an admission rate ``rate[c] ∈ [floor, 1.0]``.  Admission is a
*deterministic stride sampler* — a per-class credit accumulator::

    acc += rate            # scalar decision
    if acc >= 1.0: acc -= 1.0; admit
    else: shed

and the block form used by the vectorized kernels path admits the first
``k = floor(acc + n*rate)`` frames of the class within the burst, which
is arithmetically identical to running the scalar sampler ``n`` times.
Rates are quantized to 1/2**16 and the accumulator is an integer, so
the scalar and block forms agree *bit-exactly* (repeated float addition
would drift from ``n * rate``).  No RNG is involved: the DES stays
bit-reproducible and a rate of 0.25 means *exactly* every fourth frame,
not every fourth in expectation.

Rates move by AIMD toward a target band of data-ring occupancy.  The
controller samples ``occupancy_fn()`` (max ring fill across VRIs,
normalised to [0, 1]) at most every ``update_interval`` seconds,
smooths it with the paper's EWMA (:func:`repro.core.estimation.
ewma_update`), and then:

* occupancy above ``band_hi`` (or an active SLO breach) → multiplicative
  **decrease**, shaped by the policy (below);
* occupancy below ``band_lo`` and no SLO pressure → additive
  **increase** of every class by ``increase`` per update, capped at 1.

Policies (``--overload-policy``):

``none``
    No controller is installed at all — the legacy dispatch path, zero
    overhead, ``/overload`` serves ``{}``.
``tail-drop``
    Class-blind: every class is decreased together.  Models "shed the
    newest arrivals whoever they are" — better than nothing (the queue
    stays short) but control traffic starves with the bulk.
``priority-shed``
    Strictly bottom-up: each decrease step tightens only the lowest
    class not yet at ``floor``; class 0 (control) is never shed.  This
    is the policy that holds high-class p99 flat through overload.
``adaptive-sample``
    Load-aware sampling in the spirit of adaptive multicore samplers:
    every class except control is decreased each step, but the factor
    softens with priority (``decrease ** (c / (n-1))`` for class c), so
    lower classes shed faster yet *every* class keeps a deterministic
    trickle for visibility.

An SLO breach of kind ``p99_latency_ms`` reported via :meth:`
AdmissionController.note_slo` tightens immediately on the breach edge
and pins decrease-pressure for as long as the breach persists, so the
watchdog's latency signal shortens queues *before* the supervisor sees
drop-rate breaches.

Accounting
----------
Per class, ``offered == admitted + shed`` — always, including across
faults (the conservation test in ``tests/test_overload.py``).  The shed
counters are deliberately **not** in the SLO watchdog's
``DEFAULT_DROP_NAMES``: intentional shedding is the cure, not the
disease, and must not itself trip the no-drops SLO.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.estimation import ewma_update
from repro.errors import ConfigError
from repro.obs.registry import Registry, default_registry
from repro.overload.classify import PriorityClassifier

__all__ = ["POLICIES", "OverloadConfig", "AdmissionController",
           "build_controller"]

#: Recognised overload policies; ``none`` means "install nothing".
POLICIES = ("none", "tail-drop", "priority-shed", "adaptive-sample")

#: Fixed-point scale for admission rates: rates are quantized to
#: 1/SCALE so the scalar and block samplers agree bit-exactly.
_SCALE = 1 << 16


@dataclass(frozen=True)
class OverloadConfig:
    """Tuning knobs for the admission controller (docs/OVERLOAD.md)."""

    policy: str = "none"
    #: Target occupancy band for the AIMD loop: relax below ``band_lo``,
    #: tighten above ``band_hi``.  Occupancy is max data-ring fill
    #: across VRIs, in [0, 1].
    band_lo: float = 0.25
    band_hi: float = 0.75
    #: Additive step per update when relaxing (rate units / update).
    increase: float = 0.05
    #: Multiplicative factor per update when tightening.
    decrease: float = 0.5
    #: Admission-rate floor: no class is ever sampled below this, so
    #: even fully-shed classes keep a deterministic trickle.
    floor: float = 0.05
    #: Minimum seconds between controller updates (rate limiting; the
    #: hot path only pays a float compare between updates).
    update_interval: float = 0.05
    #: EWMA weight for occupancy smoothing (paper's estimator form;
    #: 0 disables smoothing).
    ewma_weight: float = 2.0
    #: Classifier spec (see ``PriorityClassifier.from_spec``).
    classifier: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown overload policy {self.policy!r} "
                f"(choose from {POLICIES})")
        if not 0.0 <= self.band_lo <= self.band_hi <= 1.0:
            raise ConfigError(
                f"need 0 <= band_lo <= band_hi <= 1, got "
                f"[{self.band_lo}, {self.band_hi}]")
        if not 0.0 < self.increase <= 1.0:
            raise ConfigError(f"increase must be in (0, 1], "
                              f"got {self.increase}")
        if not 0.0 < self.decrease < 1.0:
            raise ConfigError(f"decrease must be in (0, 1), "
                              f"got {self.decrease}")
        if not 0.0 <= self.floor < 1.0:
            raise ConfigError(f"floor must be in [0, 1), got {self.floor}")
        if self.update_interval <= 0.0:
            raise ConfigError("update_interval must be > 0")
        if self.ewma_weight < 0.0:
            raise ConfigError("ewma_weight must be >= 0")
        if self.classifier is not None and not isinstance(
                self.classifier, dict):
            raise ConfigError("classifier spec must be a mapping")

    @classmethod
    def from_spec(cls, spec: Union[None, str, dict,
                                   "OverloadConfig"]) -> "OverloadConfig":
        """Accept a config dict, a JSON string, or a ready config."""
        if spec is None:
            return cls()
        if isinstance(spec, OverloadConfig):
            return spec
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad overload spec JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise ConfigError(
                f"overload spec must be a mapping, got {type(spec).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(spec) - known
        if unknown:
            raise ConfigError(
                f"unknown overload config keys {sorted(unknown)} "
                f"(known: {sorted(known)})")
        return cls(**spec)


class AdmissionController:
    """Per-class deterministic stride sampler + AIMD rate governor.

    One instance fronts one LVRM's dispatch path (DES or runtime); it
    owns the per-class ``overload_*`` instruments in the registry under
    the LVRM's scope labels.
    """

    def __init__(self, config: OverloadConfig,
                 registry: Optional[Registry] = None,
                 scope_labels: Optional[Dict[str, str]] = None):
        if config.policy == "none":
            raise ConfigError(
                "policy 'none' means no controller; use build_controller()")
        self.config = config
        self.classifier = PriorityClassifier.from_spec(config.classifier)
        n = self.classifier.n_classes
        self.rates: List[float] = [1.0] * n
        self._stride: List[int] = [_SCALE] * n
        self._floor_stride = int(round(config.floor * _SCALE))
        self._acc: List[int] = [0] * n
        self.offered: List[int] = [0] * n
        self.admitted: List[int] = [0] * n
        self.shed: List[int] = [0] * n
        self._occ_avg: Optional[float] = None
        self._last_update: Optional[float] = None
        self._slo_pressure = False
        self.updates = 0
        self.tightens = 0
        self.relaxes = 0

        reg = default_registry() if registry is None else registry
        labels = dict(scope_labels or {})
        self._c_admitted = []
        self._c_shed = []
        self._g_rate = []
        for name in self.classifier.classes:
            self._c_admitted.append(reg.counter(
                "overload_admitted_total",
                "Frames admitted past the overload stage, per class.",
                cls=name, **labels))
            self._c_shed.append(reg.counter(
                "overload_shed_total",
                "Frames shed by the overload stage, per class.",
                cls=name, **labels))
            self._g_rate.append(reg.gauge(
                "overload_admission_rate",
                "Current per-class admission rate in [floor, 1].",
                cls=name, **labels))
        for g in self._g_rate:
            g.set(1.0)
        self._g_occ = reg.gauge(
            "overload_occupancy",
            "EWMA-smoothed max data-ring occupancy seen by the "
            "admission controller.", **labels)

    # ------------------------------------------------------------------
    # admission (hot path)
    # ------------------------------------------------------------------

    def set_rate(self, cls: int, rate: float) -> None:
        """Pin one class's admission rate (quantized to 1/2**16)."""
        stride = min(_SCALE, max(0, int(round(rate * _SCALE))))
        self._stride[cls] = stride
        self.rates[cls] = stride / _SCALE
        self._g_rate[cls].set(self.rates[cls])

    def decide(self, cls: int) -> bool:
        """Scalar stride decision for one frame of class ``cls``."""
        self.offered[cls] += 1
        stride = self._stride[cls]
        if stride >= _SCALE:
            self.admitted[cls] += 1
            self._c_admitted[cls].inc()
            return True
        acc = self._acc[cls] + stride
        if acc >= _SCALE:
            self._acc[cls] = acc - _SCALE
            self.admitted[cls] += 1
            self._c_admitted[cls].inc()
            return True
        self._acc[cls] = acc
        self.shed[cls] += 1
        self._c_shed[cls].inc()
        return False

    def admit_frame(self, frame) -> bool:
        """Classify + decide for a DES ``Frame`` (or FrameView)."""
        return self.decide(self.classifier.classify_frame(frame))

    def admit_raw(self, buf) -> bool:
        """Classify + decide for raw wire bytes (runtime scalar path)."""
        return self.decide(self.classifier.classify_raw(buf))

    def admit_block(self, frames: Sequence,
                    classify: Optional[Callable] = None) -> list:
        """Block admission for the vectorized burst path.

        Returns the admitted sub-list in original order.  Per class the
        first ``k`` frames are admitted where ``k`` advances the same
        credit accumulator the scalar path uses — so a burst of ``n``
        decides identically to ``n`` scalar calls, and the kernels see
        one contiguous (smaller) block to vectorise over.
        """
        if not frames:
            return []
        classify = classify or self.classifier.classify_raw
        classes = [classify(f) for f in frames]
        n_cls = len(self.rates)
        counts = [0] * n_cls
        for c in classes:
            counts[c] += 1
        quota = [0] * n_cls
        for c in range(n_cls):
            m = counts[c]
            if not m:
                continue
            self.offered[c] += m
            stride = self._stride[c]
            if stride >= _SCALE:
                quota[c] = m
            else:
                total = self._acc[c] + m * stride
                k = min(m, total // _SCALE)
                self._acc[c] = total - k * _SCALE
                quota[c] = k
            self._c_admitted[c].inc(quota[c])
            self._c_shed[c].inc(m - quota[c])
            self.admitted[c] += quota[c]
            self.shed[c] += m - quota[c]
        if all(quota[c] == counts[c] for c in range(n_cls)):
            return list(frames)
        taken = [0] * n_cls
        admitted = []
        for f, c in zip(frames, classes):
            if taken[c] < quota[c]:
                taken[c] += 1
                admitted.append(f)
        return admitted

    # ------------------------------------------------------------------
    # rate control
    # ------------------------------------------------------------------

    def maybe_update(self, now: float,
                     occupancy_fn: Callable[[], float]) -> bool:
        """Run one AIMD step if ``update_interval`` has elapsed.

        Returns True when a step ran (tests and the admin view use the
        update count; callers ignore the result on the hot path).
        """
        last = self._last_update
        if last is not None and now - last < self.config.update_interval:
            return False
        self._last_update = now
        occ = min(1.0, max(0.0, float(occupancy_fn())))
        if self.config.ewma_weight > 0.0:
            self._occ_avg = ewma_update(self._occ_avg, occ,
                                        self.config.ewma_weight)
        else:
            self._occ_avg = occ
        self._g_occ.set(self._occ_avg)
        self.updates += 1
        if self._occ_avg > self.config.band_hi or self._slo_pressure:
            self._tighten()
        elif self._occ_avg < self.config.band_lo:
            self._relax()
        return True

    def note_slo(self, breaching: bool) -> None:
        """Couple the SLO watchdog's p99 verdict into the AIMD loop.

        On the breach *edge* the controller tightens immediately (no
        waiting for the next occupancy sample); while the breach
        persists every update tightens regardless of occupancy.
        """
        if breaching and not self._slo_pressure:
            self._tighten()
        self._slo_pressure = breaching

    def _tighten(self) -> None:
        cfg = self.config
        policy = cfg.policy
        rates = self.rates
        n = len(rates)
        if policy == "tail-drop":
            for c in range(n):
                self.set_rate(c, max(cfg.floor, rates[c] * cfg.decrease))
        elif policy == "priority-shed":
            # Bottom-up: hit the lowest class not yet at the floor;
            # class 0 (control) is never shed.  Compare quantized
            # strides so a class at the (quantized) floor counts as
            # fully shed and the step moves on to the next class up.
            for c in range(n - 1, 0, -1):
                if self._stride[c] > self._floor_stride:
                    self.set_rate(c, max(cfg.floor,
                                         rates[c] * cfg.decrease))
                    break
        else:  # adaptive-sample
            denom = max(1, n - 1)
            for c in range(1, n):
                factor = cfg.decrease ** (c / denom)
                self.set_rate(c, max(cfg.floor, rates[c] * factor))
        self.tightens += 1

    def _relax(self) -> None:
        cfg = self.config
        changed = False
        for c, rate in enumerate(self.rates):
            if rate < 1.0:
                self.set_rate(c, min(1.0, rate + cfg.increase))
                changed = True
        if changed:
            self.relaxes += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def state(self) -> Dict:
        """JSON-ready snapshot for the ``/overload`` admin route and
        scenario reports."""
        names = self.classifier.classes
        return {
            "policy": self.config.policy,
            "band": [self.config.band_lo, self.config.band_hi],
            "floor": self.config.floor,
            "occupancy": (round(self._occ_avg, 6)
                          if self._occ_avg is not None else None),
            "slo_pressure": self._slo_pressure,
            "updates": self.updates,
            "tightens": self.tightens,
            "relaxes": self.relaxes,
            "classes": {
                names[c]: {
                    "rate": round(self.rates[c], 6),
                    "offered": self.offered[c],
                    "admitted": self.admitted[c],
                    "shed": self.shed[c],
                } for c in range(len(names))
            },
        }


def build_controller(policy: str,
                     opts: Union[None, str, dict, OverloadConfig] = None,
                     registry: Optional[Registry] = None,
                     scope_labels: Optional[Dict[str, str]] = None,
                     ) -> Optional[AdmissionController]:
    """Factory used by both backends: ``None`` for policy ``none``
    (legacy dispatch path, zero overhead), a controller otherwise.
    ``opts`` overrides config fields; its ``policy`` key, if present,
    must agree with ``policy``."""
    if policy not in POLICIES:
        raise ConfigError(
            f"unknown overload policy {policy!r} (choose from {POLICIES})")
    if policy == "none":
        return None
    cfg = OverloadConfig.from_spec(opts)
    if cfg.policy != policy:
        if cfg.policy != "none":
            raise ConfigError(
                f"overload_opts policy {cfg.policy!r} conflicts with "
                f"requested policy {policy!r}")
        cfg = OverloadConfig.from_spec({**(cfg.__dict__), "policy": policy})
    return AdmissionController(cfg, registry=registry,
                               scope_labels=scope_labels)
