"""Overload control: priority classification + load-aware admission.

See docs/OVERLOAD.md for the operator playbook.  The package fronts
monitor dispatch in both backends:

* :mod:`repro.overload.classify` — 5-tuple → priority class;
* :mod:`repro.overload.controller` — per-class deterministic stride
  sampling with AIMD rates driven by ring occupancy and the SLO
  watchdog.
"""

from repro.overload.classify import (ClassRule, DEFAULT_CLASSES,
                                     DEFAULT_RULES, PriorityClassifier)
from repro.overload.controller import (AdmissionController, OverloadConfig,
                                       POLICIES, build_controller)

__all__ = [
    "ClassRule",
    "DEFAULT_CLASSES",
    "DEFAULT_RULES",
    "PriorityClassifier",
    "AdmissionController",
    "OverloadConfig",
    "POLICIES",
    "build_controller",
]
