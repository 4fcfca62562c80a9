"""The monitor's dispatch stage.

* :mod:`repro.dispatch.stage` — :class:`DispatchPipeline`, the monitor's
  classify → admit → balance → stage → push pipeline and its drain side,
  run inline in the one monitor process as in the paper;
* :mod:`repro.dispatch.splitter` — an RSS-style 5-tuple flow hash.

Multi-process dispatch is not part of this design: docs/PERFORMANCE.md
§ "Multi-core dispatch: a substitution not taken" says why.
"""
