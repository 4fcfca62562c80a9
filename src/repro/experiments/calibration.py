"""Analytic calibration report.

Derives, in closed form from the :class:`~repro.hardware.costs.CostModel`,
the capacity of every pipeline stage the experiments exercise — and
states the paper anchor each figure must honour.  Two uses:

* ``lvrm-exp calibrate`` prints the audit table, so anyone adjusting a
  cost immediately sees which anchors move;
* the tests cross-check the closed forms against *simulated* capacities
  (the DES must agree with its own arithmetic; disagreement means a
  bookkeeping bug in the pipeline, which is exactly how the per-frame
  cost merging was validated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hardware.costs import CostModel, DEFAULT_COSTS

__all__ = ["StageCapacity", "lvrm_stage_cost", "vri_stage_cost",
           "calibration_report", "ANCHORS"]

#: The measured anchors the paper's text states (DESIGN.md §5):
#: name -> (target, tolerance as a fraction, unit).
ANCHORS = {
    "lvrm-only C++ @84B": (3.7e6, 0.35, "fps"),
    "lvrm-only C++ @1538B": (922e3, 0.15, "fps"),
    "native input ceiling": (448e3, 0.05, "fps"),
    "raw-socket vs pf-ring @84B": (1.5, 0.2, "ratio"),
    "alloc reaction": (900e-6, 0.15, "s"),
    "dealloc reaction": (700e-6, 0.15, "s"),
}


@dataclass(frozen=True)
class StageCapacity:
    """One pipeline stage's closed-form capacity."""

    stage: str
    per_frame_seconds: float
    anchor: str = ""

    @property
    def fps(self) -> float:
        return 1.0 / self.per_frame_seconds


def lvrm_stage_cost(costs: CostModel, frame_size: int, adapter: str,
                    n_vris: int = 1, cross_socket: bool = False,
                    flow_based: bool = False) -> float:
    """Per-frame cost of the LVRM process: rx + dispatch + drain + tx.

    Mirrors the capture, dispatch and transmit steps of
    :meth:`Lvrm._run` exactly; the tests enforce that the two never
    drift apart.
    """
    if adapter == "pf-ring":
        rx, tx = costs.pfring_rx, costs.pfring_tx
    elif adapter == "pf-ring-1.0":
        rx = costs.pfring_rx
        tx = costs.rawsock_tx + costs.rawsock_per_byte * frame_size
    elif adapter == "raw-socket":
        rx = costs.rawsock_rx + costs.rawsock_per_byte * frame_size
        tx = costs.rawsock_tx + costs.rawsock_per_byte * frame_size
    elif adapter == "memory":
        rx = costs.memory_rx + costs.memory_rx_per_byte * frame_size
        tx = costs.discard_tx
    else:
        raise ValueError(f"unknown adapter {adapter!r}")
    balance = costs.balance_fixed + costs.balance_jsq_per_vri * n_vris
    if flow_based:
        balance += costs.balance_flow_lookup
    ipc = 2 * costs.ipc_data_cost(frame_size, cross_socket)
    return rx + costs.classify_cost + balance + ipc + tx


def vri_stage_cost(costs: CostModel, frame_size: int, vr_type: str,
                   dummy_load: float = 0.0,
                   cross_socket: bool = False,
                   click_elements: int = 8) -> float:
    """Per-frame cost of one VRI: pop + process + push."""
    if vr_type == "cpp":
        processing = costs.cpp_vr_cost
    elif vr_type == "click":
        processing = click_elements * costs.click_element_cost
    else:
        raise ValueError(f"unknown VR type {vr_type!r}")
    ipc = 2 * costs.ipc_data_cost(frame_size, cross_socket)
    return ipc + processing + dummy_load


def calibration_report(costs: CostModel = DEFAULT_COSTS) -> List[StageCapacity]:
    """Every derived capacity with its paper anchor."""
    rows = [
        StageCapacity("LVRM stage, memory adapter, 84 B",
                      lvrm_stage_cost(costs, 84, "memory"),
                      "3.7 Mfps (Exp 1c)"),
        StageCapacity("LVRM stage, memory adapter, 1538 B",
                      lvrm_stage_cost(costs, 1538, "memory"),
                      "922 Kfps / 11 Gbps (Exp 1c)"),
        StageCapacity("LVRM stage, PF_RING, 84 B",
                      lvrm_stage_cost(costs, 84, "pf-ring"),
                      ">= 448 Kfps so LVRM ~ native (Exp 1a)"),
        StageCapacity("LVRM stage, raw socket, 84 B",
                      lvrm_stage_cost(costs, 84, "raw-socket"),
                      "~1/1.5 of PF_RING (Exp 1a)"),
        StageCapacity("VRI stage, C++ VR, 84 B",
                      vri_stage_cost(costs, 84, "cpp"),
                      "never the bottleneck without dummy load"),
        StageCapacity("VRI stage, Click VR, 84 B",
                      vri_stage_cost(costs, 84, "click"),
                      "the Click bottleneck of Exp 1c/2a"),
        StageCapacity("VRI stage, C++ + 1/60 ms dummy, 84 B",
                      vri_stage_cost(costs, 84, "cpp",
                                     dummy_load=1 / 60e3),
                      "~60 Kfps per core (Exp 2b-3b)"),
        StageCapacity("kernel forward, 84 B",
                      costs.kernel_forward_fixed
                      + costs.kernel_forward_per_byte * 84,
                      "above the 448 Kfps sender ceiling (Exp 1a)"),
        StageCapacity("sender host frame generation",
                      costs.sender_per_frame,
                      "224 Kfps per host -> 448 Kfps ceiling"),
    ]
    return rows


def render_report(costs: CostModel = DEFAULT_COSTS) -> str:
    lines = ["== calibration: derived stage capacities =="]
    lines.append(f"{'stage':<44} {'us/frame':>9} {'kfps':>9}  anchor")
    for row in calibration_report(costs):
        lines.append(f"{row.stage:<44} {row.per_frame_seconds * 1e6:>9.3f} "
                     f"{row.fps / 1e3:>9.1f}  {row.anchor}")
    lines.append("")
    lines.append("== paper anchors (tolerance) ==")
    for name, (target, tol, unit) in ANCHORS.items():
        lines.append(f"{name:<34} {target:>12g} {unit}  (+/- {tol:.0%})")
    return "\n".join(lines)
