"""Virtual-router specifications.

A :class:`VrSpec` is the administrative definition of one VR: which
source subnets it owns (LVRM classifies frames by source IP, thesis
§2.1), what router implementation its VRIs run, and its allocation
limits.  The spec is immutable; runtime state lives in the monitors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.router_types import ClickVrModel, CppVrModel, RouterModel
from repro.errors import ConfigError
from repro.routing.mapfile import parse_map_lines
from repro.routing.prefix import Prefix

__all__ = ["VrType", "VrSpec", "DEFAULT_MAP_LINES"]


class VrType(enum.Enum):
    """The two hosted VR implementations of Chapter 4."""

    CPP = "cpp"
    CLICK = "click"


#: Routes matching the Figure 4.1 testbed: receiver side behind iface 1,
#: sender side behind iface 0 (for replies).
DEFAULT_MAP_LINES = (
    "route 10.2.0.0/16 iface 1",
    "route 10.1.0.0/16 iface 0",
)


@dataclass(frozen=True)
class VrSpec:
    """One virtual router's configuration."""

    name: str
    #: Source subnets whose traffic this VR processes.
    subnets: Tuple[Prefix, ...]
    vr_type: VrType = VrType.CPP
    #: Map-file lines initializing the VRIs' route tables (thesis §3.7).
    map_lines: Tuple[str, ...] = DEFAULT_MAP_LINES
    #: Click configuration script (Click VRs only; None = the default
    #: minimal forwarder).
    click_config: Optional[str] = None
    #: Extra per-frame processing (Experiments 2b-3b use 1/60 ms).
    dummy_load: float = 0.0
    #: Upper bound on simultaneously live VRIs.
    max_vris: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("VR needs a name")
        if not self.subnets:
            raise ConfigError(f"VR {self.name!r} owns no subnets")
        if self.dummy_load < 0:
            raise ConfigError("dummy_load cannot be negative")
        if self.max_vris < 1:
            raise ConfigError("max_vris must be >= 1")
        if self.vr_type is VrType.CPP and self.click_config is not None:
            raise ConfigError("click_config given for a C++ VR")
        # Each subnet's (mask, network), taken once: LVRM classifies
        # every captured frame through owns().
        object.__setattr__(self, "_masks", tuple(
            (p.mask, p.network) for p in self.subnets))

    def owns(self, src_ip: int) -> bool:
        """Whether this VR is responsible for frames from ``src_ip``."""
        for mask, network in self._masks:
            if src_ip & mask == network:
                return True
        return False

    def build_router(self) -> RouterModel:
        """Instantiate the per-VRI router model.

        Each VRI gets its own instance (VRIs of one VR share the same
        *configuration*, not the same in-memory state).
        """
        if self.vr_type is VrType.CPP:
            routes, _arp = parse_map_lines(self.map_lines)
            return CppVrModel(routes, dummy_load=self.dummy_load)
        return ClickVrModel(self.click_config, dummy_load=self.dummy_load)
