"""Cluster layer: host composition, testbed construction, deployment."""

from .builder import Cluster
from .deploy import Deployment, GroupDeployment
from .host import SmartHost
from .testbed import (
    MachineSpec,
    TESTBED_MACHINES,
    TESTBED_SEGMENTS,
    build_testbed,
)
from .wan import WAN_PATHS, WanPathSpec, build_wan_paths

__all__ = [
    "Cluster",
    "SmartHost",
    "Deployment",
    "GroupDeployment",
    "build_testbed",
    "TESTBED_MACHINES",
    "TESTBED_SEGMENTS",
    "MachineSpec",
    "build_wan_paths",
    "WAN_PATHS",
    "WanPathSpec",
]
