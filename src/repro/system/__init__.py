"""repro.system — whole-system assembly (paper Fig. 1 / Fig. 2).

Builds the complete simulated installation: host port ↔ full-duplex link ↔
receiver/transmitter ↔ Register Transfer Machine with its functional
units, and wraps it in a :class:`Simulator`.
"""

from ..config import DEFAULT_CONFIG, FrameworkConfig
from .builder import SystemSpec, build_system
from .multihost import (
    BuiltMultiHostSystem,
    MultiHostCoprocessorSystem,
    build_multihost_system,
)
from .soc import CoprocessorSystem

__all__ = [
    "DEFAULT_CONFIG",
    "FrameworkConfig",
    "SystemSpec",
    "build_system",
    "BuiltMultiHostSystem",
    "MultiHostCoprocessorSystem",
    "build_multihost_system",
    "CoprocessorSystem",
]
