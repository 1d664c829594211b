"""Flat-memory organisations: the comparison schemes and the protocol
they share with SILC-FM."""

from repro.schemes.base import AccessPlan, Level, MemoryScheme, Op, SchemeStats
from repro.schemes.cameo import CameoPrefetchScheme, CameoScheme
from repro.schemes.hma import HmaScheme
from repro.schemes.pom import PomScheme
from repro.schemes.static import StaticScheme

__all__ = [
    "AccessPlan",
    "CameoPrefetchScheme",
    "CameoScheme",
    "HmaScheme",
    "Level",
    "MemoryScheme",
    "Op",
    "PomScheme",
    "SchemeStats",
    "StaticScheme",
]
