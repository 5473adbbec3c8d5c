"""Workload generation: popularity, hostname universes, traffic, clients."""

from .clients import ClientPopulation, PopulationConfig
from .hostnames import HostnameUniverse, UniverseConfig, lognormal_sizes
from .traffic import PageView, RequestStream, Session, SessionGenerator
from .zipf import ZipfDistribution

__all__ = [
    "ClientPopulation",
    "PopulationConfig",
    "HostnameUniverse",
    "UniverseConfig",
    "lognormal_sizes",
    "PageView",
    "RequestStream",
    "Session",
    "SessionGenerator",
    "ZipfDistribution",
]
