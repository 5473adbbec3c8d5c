"""repro.flow — the columnar end-to-end flow engine.

ROADMAP.md's "Measured performance" pillar: the sk_lookup hot path was
batched in an earlier PR, but the rest of the request pipeline still walked
per-request Python objects.
This package carries one struct-of-arrays :class:`FlowBatch` through the
*whole* path — DNS query → policy match → mint → resolver cache → ECMP →
dispatch → serve — with flow hashes computed once per batch (on the numpy
backend) and threaded through every stage, and per-batch stats folds
instead of per-packet counter increments.

Every seam has one body of logic with its scalar and batch forms as entry
points over it, so the two paths cannot drift; DESIGN.md §12 tabulates
which form is the code and why the few seams with two keep both, and the
seeded differential suite (``tests/test_flow_differential.py``) enforces
batched ≡ scalar on verdicts *and* counters.
"""

from .backend import NumpyHashBackend, PythonHashBackend
from .batch import FlowBatch
from .engine import FlowEngine, FlowStats

__all__ = [
    "FlowBatch",
    "FlowEngine",
    "FlowStats",
    "PythonHashBackend",
    "NumpyHashBackend",
]
