"""repro — a reproduction of *Efficient Top-k Indexing via General Reductions*.

Rahul & Tao, PODS 2016.  The package provides:

* the paper's two black-box reductions —
  :class:`~repro.core.theorem1.WorstCaseTopKIndex` (prioritized -> top-k,
  worst case) and :class:`~repro.core.theorem2.ExpectedTopKIndex`
  (prioritized + max -> top-k, no degradation in expectation);
* the prior binary-search reduction used as the baseline
  (:class:`~repro.core.baseline.BinarySearchTopKIndex`);
* prioritized/max structures for the paper's five application problems
  (interval stabbing, 2D point enclosure, 3D dominance, halfplane and
  circular range reporting) in :mod:`repro.structures`;
* an external-memory model simulator with exact I/O counting in
  :mod:`repro.em`;
* fault injection, a structured error taxonomy, and the
  :class:`~repro.resilience.guard.ResilientTopKIndex` degradation
  ladder in :mod:`repro.resilience`;
* the high-throughput serving layer — batched execution, the
  LSN-versioned result cache, and a parallel sharded fan-out — in
  :mod:`repro.serving`;
* workload generators and the experiment harness in :mod:`repro.bench`.

Quickstart::

    from repro import Element, ExpectedTopKIndex
    from repro.structures import (
        StabbingPredicate, SegmentTreeIntervalPrioritized,
        DynamicIntervalStabbingMax)
    from repro.geometry import Interval

    data = [Element(Interval(0, 10), 5.0), Element(Interval(3, 7), 9.0)]
    index = ExpectedTopKIndex(
        data, SegmentTreeIntervalPrioritized, DynamicIntervalStabbingMax)
    index.query(StabbingPredicate(5.0), k=1)
"""

from repro.core import (
    BinarySearchTopKIndex,
    CountingIndex,
    CountingTopKIndex,
    DynamicMaxIndex,
    DynamicPrioritizedIndex,
    Element,
    ExpectedTopKIndex,
    MaxIndex,
    Predicate,
    PrioritizedFromTopK,
    PrioritizedIndex,
    PrioritizedResult,
    TopKIndex,
    TuningParams,
    WorstCaseTopKIndex,
    ensure_distinct_weights,
)
from repro.resilience import (
    AdmissionRejected,
    ContractViolation,
    DegradedAnswer,
    FaultPlan,
    FaultStats,
    GuardPolicy,
    HealthReport,
    RecoveryError,
    ReproError,
    ResilientTopKIndex,
    RetryBudgetExhausted,
    SimulatedCrash,
    SnapshotIntegrityError,
    TransientIOError,
    resilient_index,
)

__version__ = "1.3.0"

_DURABILITY_EXPORTS = (
    "DurableStore",
    "DurableTopKIndex",
    "RecoveryResult",
    "recover_index",
)

_SERVING_EXPORTS = (
    "QueryRequest",
    "ResultCache",
    "ServingEngine",
    "ServingStats",
    "plan_batch",
    "execute_batch",
    "serving_engine",
)


def __getattr__(name):
    # PEP 562: the durability and serving layers pull in core + em +
    # resilience (+ replication), so they are exposed lazily to keep
    # `import repro` light.
    if name in _DURABILITY_EXPORTS:
        from repro import durability

        return getattr(durability, name)
    if name in _SERVING_EXPORTS:
        from repro import serving

        return getattr(serving, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Element",
    "Predicate",
    "ensure_distinct_weights",
    "PrioritizedIndex",
    "PrioritizedResult",
    "MaxIndex",
    "TopKIndex",
    "DynamicPrioritizedIndex",
    "DynamicMaxIndex",
    "TuningParams",
    "WorstCaseTopKIndex",
    "ExpectedTopKIndex",
    "BinarySearchTopKIndex",
    "CountingTopKIndex",
    "CountingIndex",
    "PrioritizedFromTopK",
    "ReproError",
    "TransientIOError",
    "ContractViolation",
    "AdmissionRejected",
    "RetryBudgetExhausted",
    "DegradedAnswer",
    "FaultPlan",
    "FaultStats",
    "GuardPolicy",
    "HealthReport",
    "ResilientTopKIndex",
    "resilient_index",
    "SimulatedCrash",
    "SnapshotIntegrityError",
    "RecoveryError",
    *_DURABILITY_EXPORTS,
    *_SERVING_EXPORTS,
    "__version__",
]
