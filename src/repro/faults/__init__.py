"""Deterministic fault injection and resilience for the storage model.

The package has four layers:

- :mod:`repro.faults.retry` -- :class:`RetryPolicy` / :class:`RetrySession`,
  bounded retries with exponential backoff and deterministic jitter.
- :mod:`repro.faults.plan` -- :class:`FaultSpec` / :class:`FaultPlan`, a
  seeded schedule of faults indexed by device-operation number.
- :mod:`repro.faults.device` -- :class:`FaultyDevice`, a ``BlockDevice``
  wrapper that raises :class:`~repro.errors.FaultError` according to a plan.
- :mod:`repro.faults.resilience` -- :class:`ResilientPipelineRunner`, a
  runner that survives mid-run device failures via checkpoint/restart.
  (Import it from its module: it depends on :mod:`repro.pipelines`, which
  itself imports this package, so re-exporting it here would be circular.)

A null plan (all rates zero, no scheduled device failure) is guaranteed to
be pure delegation: wrapping a device in :class:`FaultyDevice` with a null
plan reproduces the unwrapped device bit for bit.
"""

from repro.lazy import lazy_exports

# Loaded on first use: the serving client needs only RetryPolicy, not
# the device models behind FaultyDevice.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.retry": ("RetryPolicy", "RetrySession"),
    "repro.faults.plan": ("FaultKind", "FaultPlan", "FaultSpec"),
    "repro.faults.device": ("FaultyDevice",),
})

__all__ = [
    "RetryPolicy",
    "RetrySession",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FaultyDevice",
]
