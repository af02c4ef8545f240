"""Exception hierarchy for the reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single handler.  Numerical
pathologies that the stability experiments need to *count* rather than
abort on are reported through :class:`repro.analysis.stability.StabilityAudit`
instead of being raised.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ParameterError(ReproError, ValueError):
    """A model parameter is missing, non-finite or outside its domain."""


class WaveformError(ReproError, ValueError):
    """An excitation waveform was constructed with inconsistent data."""


class KernelError(ReproError, RuntimeError):
    """The event-driven simulation kernel detected an illegal operation."""


class SchedulingError(KernelError):
    """A process or event was scheduled in an inconsistent way."""


class SignalError(KernelError):
    """Illegal signal access (e.g. write outside a process context)."""


class SolverError(ReproError, RuntimeError):
    """The analogue solver failed in a way that cannot be accounted for."""


class ConvergenceError(SolverError):
    """Newton iteration failed to converge and no fallback was allowed."""


class AnalysisError(ReproError, ValueError):
    """Loop/metric analysis received data it cannot interpret."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment was mis-configured or produced unusable output."""


class ScenarioError(ReproError, ValueError):
    """A drive scenario was requested or parameterised inconsistently."""


class DistError(ReproError, RuntimeError):
    """The multi-host dispatch layer failed in a non-recoverable way
    (a worker-side exception, exhausted retries, a wire-protocol
    mismatch)."""


class DistTimeoutError(DistError):
    """A per-job deadline expired waiting on a worker connection."""


class CacheError(ReproError, ValueError):
    """A result-cache spill file could not be read back (truncated,
    bit-flipped or otherwise not what the cache wrote)."""
