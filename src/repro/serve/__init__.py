"""Disassembly-as-a-service (``repro.serve``).

Turns the one-shot CLI stack into a long-lived service with warm
models, batching, caching, backpressure, and ops endpoints.  See
DESIGN.md ("Serving layer") for the architecture and README
("Serving") for endpoint shapes and the ops runbook.

>>> from repro.serve import ServeConfig, run_server
>>> run_server(ServeConfig(port=8080, workers=4))      # doctest: +SKIP
"""

from .access_log import AccessLog
from .cache import ResultCache, result_key
from .client import (BackpressureError, DeadlineError, ServeClient,
                     ServeError, TransportError)
from .metrics import ServeMetrics
from .protocol import (PROTOCOL_VERSION, JobRequest, ProtocolError,
                       config_fingerprint, config_from_overrides,
                       encode_binary)
from .scheduler import (DrainingError, JobCancelledError, JobFailedError,
                        JobScheduler, JobTimeoutError, QueueFullError,
                        SchedulerConfig)
from .server import ServeApp, ServeConfig, run_server

__all__ = [
    "AccessLog",
    "BackpressureError",
    "DeadlineError",
    "DrainingError",
    "JobCancelledError",
    "JobFailedError",
    "JobRequest",
    "JobScheduler",
    "JobTimeoutError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueFullError",
    "ResultCache",
    "SchedulerConfig",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "TransportError",
    "ServeMetrics",
    "config_fingerprint",
    "config_from_overrides",
    "encode_binary",
    "result_key",
    "run_server",
]
