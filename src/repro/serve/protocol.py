"""Wire shapes of the serving API: jobs, config handling, errors.

The service speaks plain JSON.  A disassembly request carries the
binary as a base64 ``.bin`` container plus optional
:class:`~repro.core.config.DisassemblerConfig` field overrides; the
response embeds the exact :meth:`DisassemblyResult.to_json
<repro.result.DisassemblyResult.to_json>` object, so serving output is
byte-identical to the offline CLI for the same container and config
(the acceptance bar of the serving layer).
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
from dataclasses import dataclass, field
from typing import Any

from ..core.config import DEFAULT_CONFIG, DisassemblerConfig
from ..formats import FORMAT_NAMES
from ..stats.cache import stable_digest

#: Bump when request/response shapes or job semantics change.
#: v2: requests may carry a ``format`` field ("auto" / "rprb" /
#: "elf64" / "pe32+"); real ELF/PE payloads are accepted and
#: canonicalized to the native container at admission.
#: v3: disassemble requests may carry a ``base`` fingerprint (the
#: ``fingerprint`` of a previous response); workers holding that run's
#: fact base re-disassemble incrementally.  Responses carry
#: ``fingerprint``.  Purely a performance hint: payloads are
#: byte-identical with or without it.
#: v4: ``config`` overrides name only the 7 ``DisassemblerConfig``
#: fields (``use_statistics``, ``use_behavior``,
#: ``use_prioritized_correction``, ``use_table_resolution``,
#: ``use_lint_feedback``, ``record_provenance``, ``code_threshold``)
#: and are type-checked at admission: the six switches must be JSON
#: booleans and ``code_threshold`` a number, coerced to float before
#: fingerprinting.  Anything else is a 400.
PROTOCOL_VERSION = 4

#: Job kinds the scheduler understands.
KINDS = ("disassemble", "lint")


class ProtocolError(ValueError):
    """A malformed request; carries the HTTP status to answer with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class JobRequest:
    """One unit of work as it travels to the scheduler and workers."""

    id: str
    kind: str                               # member of KINDS
    blob: bytes                             # serialized .bin container
    config_overrides: dict[str, Any] | None = None
    lint_disable: tuple[str, ...] = ()
    #: sha256 fingerprint of a previously disassembled container; a
    #: worker still holding that run's fact base re-disassembles
    #: incrementally (byte-identical output either way).
    base: str = ""
    #: Absolute monotonic deadline; the scheduler refuses to start the
    #: job after it (the job is *cancelled*, not merely late).
    deadline: float = float("inf")
    #: Serialized :class:`repro.obs.SpanContext` of the request span
    #: when tracing is active; worker spans re-parent under it.
    trace_ctx: dict | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ProtocolError(f"unknown job kind {self.kind!r}")

    def worker_item(self) -> tuple:
        """The picklable tuple shipped to a worker process.

        Stays a flat 5-tuple in the common case; a ``base`` fingerprint
        travels as an optional sixth element and the span context (when
        tracing) as a seventh (workers and test stand-ins unpack with
        ``job_id, *rest``).
        """
        item = (self.id, self.kind, self.blob, self.config_overrides,
                self.lint_disable)
        if self.base:
            item += (self.base,)
        if self.trace_ctx is not None:
            if not self.base:
                item += ("",)
            item += (self.trace_ctx,)
        return item


# ----------------------------------------------------------------------
# Config handling
# ----------------------------------------------------------------------

#: Field name -> type of its default (``bool`` or ``float``).
_CONFIG_FIELDS = {f.name: type(f.default) for f in
                  dataclasses.fields(DisassemblerConfig)}


def config_from_overrides(overrides: dict[str, Any] | None
                          ) -> DisassemblerConfig:
    """A :class:`DisassemblerConfig` from a request's override dict.

    Unknown field names and mistyped values are client errors (400),
    not silently accepted: a typo would otherwise serve results under
    the wrong cache key forever, and a truthy string such as ``"no"``
    would switch a component *on*.  Numbers are coerced to float so
    ``0`` and ``0.0`` resolve to one config.
    """
    if not overrides:
        return DEFAULT_CONFIG
    unknown = sorted(set(overrides) - set(_CONFIG_FIELDS))
    if unknown:
        raise ProtocolError(f"unknown config field(s): {', '.join(unknown)}")
    values = {}
    for name, value in overrides.items():
        if _CONFIG_FIELDS[name] is bool:
            if not isinstance(value, bool):
                raise ProtocolError(f"config field {name!r} must be a "
                                    f"boolean, got {type(value).__name__}")
        elif isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            raise ProtocolError(f"config field {name!r} must be a number, "
                                f"got {type(value).__name__}")
        else:
            value = float(value)
        values[name] = value
    return DisassemblerConfig(**values)


def config_fingerprint(overrides: dict[str, Any] | None) -> str:
    """Stable digest of the *effective* config for cache keying.

    Computed over the full resolved config (defaults included), so two
    override dicts that resolve to the same effective config share one
    fingerprint, and a default-config request keys identically to an
    empty override dict.
    """
    config = config_from_overrides(overrides)
    return stable_digest({"protocol": PROTOCOL_VERSION,
                          **dataclasses.asdict(config)})


# ----------------------------------------------------------------------
# Body parsing
# ----------------------------------------------------------------------

def decode_binary_field(body: dict[str, Any]) -> bytes:
    """Extract and base64-decode the ``binary_b64`` request field."""
    encoded = body.get("binary_b64")
    if not isinstance(encoded, str) or not encoded:
        raise ProtocolError("missing or non-string 'binary_b64' field")
    try:
        return base64.b64decode(encoded, validate=True)
    except (binascii.Error, ValueError) as error:
        raise ProtocolError(f"bad base64 in 'binary_b64': {error}") \
            from error


def encode_binary(blob: bytes) -> str:
    """The client-side counterpart of :func:`decode_binary_field`."""
    return base64.b64encode(blob).decode("ascii")


@dataclass
class ParsedRequest:
    """A validated ``/v1/*`` request body."""

    blob: bytes
    config_overrides: dict[str, Any] | None
    lint_disable: tuple[str, ...] = ()
    timeout_ms: int | None = None
    #: Declared container format ("auto" = detect by magic bytes).
    format: str = "auto"
    #: Fingerprint of a previous response for incremental reuse (v3).
    base: str = ""
    extras: dict[str, Any] = field(default_factory=dict)


def parse_job_body(body: Any, kind: str) -> ParsedRequest:
    """Validate a request body for ``POST /v1/disassemble`` or ``/v1/lint``."""
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    blob = decode_binary_field(body)
    fmt = body.get("format", "auto")
    if fmt not in FORMAT_NAMES:
        raise ProtocolError(
            f"unknown format {fmt!r} (expected one of "
            f"{', '.join(FORMAT_NAMES)})")
    overrides = body.get("config")
    if overrides is not None and not isinstance(overrides, dict):
        raise ProtocolError("'config' must be a JSON object")
    config_from_overrides(overrides)        # validate field names early
    timeout_ms = body.get("timeout_ms")
    if timeout_ms is not None:
        if not isinstance(timeout_ms, int) or timeout_ms <= 0:
            raise ProtocolError("'timeout_ms' must be a positive integer")
    disable: tuple[str, ...] = ()
    if kind == "lint":
        raw = body.get("disable", [])
        if not isinstance(raw, list) or \
                not all(isinstance(r, str) for r in raw):
            raise ProtocolError("'disable' must be a list of rule ids")
        disable = tuple(raw)
    base = ""
    if kind == "disassemble":
        raw_base = body.get("base", "")
        if not isinstance(raw_base, str):
            raise ProtocolError("'base' must be a string fingerprint")
        if raw_base:
            if len(raw_base) != 64 or \
                    any(c not in "0123456789abcdef" for c in raw_base):
                raise ProtocolError(
                    "'base' must be a 64-character lowercase hex "
                    "fingerprint from a previous response")
            base = raw_base
    return ParsedRequest(blob=blob, config_overrides=overrides,
                         lint_disable=disable, timeout_ms=timeout_ms,
                         format=fmt, base=base)
