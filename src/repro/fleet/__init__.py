"""Corpus-scale oracle-free evaluation fleet (``repro evalfleet``).

Turns the per-binary lint / differential / ground-truth machinery into
continuous QA at corpus scale: a reproducible manifest of thousands of
binaries (:mod:`repro.fleet.manifest`), a fault-tolerant checkpointing
driver over worker pools or a live serve tier
(:mod:`repro.fleet.driver`), a per-binary analysis stage
(:mod:`repro.fleet.analysis`), a shared error taxonomy every signal
maps onto (:mod:`repro.fleet.taxonomy`), and an aggregator emitting a
deterministic trend document plus Prometheus-scrapeable ``fleet_*``
metrics (:mod:`repro.fleet.aggregate`).  The trend is gated across
revisions by the run-record store (``repro obs diff``), not here.
"""

from .aggregate import (TREND_SCHEMA, aggregate, check_separation,
                        publish_metrics, render_report, trend_json,
                        write_trend)
from .analysis import ALL_TOOLS, BASELINES, CORRECTED, analyze_item
from .driver import (DEFAULT_SHARD_SIZE, SHARD_SCHEMA, FleetConfig,
                     load_run_reports, run_fleet)
from .manifest import (MANIFEST_SCHEMA, FleetItem, Manifest,
                       ingest_directory, parse_seed_range, plan_grid)
from .taxonomy import (ALL_CLASSES, EXPECTED_SEPARATIONS,
                       LINT_RULE_TAXONOMY, ErrorClass, taxonomy_of)

__all__ = [
    "ALL_CLASSES",
    "ALL_TOOLS",
    "BASELINES",
    "CORRECTED",
    "DEFAULT_SHARD_SIZE",
    "EXPECTED_SEPARATIONS",
    "ErrorClass",
    "FleetConfig",
    "FleetItem",
    "LINT_RULE_TAXONOMY",
    "MANIFEST_SCHEMA",
    "Manifest",
    "SHARD_SCHEMA",
    "TREND_SCHEMA",
    "aggregate",
    "analyze_item",
    "check_separation",
    "ingest_directory",
    "load_run_reports",
    "parse_seed_range",
    "plan_grid",
    "publish_metrics",
    "render_report",
    "run_fleet",
    "taxonomy_of",
    "trend_json",
    "write_trend",
]
