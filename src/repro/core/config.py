"""Configuration of the prioritized disassembler.

Every knob a caller sets lives here: the ablation switches (T4), the
code threshold (F4 sweeps it), and the CLI's lint-feedback and
provenance switches.  Experiment code expresses variants as config
values rather than by monkey-patching.  A value no caller sets is a
constant of the module that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DisassemblerConfig:
    """Knobs of the prioritized error-correction disassembler.

    Attributes:
        use_statistics: include the n-gram/data-model LLR in candidate
            scoring (ablation: statistical component).
        use_behavior: include behavioral chain scores (ablation:
            behavioral component).
        use_prioritized_correction: process gap decisions through the
            priority queue (strongest evidence first, corrections
            propagate).  When False, gaps are decided in a single
            address-order pass (ablation: prioritization).
        use_table_resolution: resolve jump/pointer tables from dispatch
            idioms during tracing (ablation: structural analysis).
        code_threshold: combined score above which a gap candidate is
            accepted as code (F4 sweeps this).
        use_lint_feedback: run the oracle-free verifier
            (:mod:`repro.lint`) over the first-pass result and feed its
            actionable diagnostics back through the correction engine
            as structural evidence.  Off by default so published
            evaluation tables are unchanged.
        record_provenance: record a per-byte decision audit trail
            (:class:`repro.obs.ProvenanceLog`) during correction,
            surfaced by ``repro explain``.  Strictly observational --
            results are identical either way -- but off by default
            because the trail grows with decision count (overhead
            budget measured in ``benchmarks/bench_obs.py``).

    Fixed parameters are not here: ``CHAIN_WINDOW`` is in
    :mod:`repro.superset.superset`, ``FUNCTION_ALIGNMENT`` in
    :mod:`repro.analysis.idioms`, and the correction budgets in
    :mod:`repro.core.engine.rules`.
    """

    use_statistics: bool = True
    use_behavior: bool = True
    use_prioritized_correction: bool = True
    use_table_resolution: bool = True
    use_lint_feedback: bool = False
    record_provenance: bool = False
    code_threshold: float = 0.0


DEFAULT_CONFIG = DisassemblerConfig()

#: Ablation variants evaluated by experiment T4.
ABLATION_CONFIGS: dict[str, DisassemblerConfig] = {
    "full": DEFAULT_CONFIG,
    "stat-only": DisassemblerConfig(use_behavior=False),
    "behavior-only": DisassemblerConfig(use_statistics=False),
    "no-priority": DisassemblerConfig(use_prioritized_correction=False),
    "no-table-resolution": DisassemblerConfig(use_table_resolution=False),
    # Prioritization shows its value when structural anchors are scarce:
    # without resolved tables, soft evidence must carry the whole load.
    "no-priority+no-tables": DisassemblerConfig(
        use_prioritized_correction=False, use_table_resolution=False),
}
