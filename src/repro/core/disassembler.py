"""The public disassembler: statistical + behavioral + prioritized correction.

:class:`Disassembler` is the library's primary API.  Given a stripped
binary (or raw text bytes), it produces a
:class:`~repro.result.DisassemblyResult` containing accepted
instructions, data regions, and function entries:

>>> from repro import Disassembler
>>> result = Disassembler().disassemble(binary)        # doctest: +SKIP
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from ..analysis.behavior import BehaviorAnalyzer
from ..analysis.idioms import (PROLOGUE_THRESHOLD, likely_function_starts,
                               prologue_score)
from ..binary.container import Binary
from ..binary.image import MemoryImage
from ..binary.loader import TestCase
from ..obs.provenance import ProvenanceLog
from ..obs.trace import current_tracer, phase_span
from ..result import DisassemblyResult
from ..stats.datamodel import TableCandidate, find_jump_tables
from ..stats.scoring import StatisticalScorer
from ..stats.training import Models, default_models
from ..superset.superset import Superset, cached_superset
from .config import DEFAULT_CONFIG, DisassemblerConfig
from .engine import FactEngine, FactExport
from .functions import identify_functions

#: Minimum mean candidate score for a detected table's targets; tables
#: whose targets do not look like code are treated as spurious.
TARGET_SCORE_BAR = -1.0


@dataclass
class Disassembly:
    """Rich output: the result plus the intermediate state (for tooling)."""

    result: DisassemblyResult
    superset: Superset
    scores: np.ndarray
    tables: list[TableCandidate]
    log: list[str]
    noreturn_entries: set[int]
    resolved_tables: list = field(default_factory=list)   # engine's ResolvedTables
    #: Phase name -> wall-clock seconds, in pipeline order.
    timings: dict[str, float] = field(default_factory=dict)
    #: Per-byte decision audit trail; None unless the run was made with
    #: ``DisassemblerConfig.record_provenance`` (see ``repro explain``).
    provenance: ProvenanceLog | None = None
    #: Raw statistical and behavioral score components (None when the
    #: config disables them).  Kept so incremental re-disassembly
    #: (:mod:`repro.core.engine.incremental`) can rescore only dirty
    #: offsets and recombine bit-identically.
    stat_scores: np.ndarray | None = None
    behavior_scores: np.ndarray | None = None
    #: Aligned prologue-idiom scan fed to the engine (kept for the
    #: same incremental-reuse reason as the score components).
    prologues: list[int] | None = None
    #: Derived region facts (why each region holds its classification),
    #: set by every run; read by ``repro lint`` and ``repro rewrite``.
    facts: FactExport | None = None


class Disassembler:
    """Metadata-free disassembler for complex x86-64 binaries.

    Args:
        models: trained statistical models; defaults to models trained on
            the standard training corpus (cached process-wide).
        config: algorithm knobs (see :class:`DisassemblerConfig`).
    """

    def __init__(self, models: Models | None = None,
                 config: DisassemblerConfig = DEFAULT_CONFIG) -> None:
        self.models = models if models is not None else default_models()
        self.config = config
        self._scorer = StatisticalScorer(self.models.code, self.models.data)
        self._analyzer = BehaviorAnalyzer()

    # ------------------------------------------------------------------

    def disassemble(self, target: Binary | TestCase | bytes,
                    entry: int | None = None) -> DisassemblyResult:
        """Disassemble and return the result only."""
        return self.disassemble_rich(target, entry=entry).result

    def disassemble_rich(self, target: Binary | TestCase | bytes,
                         entry: int | None = None, *,
                         timings: dict[str, float] | None = None
                         ) -> Disassembly:
        """Disassemble and return the result plus intermediate state.

        ``timings`` lets a caller accumulate phase seconds across many
        runs into one dict (the serving layer sums a batch's worker
        timings this way); by default each run gets a fresh dict.
        """
        text, entry, image = _extract(target, entry)
        config = self.config
        timings = timings if timings is not None else {}
        provenance = ProvenanceLog() if config.record_provenance else None

        with ExitStack() as stack:
            tracer = current_tracer()
            if tracer is not None:
                stack.enter_context(tracer.span("disassemble",
                                                bytes=len(text),
                                                entry=entry))

            with phase_span("superset", timings):
                superset = cached_superset(text)
            with phase_span("behavior", timings):
                behavior = (self._analyzer.score_all(superset)
                            if config.use_behavior else None)
            with phase_span("scoring", timings):
                stat = (self._scorer.score_all(superset)
                        if config.use_statistics else None)
                scores = combine_scores(config, superset, stat, behavior)
            return self._correct(text, entry, image, superset, stat,
                                 behavior, scores, timings, provenance)

    def _correct(self, text: bytes, entry: int, image: MemoryImage,
                 superset: Superset, stat: np.ndarray | None,
                 behavior: np.ndarray | None, scores: np.ndarray,
                 timings: dict[str, float],
                 provenance: ProvenanceLog | None, *,
                 prologues: list[int] | None = None) -> Disassembly:
        """The correction tail shared by cold and incremental runs.

        Everything from here on consumes only the already-computed
        superset and score vectors, so incremental re-disassembly
        (:mod:`repro.core.engine.incremental`) patches those and then
        re-enters here for a bit-identical fixpoint.  ``prologues``
        (the aligned prologue-idiom scan, another pure function of a
        bounded byte window) may likewise be supplied pre-patched.
        """
        config = self.config
        engine = FactEngine(superset, scores, config, image=image,
                            behavior_scores=behavior,
                            provenance=provenance)

        # Structural phase: detected tables are data, their targets
        # code.  Statistical detection is strong but not proof (a
        # literal pool can mimic a table), so its targets carry
        # STRUCTURAL priority: genuinely traced code (ANCHOR) may
        # override them, while dataflow-resolved tables found during
        # tracing stay ANCHOR.  The entry point (anchor) and aligned
        # prologues (idiom) ride in through the same ingestion step.
        with phase_span("tables", timings):
            tables = self._validated_tables(superset, scores)
            if prologues is None:
                prologues = likely_function_starts(superset)
            engine.ingest(tables,
                          entry if 0 <= entry < len(text) else None,
                          prologues)

        with phase_span("correction", timings):
            engine.solve()
        with phase_span("gaps", timings):
            engine.finish()

        with phase_span("functions", timings):
            result = self._finalize(engine, superset, tables, entry)

        # Optional oracle-free feedback round: lint our own claim and
        # feed actionable diagnostics back as structural evidence.
        if config.use_lint_feedback:
            with phase_span("lint-feedback", timings):
                result = self._lint_refine(engine, superset, tables,
                                           entry, result)

        return Disassembly(result=result, superset=superset, scores=scores,
                           tables=tables, log=engine.log,
                           noreturn_entries=set(engine.noreturn_entries),
                           resolved_tables=list(engine.resolved_tables),
                           timings=timings, provenance=provenance,
                           stat_scores=stat, behavior_scores=behavior,
                           prologues=prologues, facts=engine.facts())

    # ------------------------------------------------------------------

    def _finalize(self, engine, superset: Superset,
                  tables: list[TableCandidate],
                  entry: int) -> DisassemblyResult:
        """Build a :class:`DisassemblyResult` from the engine's state."""
        state = engine.state
        starts = state.instruction_starts()
        lengths = superset.columns.length.tobytes()
        instructions = {offset: lengths[offset] for offset in starts}
        # Resolved pointer tables point at functions by construction;
        # statistically detected 8-byte tables may be jump *or* pointer
        # tables, so their targets must additionally look like openings.
        pointer_targets = frozenset(
            t for table in engine.resolved_tables for t in table.targets
            if table.kind == "pointer")
        pointer_targets |= frozenset(
            t for table in tables for t in table.targets
            if table.entry_size == 8
            and prologue_score(superset, t) >= PROLOGUE_THRESHOLD)
        functions = identify_functions(
            superset, starts, entry,
            pointer_table_targets=pointer_targets)
        return DisassemblyResult(
            tool="repro",
            instructions=instructions,
            data_regions=state.data_regions(),
            function_entries={span.entry for span in functions},
        )

    def _lint_refine(self, engine, superset: Superset,
                     tables: list[TableCandidate], entry: int,
                     result: DisassemblyResult) -> DisassemblyResult:
        """One oracle-free feedback round.

        Lints the first-pass result and converts actionable diagnostics
        (regions shaped like data accepted as code, branch targets that
        must be code) into structural claims for the correction engine,
        then rebuilds the result.  The engine's priority rules still
        apply: lint claims cannot displace anchored traces.
        """
        # Imported lazily: repro.lint imports core types, so a module-
        # level import here would create a cycle through core.__init__.
        from ..lint import diagnostics_to_evidence, lint_disassembly
        report = lint_disassembly(result, superset,
                                  provenance=engine.provenance)
        claims = diagnostics_to_evidence(report)
        engine.log.append(f"lint-feedback: {len(report.diagnostics)} "
                          f"diagnostics, {len(claims)} actionable")
        if not claims:
            return result
        engine.feedback(claims)
        return self._finalize(engine, superset, tables, entry)

    def _validated_tables(self, superset: Superset,
                          scores: np.ndarray) -> list[TableCandidate]:
        """Detected tables whose targets actually look like code."""
        tables = find_jump_tables(superset.text,
                                  is_plausible_target=superset.is_valid)
        # The superset's own scan (same section, same predicate): a lint
        # over this superset reads it rather than scanning again.
        superset.table_candidates = tables
        validated = []
        for table in tables:
            target_scores = [float(scores[t]) for t in table.targets]
            if np.mean(target_scores) >= TARGET_SCORE_BAR:
                validated.append(table)
        return validated


def combine_scores(config: DisassemblerConfig, superset: Superset,
                   stat: np.ndarray | None,
                   behavior: np.ndarray | None) -> np.ndarray:
    """Mix the statistical and behavioral components into one vector.

    A module-level function (not a method) so incremental
    re-disassembly recombines patched component arrays through the
    exact same floating-point expression as a cold run.
    """
    scores = np.zeros(len(superset))
    if config.use_statistics and stat is not None:
        scores += stat
    if config.use_behavior and behavior is not None:
        scores += behavior
    if not config.use_statistics and not config.use_behavior:
        # Degenerate configuration: fall back to "decodes at all".
        scores[superset.valid_offsets] = 0.1
    return scores


def _extract(target: Binary | TestCase | bytes,
             entry: int | None) -> tuple[bytes, int, MemoryImage]:
    if isinstance(target, TestCase):
        binary = target.binary
        text = target.text
        default_entry = binary.entry - binary.text.addr
        image = MemoryImage.from_binary(binary)
    elif isinstance(target, Binary):
        section = target.text
        text = section.data
        default_entry = target.entry - section.addr
        image = MemoryImage.from_binary(target)
    elif isinstance(target, (bytes, bytearray)):
        text = bytes(target)
        default_entry = 0
        image = MemoryImage.from_text(text)
    else:
        raise TypeError(f"cannot disassemble {type(target).__name__}")
    return text, entry if entry is not None else default_entry, image
