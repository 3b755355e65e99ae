"""Experiment runners: one function per table/figure of the evaluation.

Each ``run_*`` function regenerates the corresponding table or figure of
the paper's evaluation (as indexed in DESIGN.md) and returns a
:class:`~repro.eval.report.Table`; the module is runnable::

    python -m repro.eval.experiments t2             # one experiment
    python -m repro.eval.experiments all            # everything
    python -m repro.eval.experiments t2 --jobs 4    # parallel workers
    python -m repro.eval.experiments all --jobs 0 --bench-json out.json

Every runner takes a ``jobs`` keyword and fans (tool, binary) work out
through :mod:`repro.eval.parallel`; results are deterministic, so a
parallel table is byte-identical to a serial one.  T1 (pure metadata),
F3 (measures serial wall-clock by design) and V1's emulation loop stay
single-process.

The benchmark suite under ``benchmarks/`` wraps these same runners.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..baselines import (heuristic_descent, linear_sweep,
                         probabilistic_disassembly)
from ..binary.loader import TestCase
from ..core.config import ABLATION_CONFIGS, DisassemblerConfig
from ..core.disassembler import Disassembler
from ..perf import bench_envelope, write_bench_json
from ..synth.corpus import BinarySpec, density_style, generate_binary
from ..synth.styles import MSVC_LIKE, STYLES
from .dataset import EVAL_SEEDS, characteristics, evaluation_corpus
from .parallel import (ToolSpec, baseline_spec, effective_jobs,
                       evaluate_tools, predict_pairs, repro_spec)
from .report import Table

#: Baseline tools compared in every accuracy experiment, in canonical
#: table order.
BASELINE_SPECS = tuple(baseline_spec(name) for name in (
    "linear-sweep", "recursive-descent", "rd-heuristic", "probabilistic"))


def _all_tool_specs() -> list[ToolSpec]:
    return [*BASELINE_SPECS, repro_spec()]


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

def run_t1(cases: tuple[TestCase, ...] | None = None, *,
           jobs: int | None = None) -> Table:
    """T1: dataset characteristics (metadata only; ``jobs`` unused)."""
    del jobs
    cases = cases or evaluation_corpus()
    table = Table(
        title="T1: Evaluation dataset characteristics",
        columns=["binary", "text_bytes", "code_bytes", "data_bytes",
                 "data_pct", "functions", "jump_tables", "instructions"],
    )
    for case in cases:
        stats = characteristics(case)
        table.add(binary=stats.name, text_bytes=stats.text_bytes,
                  code_bytes=stats.code_bytes, data_bytes=stats.data_bytes,
                  data_pct=stats.embedded_data_percent,
                  functions=stats.functions,
                  jump_tables=stats.jump_tables,
                  instructions=stats.instructions)
    return table


def run_t2(cases: tuple[TestCase, ...] | None = None, *,
           jobs: int | None = None) -> Table:
    """T2: instruction-level accuracy of every tool."""
    cases = cases or evaluation_corpus()
    table = Table(
        title="T2: Instruction-level accuracy (pooled over corpus)",
        columns=["tool", "precision", "recall", "f1"],
    )
    for name, ev in evaluate_tools(_all_tool_specs(), cases,
                                   jobs=jobs).items():
        table.add(tool=name, precision=ev.instructions.precision,
                  recall=ev.instructions.recall, f1=ev.instructions.f1)
    return table


def run_t3(cases: tuple[TestCase, ...] | None = None, *,
           jobs: int | None = None) -> Table:
    """T3: byte-level error counts and the headline improvement factor."""
    cases = cases or evaluation_corpus()
    table = Table(
        title="T3: Byte-level errors (false-code + missed-code)",
        columns=["tool", "false_code", "missed_code", "total_errors",
                 "error_rate"],
    )
    totals = {}
    for name, ev in evaluate_tools(_all_tool_specs(), cases,
                                   jobs=jobs).items():
        totals[name] = ev.bytes.total_errors
        table.add(tool=name, false_code=ev.bytes.false_code,
                  missed_code=ev.bytes.missed_code,
                  total_errors=ev.bytes.total_errors,
                  error_rate=ev.bytes.error_rate)
    ours = totals["repro (this paper)"]
    best_baseline = min(v for k, v in totals.items()
                        if k != "repro (this paper)")
    factor = best_baseline / ours if ours else float("inf")
    table.notes.append(
        f"improvement over best baseline: {factor:.1f}x "
        f"(paper reports 3x-4x vs best prior work)")
    return table


def run_t4(cases: tuple[TestCase, ...] | None = None, *,
           jobs: int | None = None) -> Table:
    """T4: ablation of the three main components."""
    cases = cases or evaluation_corpus()
    table = Table(
        title="T4: Ablation study",
        columns=["variant", "precision", "recall", "f1", "total_errors"],
    )
    specs = [repro_spec(variant, config)
             for variant, config in ABLATION_CONFIGS.items()]
    for variant, ev in evaluate_tools(specs, cases, jobs=jobs).items():
        table.add(variant=variant, precision=ev.instructions.precision,
                  recall=ev.instructions.recall, f1=ev.instructions.f1,
                  total_errors=ev.bytes.total_errors)
    return table


def run_t5(cases: tuple[TestCase, ...] | None = None, *,
           jobs: int | None = None) -> Table:
    """T5: function-boundary identification."""
    cases = cases or evaluation_corpus()
    table = Table(
        title="T5: Function-entry identification",
        columns=["tool", "precision", "recall", "f1"],
    )
    specs = [baseline_spec("recursive-descent"),
             baseline_spec("rd-heuristic"), repro_spec()]
    for name, ev in evaluate_tools(specs, cases, jobs=jobs).items():
        table.add(tool=name, precision=ev.functions.precision,
                  recall=ev.functions.recall, f1=ev.functions.f1)
    return table


# ----------------------------------------------------------------------
# Figures (series data printed as tables)
# ----------------------------------------------------------------------

def run_f1(densities: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4),
           seeds: tuple[int, ...] = (0, 1),
           function_count: int = 40, *,
           jobs: int | None = None) -> Table:
    """F1: accuracy vs embedded-data density."""
    table = Table(
        title="F1: F1-score vs embedded-data density (msvc-like base)",
        columns=["density", "data_pct", "repro", "linear-sweep",
                 "rd-heuristic", "probabilistic"],
    )
    specs = [repro_spec("repro"), baseline_spec("linear-sweep"),
             baseline_spec("rd-heuristic"), baseline_spec("probabilistic")]
    for density in densities:
        style = density_style(MSVC_LIKE, density)
        cases = tuple(
            generate_binary(BinarySpec(name=f"d{density}-s{seed}",
                                       style=style,
                                       function_count=function_count,
                                       seed=seed))
            for seed in seeds)
        data_pct = sum(c.truth.data_bytes for c in cases) / max(
            sum(c.truth.code_bytes + c.truth.data_bytes for c in cases), 1)
        row = {"density": density, "data_pct": 100.0 * data_pct}
        for name, ev in evaluate_tools(specs, cases, jobs=jobs).items():
            row[name] = ev.instructions.f1
        table.add(**row)
    return table


def run_f2(seeds: tuple[int, ...] = EVAL_SEEDS,
           function_count: int = 50, *,
           jobs: int | None = None) -> Table:
    """F2: accuracy per compiler style."""
    table = Table(
        title="F2: F1-score per compiler style",
        columns=["style", "repro", "linear-sweep", "recursive-descent",
                 "rd-heuristic", "probabilistic"],
    )
    specs = [repro_spec("repro"), *BASELINE_SPECS]
    for style_name in sorted(STYLES):
        cases = tuple(
            generate_binary(BinarySpec(name=f"{style_name}-s{seed}",
                                       style=STYLES[style_name],
                                       function_count=function_count,
                                       seed=seed))
            for seed in seeds)
        row = {"style": style_name}
        for name, ev in evaluate_tools(specs, cases, jobs=jobs).items():
            row[name] = ev.instructions.f1
        table.add(**row)
    return table


def run_f3(function_counts: tuple[int, ...] = (10, 20, 40, 80),
           seed: int = 0, *, jobs: int | None = None) -> Table:
    """F3: disassembly runtime vs binary size.

    Runtime is the quantity under measurement, so each tool runs
    single-process regardless of ``jobs``.
    """
    del jobs
    table = Table(
        title="F3: Runtime vs binary size (seconds; msvc-like)",
        columns=["functions", "text_bytes", "repro", "linear-sweep",
                 "rd-heuristic", "probabilistic"],
    )
    disassembler = Disassembler()
    for count in function_counts:
        case = generate_binary(BinarySpec(name=f"scale-{count}",
                                          style=MSVC_LIKE,
                                          function_count=count, seed=seed))
        row = {"functions": count, "text_bytes": len(case.text)}
        timers = {
            "repro": lambda c=case: disassembler.disassemble(c),
            "linear-sweep": lambda c=case: linear_sweep(c.text),
            "rd-heuristic": lambda c=case: heuristic_descent(c.text, 0),
            "probabilistic": lambda c=case: probabilistic_disassembly(
                c.text, 0),
        }
        for name, thunk in timers.items():
            start = time.perf_counter()
            thunk()
            row[name] = time.perf_counter() - start
        table.add(**row)
    return table


def run_f4(thresholds: tuple[float, ...] = (-2.0, -1.0, -0.5, 0.0,
                                            0.5, 1.0, 2.0),
           seeds: tuple[int, ...] = (0, 1),
           function_count: int = 40, *,
           jobs: int | None = None) -> Table:
    """F4: sensitivity to the gap-acceptance threshold."""
    cases = tuple(
        generate_binary(BinarySpec(name=f"thr-s{seed}", style=MSVC_LIKE,
                                   function_count=function_count, seed=seed))
        for seed in seeds)
    table = Table(
        title="F4: Sensitivity to code_threshold",
        columns=["threshold", "precision", "recall", "f1", "total_errors"],
    )
    specs = [repro_spec(f"thr={threshold}",
                        DisassemblerConfig(code_threshold=threshold))
             for threshold in thresholds]
    results = evaluate_tools(specs, cases, jobs=jobs)
    for threshold in thresholds:
        ev = results[f"thr={threshold}"]
        table.add(threshold=threshold, precision=ev.instructions.precision,
                  recall=ev.instructions.recall, f1=ev.instructions.f1,
                  total_errors=ev.bytes.total_errors)
    return table


def run_v1(cases: tuple[TestCase, ...] | None = None, *,
           entries_per_case: int = 12,
           max_steps: int = 60_000,
           jobs: int | None = None) -> Table:
    """V1: dynamic validation -- emulate binaries, check predictions.

    Every instruction the emulator actually executes must appear in a
    perfect disassembly; "missed" counts executed-but-unpredicted
    instructions per tool (dynamic recall gaps no static metric can
    hide).  Predictions fan out in parallel; the emulation loop, which
    cross-checks ground truth in-process, stays serial.
    """
    from ..emulator import Emulator

    cases = cases or evaluation_corpus()
    table = Table(
        title="V1: Dynamic validation (executed instructions predicted)",
        columns=["tool", "executed", "covered", "missed"],
    )
    executed_per_case: list[set[int]] = []
    for case in cases:
        executed: set[int] = set()
        for entry in sorted(case.truth.function_entries)[:entries_per_case]:
            run = Emulator(case).run(entry, max_steps=max_steps)
            executed |= run.executed_set
        assert not executed - case.truth.instruction_starts, (
            f"{case.name}: emulator escaped ground truth")
        executed_per_case.append(executed)

    specs = _all_tool_specs()
    pairs = [(spec, case) for spec in specs for case in cases]
    predictions = predict_pairs(pairs, jobs=jobs)
    total_executed = sum(len(e) for e in executed_per_case)
    for index, spec in enumerate(specs):
        chunk = predictions[index * len(cases):(index + 1) * len(cases)]
        covered = sum(len(executed & predicted.instruction_starts)
                      for executed, predicted in zip(executed_per_case,
                                                     chunk))
        table.add(tool=spec.name, executed=total_executed, covered=covered,
                  missed=total_executed - covered)
    table.notes.append(
        "every executed offset verified against ground truth first")
    return table


def run_l1(cases: tuple[TestCase, ...] | None = None, *,
           flips: int = 12, seed: int = 1,
           jobs: int | None = None) -> Table:
    """L1: oracle-free linter accuracy against injected errors.

    For every corpus binary, the ground-truth disassembly is linted
    (it must produce zero error-severity diagnostics), then corrupted
    with ``flips`` injected misclassifications and linted again.
    Recall counts injected flips overlapped by at least one ERROR
    diagnostic; precision counts ERROR diagnostics overlapping some
    flip.  Linting is cheap, so ``jobs`` is unused.
    """
    del jobs
    from ..lint.evaluation import measure_case, pool

    cases = cases or evaluation_corpus()
    table = Table(
        title="L1: Oracle-free linter accuracy (injected errors)",
        columns=["binary", "perfect_errors", "injected", "detected",
                 "recall", "error_diags", "precision"],
    )
    results = []
    for case in cases:
        accuracy = measure_case(case, flips=flips, seed=seed)
        results.append(accuracy)
        table.add(binary=accuracy.name,
                  perfect_errors=accuracy.perfect_errors,
                  injected=accuracy.injected,
                  detected=accuracy.detected,
                  recall=accuracy.recall,
                  error_diags=accuracy.error_diagnostics,
                  precision=accuracy.precision)
    pooled = pool(results)
    table.add(binary=pooled.name, perfect_errors=pooled.perfect_errors,
              injected=pooled.injected, detected=pooled.detected,
              recall=pooled.recall, error_diags=pooled.error_diagnostics,
              precision=pooled.precision)
    table.notes.append(
        f"{flips} flips per binary (seed {seed}); perfect_errors is the "
        f"soundness check: ERROR diagnostics on the ground-truth claim")
    return table


def run_r1(cases: tuple[TestCase, ...] | None = None, *,
           jobs: int | None = None) -> Table:
    """R1: real-binary round-trip fidelity (ELF64 emit + re-ingest).

    Every corpus binary is serialized as a real ELF64 executable
    (:func:`repro.formats.emit_elf`), re-ingested through the
    format-detecting loader, and disassembled.  The result must be
    *byte-identical* (as canonical JSON) to the native container
    path -- proving the ELF loader preserves text bytes, section
    addresses, and the entry point exactly.  A mismatch is a loader
    bug, so it raises rather than merely scoring low.  Disassembly is
    deterministic and the corpus is small; runs serially.
    """
    del jobs
    from ..formats import emit_elf, load_any

    cases = cases or evaluation_corpus()
    table = Table(
        title="R1: ELF64 round-trip fidelity (emit, re-ingest, compare)",
        columns=["binary", "container_bytes", "elf_bytes",
                 "text_bytes", "identical"],
    )
    disassembler = Disassembler()
    for case in cases:
        native = disassembler.disassemble(case.binary).to_json()
        elf_blob = emit_elf(case.binary)
        image = load_any(elf_blob)
        assert image.format == "elf64", image.format
        reingested = disassembler.disassemble(image.binary).to_json()
        identical = native == reingested
        assert identical, (
            f"{case.name}: ELF round-trip changed the disassembly")
        table.add(binary=case.name,
                  container_bytes=len(case.binary.to_bytes()),
                  elf_bytes=len(elf_blob),
                  text_bytes=len(image.binary.text.data),
                  identical=identical)
    table.notes.append(
        "identical = DisassemblyResult JSON byte-equal, container vs ELF")
    return table


EXPERIMENTS = {
    "t1": run_t1, "t2": run_t2, "t3": run_t3, "t4": run_t4, "t5": run_t5,
    "f1": run_f1, "f2": run_f2, "f3": run_f3, "f4": run_f4, "v1": run_v1,
    "l1": run_l1, "r1": run_r1,
}


def add_arguments(parser: argparse.ArgumentParser
                  ) -> argparse.ArgumentParser:
    """Declare the experiment arguments on ``parser``.

    The one declaration behind both entry points, ``repro experiments``
    and ``python -m repro.eval.experiments``.
    """
    parser.add_argument("ids", nargs="+",
                        help=f"experiment ids ({', '.join(EXPERIMENTS)}) "
                             f"or 'all'")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (0 = one per CPU; "
                             "default serial)")
    parser.add_argument("--bench-json", metavar="PATH", default=None,
                        help="write per-experiment wall-clock timings as "
                             "a machine-readable BENCH json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = add_arguments(argparse.ArgumentParser(
        prog="python -m repro.eval.experiments",
        description="Regenerate evaluation tables/figures."))
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:       # --help / usage errors: plain return
        return int(exc.code or 0)
    return run_experiments(args)


def run_experiments(args: argparse.Namespace) -> int:
    """Run the experiments an :func:`add_arguments` namespace names."""
    try:
        effective_jobs(args.jobs)
    except ValueError as error:
        print(f"experiments: {error}", file=sys.stderr)
        return 2
    requested = list(EXPERIMENTS) if "all" in args.ids else args.ids
    for name in requested:
        if name not in EXPERIMENTS:
            print(f"unknown experiment: {name}", file=sys.stderr)
            return 1

    elapsed_by_experiment: dict[str, float] = {}
    for name in requested:
        started = time.perf_counter()
        table = EXPERIMENTS[name](jobs=args.jobs)
        elapsed = time.perf_counter() - started
        elapsed_by_experiment[name] = elapsed
        print(table.render())
        print(f"[{name} completed in {elapsed:.1f}s]\n")

    if args.bench_json:
        payload = bench_envelope(
            "experiments",
            config={"jobs": args.jobs if args.jobs is not None else 1},
            metrics={
                "experiments": {
                    name: round(seconds, 3)
                    for name, seconds in elapsed_by_experiment.items()},
                "total_s": round(
                    sum(elapsed_by_experiment.values()), 3),
            },
        )
        path = write_bench_json(args.bench_json, payload)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
