"""Correction-path benchmark: incremental re-disassembly vs cold runs.

Times the near-hit workflow the fact engine enables: disassemble a
binary once, snapshot its :class:`~repro.core.FactBase`, patch a
handful of bytes, and re-disassemble.  The incremental path re-decodes
and re-scores only the offsets whose support windows touch the patch
(a few hundred of tens of thousands) and re-enters the correction
fixpoint; the cold path repeats every phase.  Two gates:

* **Equivalence**: the incremental result is byte-identical to the
  cold result over the patched bytes -- corpus-wide, per patch.
* **Speedup**: the incremental re-disassembly beats the cold one by at
  least ``--threshold`` (default 3x) end to end.

Per-path times are best-of ``--repeats`` with paths interleaved, so
machine drift hits both equally.  Results are written to
``benchmarks/results/BENCH_correct.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_correct.py
    PYTHONPATH=src python benchmarks/bench_correct.py --repeats 5 \\
        --json benchmarks/results/BENCH_correct.json
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import (Disassembler, FactBase,              # noqa: E402
                        disassemble_incremental)
from repro.eval.dataset import evaluation_corpus             # noqa: E402
from repro.perf import bench_envelope, write_bench_json       # noqa: E402

DEFAULT_JSON = REPO_ROOT / "benchmarks" / "results" / "BENCH_correct.json"


def patch_binary(binary, offset: int):
    """The binary with one text byte flipped at ``offset``."""
    text = bytearray(binary.text.data)
    text[offset] ^= 0x55
    new_text = dataclasses.replace(binary.text, data=bytes(text))
    sections = tuple(new_text if s is binary.text else s
                     for s in binary.sections)
    return dataclasses.replace(binary, sections=sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--functions", type=int, default=40,
                        help="functions per generated binary")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved rounds per path (best-of)")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="minimum incremental-over-cold speedup, x")
    parser.add_argument("--json", metavar="PATH", default=str(DEFAULT_JSON),
                        help="write results as a BENCH_*.json artifact")
    args = parser.parse_args(argv)

    corpus = evaluation_corpus(seeds=(0,), function_count=args.functions)
    disassembler = Disassembler()

    # One cold run per case builds the snapshots (and warms every
    # model/decoder cache so the timed rounds measure steady state).
    snapshots = []
    for case in corpus:
        rich = disassembler.disassemble_rich(case)
        base = FactBase.from_run(rich, disassembler.config)
        # Patch near the end of the text: the dirty window stays small
        # but the fall-through context above it is maximal.
        target = patch_binary(case.binary, len(case.text) - 40)
        snapshots.append((case, base, target))
    total_bytes = sum(len(case.text) for case, _, _ in snapshots)
    print(f"corpus: {len(snapshots)} binaries, {total_bytes} bytes "
          f"({args.functions} functions each), 1-byte patch each")

    # Equivalence gate first: the speedup is worthless if the outputs
    # ever diverge.
    reused = []
    for case, base, target in snapshots:
        incremental, stats = disassemble_incremental(disassembler, base,
                                                     target)
        cold = disassembler.disassemble_rich(target)
        assert not stats.cold, f"{case.name}: unexpected cold fallback"
        assert incremental.result.to_json() == cold.result.to_json(), (
            f"incremental/cold divergence on {case.name}")
        reused.append(stats.reused_fraction)
    print(f"equivalence: {len(snapshots)} patched binaries identical "
          f"(mean superset reuse {sum(reused) / len(reused):.1%})")

    def time_cold() -> float:
        gc.collect()
        started = time.process_time()
        for _, _, target in snapshots:
            disassembler.disassemble_rich(target)
        return time.process_time() - started

    def time_incremental() -> float:
        gc.collect()
        started = time.process_time()
        for _, base, target in snapshots:
            disassemble_incremental(disassembler, base, target)
        return time.process_time() - started

    best = {"cold": float("inf"), "incremental": float("inf")}
    for _ in range(args.repeats):
        best["cold"] = min(best["cold"], time_cold())
        best["incremental"] = min(best["incremental"], time_incremental())

    speedup = best["cold"] / best["incremental"]
    for name, seconds in best.items():
        print(f"{name:>12}: {seconds:.3f}s  "
              f"{seconds / len(snapshots) * 1000:.1f}ms/binary")
    print(f"speedup: {speedup:.2f}x (gate: >= {args.threshold:.1f}x)")

    if args.json:
        write_bench_json(args.json, bench_envelope(
            "correct",
            config={"binaries": len(snapshots), "bytes": total_bytes,
                    "functions": args.functions, "seeds": [0],
                    "repeats": args.repeats},
            metrics={
                "seconds": best,
                "ms_per_binary": {
                    name: round(v / len(snapshots) * 1000, 2)
                    for name, v in best.items()},
                "mean_reused_fraction": round(
                    sum(reused) / len(reused), 4),
                "speedup": round(speedup, 2),
                "results_identical": 1,
            },
        ))
        print(f"wrote {args.json}")

    if speedup < args.threshold:
        print(f"error: speedup {speedup:.2f}x below the "
              f"{args.threshold:.1f}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
