"""Decode hot-path benchmark: compiled engine vs. interpretive oracle.

Superset construction (the ``superset`` phase of the disassembly
pipeline, and the dominant cost of ``bench_t2_accuracy``'s corpus
evaluation) decodes a candidate at every byte offset.  This benchmark
times exactly that phase -- ``Superset.build`` over the t2 benchmark
corpus -- under both decoder backends and reports the compiled-over-
interpreted speedup.

* **Equivalence** is checked here and fails the script: the compiled
  engine's superset output must be identical to the interpretive
  oracle's, candidate by candidate, corpus-wide.
* **Speedup** is only measured here.  Its bound (``decode-speedup``,
  >= 5x) lives in ``benchmarks/slo.toml`` and is enforced by
  ``repro obs gate`` once the JSON artifact is recorded.

Per-backend times are best-of ``--repeats`` with backends interleaved,
so machine drift hits both equally.  Results (including bytes/sec
throughput for the perf trajectory of future PRs) are written to
``benchmarks/results/BENCH_decode.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_decode.py
    PYTHONPATH=src python benchmarks/bench_decode.py --repeats 7 \\
        --json benchmarks/results/BENCH_decode.json
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.eval.dataset import evaluation_corpus         # noqa: E402
from repro.isa.decoder import (decoder_backend,          # noqa: E402
                               try_decode, try_decode_interp)
from repro.perf import bench_envelope, write_bench_json   # noqa: E402
from repro.superset import superset as superset_mod      # noqa: E402
from repro.superset.superset import Superset             # noqa: E402

DEFAULT_JSON = REPO_ROOT / "benchmarks" / "results" / "BENCH_decode.json"

BACKENDS = {"compiled": try_decode, "interp": try_decode_interp}


def build_all(texts: list[bytes], decode) -> list[Superset]:
    superset_mod.try_decode = decode
    try:
        return [Superset.build(text) for text in texts]
    finally:
        superset_mod.try_decode = try_decode


def time_build(texts: list[bytes], decode) -> float:
    gc.collect()
    superset_mod.try_decode = decode
    try:
        started = time.process_time()
        for text in texts:
            Superset.build(text)
        return time.process_time() - started
    finally:
        superset_mod.try_decode = try_decode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--functions", type=int, default=40,
                        help="functions per generated binary")
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved rounds per backend (best-of)")
    parser.add_argument("--json", metavar="PATH", default=str(DEFAULT_JSON),
                        help="write results as a BENCH_*.json artifact")
    args = parser.parse_args(argv)

    if decoder_backend() != "compiled":
        print("error: run without REPRO_DECODER=interp -- the benchmark "
              "switches backends itself", file=sys.stderr)
        return 2

    corpus = evaluation_corpus(seeds=(0,), function_count=args.functions)
    texts = [bytes(case.text) for case in corpus]
    total_bytes = sum(len(text) for text in texts)
    print(f"corpus: {len(texts)} sections, {total_bytes} bytes "
          f"({args.functions} functions each)")

    # Timing first, on a clean heap: the corpus-wide equivalence check
    # allocates millions of candidate objects, and the resulting
    # allocator fragmentation measurably slows every later decode.
    for decode in BACKENDS.values():                     # warm caches
        build_all(texts[:1], decode)
    best = {name: float("inf") for name in BACKENDS}
    for _ in range(args.repeats):
        for name, decode in BACKENDS.items():
            best[name] = min(best[name], time_build(texts, decode))

    # Equivalence gate: the speedup is worthless if the outputs ever
    # diverge.  Compare candidate lists, not summaries.
    compiled_out = build_all(texts, BACKENDS["compiled"])
    interp_out = build_all(texts, BACKENDS["interp"])
    for index, (a, b) in enumerate(zip(compiled_out, interp_out)):
        assert a.instructions == b.instructions, (
            f"superset mismatch in section {index}")
    print(f"equivalence: {total_bytes} candidates identical "
          "across backends")

    speedup = best["interp"] / best["compiled"]
    throughput = {name: total_bytes / seconds
                  for name, seconds in best.items()}
    for name in BACKENDS:
        print(f"{name:>8}: {best[name]:.3f}s  "
              f"{best[name] / total_bytes * 1e6:.2f}us/offset  "
              f"{throughput[name] / 1e6:.2f} MB/s")
    print(f"speedup: {speedup:.2f}x")

    if args.json:
        write_bench_json(args.json, bench_envelope(
            "decode",
            config={"sections": len(texts), "bytes": total_bytes,
                    "functions": args.functions, "seeds": [0],
                    "repeats": args.repeats},
            metrics={
                "seconds": best,
                "bytes_per_second": {
                    name: round(value)
                    for name, value in throughput.items()},
                "microseconds_per_offset": {
                    name: round(seconds / total_bytes * 1e6, 3)
                    for name, seconds in best.items()},
                "speedup": round(speedup, 2),
                "superset_identical": 1,
            },
        ))
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
