"""Decode benchmark: compiled engine vs. interpretive oracle, and the
superset's whole-section array passes.

Superset construction decodes a candidate at every byte offset.  Since
the superset holds per-offset columns decoded in whole-section array
passes (:mod:`repro.isa.columns`), the scalar decoders serve the
instructions built on demand and stay the oracle.  This benchmark times
the per-offset scalar decode -- every offset of the t2 benchmark
corpus -- under both backends and reports the compiled-over-interpreted
speedup, and times ``Superset.build`` (the array passes) over the same
corpus.

* **Equivalence** is checked here and fails the script:
  ``superset_identical`` -- the superset's instruction at every offset
  is the scalar decode there, under either backend, and the backends
  agree; ``columns_identical`` -- the array columns equal what the
  scalar decode implies at every offset, under either backend.
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
from itertools import repeat
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.eval.dataset import evaluation_corpus         # noqa: E402
from repro.isa.columns import mismatches                 # noqa: E402
from repro.isa.decoder import (decoder_backend,          # noqa: E402
                               try_decode, try_decode_interp)
from repro.perf import bench_envelope, write_bench_json   # noqa: E402
from repro.superset import superset as superset_mod      # noqa: E402
from repro.superset.superset import Superset             # noqa: E402

DEFAULT_JSON = REPO_ROOT / "benchmarks" / "results" / "BENCH_decode.json"

BACKENDS = {"compiled": try_decode, "interp": try_decode_interp}


def decode_all(texts: list[bytes], decode) -> list[list]:
    """The scalar decode of every offset, in the shape of the
    per-offset superset sweep this benchmark has always timed."""
    return [list(map(decode, repeat(text), range(len(text))))
            for text in texts]


def time_decode(texts: list[bytes], decode) -> float:
    gc.collect()
    started = time.process_time()
    decode_all(texts, decode)
    return time.process_time() - started


def time_columns(texts: list[bytes]) -> float:
    gc.collect()
    started = time.process_time()
    for text in texts:
        Superset.build(text)
    return time.process_time() - started


def superset_identical(texts: list[bytes],
                       expected: dict[str, list[list]]) -> bool:
    """Every superset serves the scalar decode at every offset, under
    either backend (the ``REPRO_DECODER`` seam is this module global)."""
    for name, decode in BACKENDS.items():
        superset_mod.try_decode = decode
        try:
            for text, instructions in zip(texts, expected[name]):
                superset = Superset.build(text)
                if list(map(superset.at, range(len(text)))) != instructions:
                    return False
        finally:
            superset_mod.try_decode = try_decode
    return True


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

    # Timing first, on a clean heap: the equivalence checks allocate
    # millions of instruction objects, and the resulting allocator
    # fragmentation measurably slows every later decode.
    for decode in BACKENDS.values():                     # warm caches
        decode_all(texts[:1], decode)
    time_columns(texts[:1])
    best = {name: float("inf") for name in BACKENDS}
    columns_best = float("inf")
    for _ in range(args.repeats):
        for name, decode in BACKENDS.items():
            best[name] = min(best[name], time_decode(texts, decode))
        columns_best = min(columns_best, time_columns(texts))

    # Equivalence gates: the speedup is worthless if the outputs ever
    # diverge.  Compare candidates and column values, not summaries.
    expected = {name: decode_all(texts, decode)
                for name, decode in BACKENDS.items()}
    same = (expected["compiled"] == expected["interp"]
            and superset_identical(texts, expected))
    columns_same = all(
        not mismatches(text, Superset.build(text).columns, decode)
        for decode in BACKENDS.values() for text in texts)
    print(f"superset_identical: {int(same)}  "
          f"columns_identical: {int(columns_same)}  "
          f"({total_bytes} offsets, both backends)")
    assert same, "superset instructions differ from the scalar decode"
    assert columns_same, "superset columns differ from the scalar decode"

    speedup = best["interp"] / best["compiled"]
    throughput = {name: total_bytes / seconds
                  for name, seconds in best.items()}
    for name in BACKENDS:
        print(f"{name:>8}: {best[name]:.3f}s  "
              f"{best[name] / total_bytes * 1e6:.2f}us/offset  "
              f"{throughput[name] / 1e6:.2f} MB/s")
    print(f" columns: {columns_best:.3f}s  "
          f"{columns_best / total_bytes * 1e6:.2f}us/offset  "
          f"{total_bytes / columns_best / 1e6:.2f} MB/s")
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
                "columns_seconds": columns_best,
                "columns_microseconds_per_offset": round(
                    columns_best / total_bytes * 1e6, 3),
                "speedup": round(speedup, 2),
                "superset_identical": int(same),
                "columns_identical": int(columns_same),
            },
        ))
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
