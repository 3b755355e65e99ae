"""Command-line interface: generate, disassemble, evaluate, experiment.

Usage::

    python -m repro generate out/demo --style msvc-like --functions 40
    python -m repro disasm out/demo.bin
    python -m repro disasm out/demo.bin --listing | head -50
    python -m repro evaluate out/demo
    python -m repro experiments t3
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .binary.loader import TestCase
from .core.config import DisassemblerConfig
from .core.disassembler import Disassembler
from .eval.metrics import evaluate
from .formats import FormatError, LoadedImage, load_any
from .listing import classify_data_regions, render_listing
from .synth.corpus import BinarySpec, generate_binary
from .synth.styles import STYLES, style_by_name


def _cmd_generate(args: argparse.Namespace) -> int:
    out = Path(args.output)
    directory = out.parent if out.parent != Path("") else Path(".")
    if args.seed_range is not None:
        from .fleet.manifest import parse_seed_range
        try:
            seeds = list(parse_seed_range(args.seed_range))
        except ValueError as error:
            print(f"generate: {error}", file=sys.stderr)
            return 2
    else:
        seeds = [args.seed]
    for seed in seeds:
        name = out.name if len(seeds) == 1 else f"{out.name}-s{seed:06d}"
        spec = BinarySpec(name=name, style=style_by_name(args.style),
                          function_count=args.functions, seed=seed)
        case = generate_binary(spec)
        bin_path, gt_path = case.save(directory, fmt=args.format)
        if len(seeds) == 1:
            stats = case.truth
            print(f"wrote {bin_path} ({stats.size} text bytes, "
                  f"{len(stats.functions)} functions, "
                  f"{stats.data_bytes} embedded data bytes)")
            print(f"wrote {gt_path} (ground truth)")
    if len(seeds) > 1:
        print(f"wrote {len(seeds)} binaries ({args.style}, "
              f"{args.functions} functions, seeds "
              f"{seeds[0]}..{seeds[-1]}) under {directory}")
    if args.manifest:
        from .fleet.manifest import FleetItem, Manifest
        manifest = Manifest(
            FleetItem(kind="synth", style=args.style,
                      function_count=args.functions, seed=seed)
            for seed in seeds)
        manifest.save(args.manifest)
        print(f"wrote {args.manifest} (fleet manifest, "
              f"{len(manifest)} items; feed it to "
              f"`repro evalfleet plan --manifest` or "
              f"`repro evalfleet run`)")
    return 0


def _load_image(path: Path) -> LoadedImage:
    """Load any supported container (RPRB / ELF64 / PE32+) by magic.

    Parse failures surface as :class:`FormatError`; the command
    handlers turn them into a one-line stderr message and exit code 2
    instead of a traceback.
    """
    return load_any(path.read_bytes())


def _render_timings(timings: dict[str, float]) -> str:
    """The ``--profile`` block: one ms/share row per phase, then total."""
    if not timings:
        return "no phases recorded"
    width = max(len(name) for name in timings)
    total = sum(timings.values())
    lines = [f"{name.ljust(width)}  {seconds * 1000:9.1f}ms"
             f"  {100.0 * seconds / (total or 1.0):5.1f}%"
             for name, seconds in timings.items()]
    lines.append(f"{'total'.ljust(width)}  {total * 1000:9.1f}ms")
    return "\n".join(lines)


def _cmd_disasm(args: argparse.Namespace) -> int:
    try:
        image = _load_image(Path(args.binary))
    except FormatError as error:
        print(f"disasm: {args.binary}: {error}", file=sys.stderr)
        return 2
    binary = image.binary
    disassembler = Disassembler()
    rich = disassembler.disassemble_rich(binary)
    result = rich.result
    text = binary.text.data
    if args.json:
        # The canonical machine-readable claim; the serving layer's
        # /v1/disassemble response embeds exactly these bytes.
        print(result.to_json())
        return 0
    print(result.summary())
    if args.profile:
        print("\nphase timings:")
        print(_render_timings(rich.timings))
        print()
    if args.listing:
        print(render_listing(text, result))
    else:
        print(f"functions at: "
              f"{', '.join(hex(e) for e in sorted(result.function_entries))}")
        for start, end, kind in classify_data_regions(text, result):
            print(f"data {start:#08x}-{end:#08x}  {end - start:5d} bytes  "
                  f"{kind}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (DEFAULT_REGISTRY, LintConfig, Severity,
                       lint_disassembly)

    if args.list_rules:
        for rule in DEFAULT_REGISTRY:
            print(f"{rule.id:28s} {rule.severity.name.lower():8s} "
                  f"{rule.description}")
        return 0

    if args.binary is None:
        print("lint: a binary is required unless --list-rules is given",
              file=sys.stderr)
        return 2
    lint_config = LintConfig(disabled=tuple(args.disable or ()))
    try:
        DEFAULT_REGISTRY.select(disabled=lint_config.disabled)
    except KeyError as error:
        print(f"lint: {error.args[0]}", file=sys.stderr)
        return 2
    try:
        image = _load_image(Path(args.binary))
    except FormatError as error:
        print(f"lint: {args.binary}: {error}", file=sys.stderr)
        return 2
    binary = image.binary
    config = DisassemblerConfig(use_lint_feedback=args.feedback,
                                record_provenance=args.provenance)
    disassembler = Disassembler(config=config)
    rich = disassembler.disassemble_rich(binary)
    report = lint_disassembly(rich.result, binary.text.data,
                              config=lint_config, hints=image.hints,
                              text_addr=binary.text.addr, facts=rich.facts,
                              provenance=rich.provenance)

    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        print(report.render_text())

    if args.fail_on == "never":
        return 0
    threshold = Severity.parse(args.fail_on)
    return 1 if report.at_least(threshold) else 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    base = Path(args.case)
    if base.suffix == ".bin":       # a container path, not a prefix
        base = base.with_suffix("")
    try:
        case = TestCase.load(base.parent, base.name)
    except (OSError, ValueError) as error:
        print(f"evaluate: {args.case}: {error}", file=sys.stderr)
        return 2
    disassembler = Disassembler()
    evaluation = evaluate(disassembler.disassemble(case), case.truth)
    print(f"instruction precision: {evaluation.instructions.precision:.4f}")
    print(f"instruction recall:    {evaluation.instructions.recall:.4f}")
    print(f"instruction F1:        {evaluation.instructions.f1:.4f}")
    print(f"byte errors:           {evaluation.bytes.total_errors} "
          f"({evaluation.bytes.false_code} false-code, "
          f"{evaluation.bytes.missed_code} missed-code)")
    print(f"function F1:           {evaluation.functions.f1:.4f}")
    return 0


def _cmd_rewrite(args: argparse.Namespace) -> int:
    from .rewrite import rewrite_binary

    try:
        binary = _load_image(Path(args.binary)).binary
    except FormatError as error:
        print(f"rewrite: {args.binary}: {error}", file=sys.stderr)
        return 2
    disassembler = Disassembler()
    rich = disassembler.disassemble_rich(binary)
    rewritten = rewrite_binary(rich, binary,
                               instrument_entries=not args.no_counters)
    output = Path(args.output)
    output.write_bytes(rewritten.binary.to_bytes())
    print(f"wrote {output}: {len(rewritten.text)} text bytes "
          f"(was {len(binary.text.data)}), "
          f"{len(rewritten.counters)} instrumented entries")
    if args.map:
        map_path = Path(args.map)
        import json
        map_path.write_text(json.dumps(
            {hex(old): hex(new)
             for old, new in sorted(rewritten.address_map.items())},
            indent=0))
        print(f"wrote {map_path} (address map)")
    if args.verify:
        from .core import FactBase, disassemble_incremental
        base = FactBase.from_run(rich, disassembler.config)
        second, stats = disassemble_incremental(disassembler, base,
                                                rewritten.binary)
        moved = set(rewritten.address_map.values())
        recovered = len(moved & second.result.instruction_starts)
        fraction = recovered / len(moved) if moved else 1.0
        mode = (f"cold ({stats.reason})" if stats.cold
                else f"incremental, {stats.reused_fraction:.0%} of "
                     f"superset reused")
        print(f"verify: re-disassembled {mode}; recovered "
              f"{recovered}/{len(moved)} moved instructions "
              f"({fraction:.2%})")
        if fraction < 0.95:
            print(f"rewrite: verify failed: only {fraction:.2%} of "
                  f"moved instructions recovered", file=sys.stderr)
            return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        batch_max=args.batch_max,
        batch_window=args.batch_window_ms / 1000.0,
        cache_size=args.cache_size,
        max_body=args.max_body_mb * 1024 * 1024,
        default_timeout=args.timeout_s,
        access_log_path=args.access_log,
        trace_path=args.trace,
        profile_path=args.sample_profile,
    )
    return run_server(config)


def _resolve_text_offset(binary, raw: str) -> int:
    """Parse an address argument; virtual addresses map into .text."""
    try:
        value = int(raw, 0)
    except ValueError:
        raise ValueError(f"bad address {raw!r} (use decimal or 0x hex)") \
            from None
    if value >= binary.text.addr:
        value -= binary.text.addr
    if not 0 <= value < len(binary.text.data):
        raise ValueError(
            f"address {raw} outside the text section "
            f"(0-{len(binary.text.data):#x}, or virtual "
            f"{binary.text.addr:#x}+)")
    return value


def _classification_of(result, offset: int) -> str:
    if offset in result.instructions:
        return "code (instruction start)"
    for start, end in result.data_regions:
        if start <= offset < end:
            return "data"
    for start, length in result.instructions.items():
        if start < offset < start + length:
            return "code (instruction interior)"
    return "unclassified"


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    try:
        image = _load_image(Path(args.binary))
    except FormatError as error:
        print(f"explain: {args.binary}: {error}", file=sys.stderr)
        return 2
    binary = image.binary
    try:
        offset = _resolve_text_offset(binary, args.address)
    except ValueError as error:
        print(f"explain: {error}", file=sys.stderr)
        return 2
    config = DisassemblerConfig(record_provenance=True,
                                use_lint_feedback=args.feedback)
    rich = Disassembler(config=config).disassemble_rich(binary)
    provenance = rich.provenance
    assert provenance is not None
    events = provenance.events_at(offset)
    classification = _classification_of(rich.result, offset)
    if args.json:
        print(json.dumps({
            "address": f"{offset:#x}",
            "classification": classification,
            "events": [event.to_dict() for event in events],
        }, indent=2))
    else:
        print(f"{offset:#x}: {classification}")
        print(provenance.explain(offset))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .obs.metrics import REGISTRY

    if args.server:
        import http.client
        host, _, port = args.server.partition(":")
        connection = http.client.HTTPConnection(
            host or "127.0.0.1", int(port) if port else 8080, timeout=30)
        try:
            connection.request("GET", "/metrics?format=prometheus")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
        except OSError as error:
            print(f"metrics: {args.server}: {error}", file=sys.stderr)
            return 1
        finally:
            connection.close()
        if response.status != 200:
            print(f"metrics: {args.server}: HTTP {response.status}",
                  file=sys.stderr)
            return 1
        sys.stdout.write(body)
        return 0
    if not args.binary:
        print("metrics: a binary or --server HOST:PORT is required",
              file=sys.stderr)
        return 2
    try:
        image = _load_image(Path(args.binary))
    except FormatError as error:
        print(f"metrics: {args.binary}: {error}", file=sys.stderr)
        return 2
    Disassembler().disassemble(image.binary)
    if args.format == "json":
        print(json.dumps(REGISTRY.snapshot(), indent=2))
    else:
        sys.stdout.write(REGISTRY.render_prometheus())
    return 0


def _add_trace_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument("--trace", metavar="PATH", default=None,
                         help="write hierarchical spans as JSONL "
                              "(also honors REPRO_TRACE)")


def _add_profile_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument("--sample-profile", metavar="PATH", default=None,
                         help="run the sampling profiler and write a "
                              "repro-profile-v1 JSON document (also "
                              "honors REPRO_PROFILE)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Metadata-free disassembly of complex binaries "
                    "(ASPLOS 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate",
                              help="generate a synthetic stripped binary")
    generate.add_argument("output", help="output path prefix")
    generate.add_argument("--style", default="msvc-like",
                          choices=sorted(STYLES))
    generate.add_argument("--functions", type=int, default=40)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--seed-range", metavar="A:B", default=None,
                          help="generate one binary per seed in "
                               "[A, B) as OUTPUT-sNNNNNN "
                               "(overrides --seed)")
    generate.add_argument("--manifest", metavar="OUT.json", default=None,
                          help="also write a fleet manifest covering "
                               "the generated spec(s)")
    generate.add_argument("--format", choices=("rprb", "elf"),
                          default="rprb",
                          help="container to write: the native .bin "
                               "(default) or a real ELF64 .elf")
    generate.set_defaults(func=_cmd_generate)

    disasm = sub.add_parser(
        "disasm", help="disassemble a binary (.bin / ELF64 / PE32+)")
    disasm.add_argument("binary")
    disasm.add_argument("--listing", action="store_true",
                        help="print the full instruction listing")
    disasm.add_argument("--json", action="store_true",
                        help="print the result as canonical JSON "
                             "(byte-identical to the serving API)")
    disasm.add_argument("--profile", action="store_true",
                        help="print per-phase wall-clock timings")
    _add_trace_flag(disasm)
    _add_profile_flag(disasm)
    disasm.set_defaults(func=_cmd_disasm)

    lint = sub.add_parser(
        "lint", help="verify a disassembly without ground truth")
    lint.add_argument("binary", nargs="?",
                      help="path to a binary (.bin / ELF64 / PE32+)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="diagnostic output format")
    lint.add_argument("--fail-on", default="error",
                      choices=("error", "warning", "info", "never"),
                      help="exit 1 if any diagnostic reaches this "
                           "severity (default: error)")
    lint.add_argument("--disable", action="append", metavar="RULE",
                      help="disable a rule by id (repeatable)")
    lint.add_argument("--feedback", action="store_true",
                      help="enable the lint-feedback correction round "
                           "before linting")
    lint.add_argument("--provenance", action="store_true",
                      help="record the decision audit trail and attach "
                           "each diagnostic's causal chain")
    lint.add_argument("--list-rules", action="store_true",
                      help="list available rules and exit")
    _add_trace_flag(lint)
    lint.set_defaults(func=_cmd_lint)

    evaluate_cmd = sub.add_parser(
        "evaluate", help="score the disassembler against ground truth")
    evaluate_cmd.add_argument("case", help="path prefix of .bin/.gt.json "
                                           "(or the .bin path itself)")
    evaluate_cmd.set_defaults(func=_cmd_evaluate)

    rewrite = sub.add_parser(
        "rewrite", help="relocate + instrument a .bin container")
    rewrite.add_argument("binary")
    rewrite.add_argument("output")
    rewrite.add_argument("--no-counters", action="store_true",
                         help="relocate only, without instrumentation")
    rewrite.add_argument("--map", help="write the address map as JSON")
    rewrite.add_argument("--verify", action="store_true",
                         help="re-disassemble the rewritten binary "
                              "(incrementally, reusing the first run's "
                              "fact base) and check that the moved "
                              "instructions are recovered")
    rewrite.set_defaults(func=_cmd_rewrite)

    serve = sub.add_parser(
        "serve", help="run the disassembly service (HTTP JSON API)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes (0 = run jobs inline)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="queued-job bound before answering 429")
    serve.add_argument("--batch-max", type=int, default=8,
                       help="max jobs dispatched to a worker as one batch")
    serve.add_argument("--batch-window-ms", type=float, default=0.0,
                       help="micro-batch linger window in milliseconds")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--max-body-mb", type=int, default=64,
                       help="largest accepted request body in MiB")
    serve.add_argument("--timeout-s", type=float, default=120.0,
                       help="default per-job deadline in seconds")
    serve.add_argument("--access-log", metavar="PATH", default=None,
                       help="JSONL access-log path (default: stderr)")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="stream request-lifecycle spans to a JSONL "
                            "file (also honors REPRO_TRACE)")
    _add_profile_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    explain = sub.add_parser(
        "explain", help="show why one byte was classified code or data")
    explain.add_argument("binary",
                         help="path to a binary (.bin / ELF64 / PE32+)")
    explain.add_argument("address",
                         help="text-section offset or virtual address "
                              "(decimal or 0x hex)")
    explain.add_argument("--json", action="store_true",
                         help="emit the decision chain as JSON")
    explain.add_argument("--feedback", action="store_true",
                         help="include the lint-feedback correction "
                              "round in the audited run")
    _add_trace_flag(explain)
    explain.set_defaults(func=_cmd_explain)

    metrics = sub.add_parser(
        "metrics", help="dump pipeline metrics (Prometheus text format)")
    metrics.add_argument("binary", nargs="?",
                         help="disassemble this binary, then dump the "
                              "pipeline metrics it produced")
    metrics.add_argument("--server", metavar="HOST:PORT", default=None,
                         help="scrape a running `repro serve` instance "
                              "instead of running locally")
    metrics.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus",
                         help="local dump format (default: prometheus)")
    metrics.set_defaults(func=_cmd_metrics)

    from .eval.experiments import add_arguments, run_experiments
    experiments = add_arguments(sub.add_parser(
        "experiments", help="run evaluation experiments"))
    experiments.set_defaults(func=run_experiments)

    from .fleet.commands import add_evalfleet_parser
    add_evalfleet_parser(sub)
    from .obs.commands import add_obs_parser
    add_obs_parser(sub)
    return parser


def _trace_context(args: argparse.Namespace):
    """Tracing activation for one command invocation.

    ``--trace PATH`` or a non-empty ``REPRO_TRACE`` installs a tracer
    for the command and exports its spans on exit.  ``repro serve``
    manages its own tracer (it must flush incrementally while running),
    so it is excluded here.
    """
    if getattr(args, "command", None) == "serve":
        return nullcontext()
    from .obs.trace import activate, trace_path_from_env
    path = getattr(args, "trace", None) or trace_path_from_env()
    return activate(path) if path else nullcontext()


def _profile_context(args: argparse.Namespace):
    """Sampling-profiler activation for one command invocation.

    ``--sample-profile PATH`` or a non-empty ``REPRO_PROFILE`` runs the
    sampler for the command and writes the profile document on exit.
    ``repro serve`` (profiler tied to server shutdown) and
    ``repro evalfleet`` (profile written into the run directory) manage
    their own lifecycles, so they are excluded here.
    """
    if getattr(args, "command", None) in ("serve", "evalfleet", "obs"):
        return nullcontext()
    from .obs.profile import profile_path_from_env, profiling
    path = (getattr(args, "sample_profile", None)
            or profile_path_from_env())
    if not path:
        return nullcontext()
    return profiling(path, command=getattr(args, "command", "?"))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _trace_context(args), _profile_context(args):
            return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager that exited early (e.g. `| head`).
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
