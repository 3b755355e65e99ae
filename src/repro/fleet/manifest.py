"""Reproducible corpus manifests: what a fleet run evaluates.

A manifest is the fleet's unit of reproducibility: a schema-versioned
JSON document listing every binary to evaluate, either as a synthetic
spec (style x function count x seed -- regenerated bit-identically on
any machine) or as an on-disk file (ELF64 / PE32+ / native container,
ingested through :func:`repro.formats.load_any`).  Item ids are
deterministic, so two plans over the same inputs are byte-identical
and a checkpointed run can be resumed -- or re-sharded across a
different worker count -- without ambiguity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..formats import FormatError, detect_format
from ..synth.corpus import BinarySpec
from ..synth.styles import STYLES

#: Schema tag embedded in every manifest document.
MANIFEST_SCHEMA = "repro-fleet-manifest-v1"


@dataclass(frozen=True)
class FleetItem:
    """One binary in the corpus.

    ``kind`` is ``"synth"`` (regenerate from ``style`` /
    ``function_count`` / ``seed``) or ``"file"`` (read ``path`` from
    disk).  ``id`` is derived, stable, and unique within a manifest.
    """

    kind: str
    style: str = ""
    function_count: int = 0
    seed: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind == "synth":
            if self.style not in STYLES:
                raise ValueError(f"unknown style {self.style!r}")
            if self.function_count < 2:
                raise ValueError("function_count must be >= 2")
        elif self.kind == "file":
            if not self.path:
                raise ValueError("file items need a path")
        else:
            raise ValueError(f"unknown item kind {self.kind!r}")

    @property
    def id(self) -> str:
        if self.kind == "synth":
            return (f"synth/{self.style}/fc{self.function_count:04d}"
                    f"/s{self.seed:06d}")
        return f"file/{self.path}"

    def spec(self) -> BinarySpec:
        """The generation spec of a synth item."""
        if self.kind != "synth":
            raise ValueError(f"item {self.id} is not synthetic")
        return BinarySpec(name=self.id.replace("/", "-"),
                          style=STYLES[self.style],
                          function_count=self.function_count,
                          seed=self.seed)

    def to_dict(self) -> dict:
        if self.kind == "synth":
            return {"kind": "synth", "style": self.style,
                    "function_count": self.function_count,
                    "seed": self.seed}
        return {"kind": "file", "path": self.path}

    @classmethod
    def from_dict(cls, raw: dict) -> FleetItem:
        kind = raw.get("kind")
        if kind == "synth":
            return cls(kind="synth", style=raw["style"],
                       function_count=int(raw["function_count"]),
                       seed=int(raw["seed"]))
        if kind == "file":
            return cls(kind="file", path=raw["path"])
        raise ValueError(f"unknown manifest item kind {kind!r}")


class Manifest:
    """An ordered, duplicate-free collection of :class:`FleetItem`."""

    def __init__(self, items) -> None:
        self.items: tuple[FleetItem, ...] = tuple(items)
        seen: set[str] = set()
        for item in self.items:
            if item.id in seen:
                raise ValueError(f"duplicate manifest item: {item.id}")
            seen.add(item.id)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def limit(self, count: int | None) -> Manifest:
        """The first ``count`` items (None = everything)."""
        if count is not None and count < 0:
            raise ValueError(f"limit must be >= 0, not {count}")
        if count is None or count >= len(self.items):
            return self
        return Manifest(self.items[:count])

    def shards(self, size: int) -> list[tuple[FleetItem, ...]]:
        """Split into contiguous shards of at most ``size`` items.

        Sharding is a checkpointing granularity, not a semantic one:
        aggregation output is identical for any shard size (the
        invariance test drives several).
        """
        if size < 1:
            raise ValueError("shard size must be >= 1")
        return [self.items[start:start + size]
                for start in range(0, len(self.items), size)]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "schema": MANIFEST_SCHEMA,
            "items": [item.to_dict() for item in self.items],
        }, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> Manifest:
        raw = json.loads(text)
        if raw.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"not a fleet manifest (schema={raw.get('schema')!r}, "
                f"expected {MANIFEST_SCHEMA!r})")
        return cls(FleetItem.from_dict(item) for item in raw["items"])

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> Manifest:
        return cls.from_json(Path(path).read_text())


def parse_seed_range(text: str) -> range:
    """Parse ``A:B`` (A inclusive, B exclusive) or a single seed."""
    first, sep, last = text.partition(":")
    try:
        if not sep:
            start, stop = int(first), int(first) + 1
        else:
            start, stop = int(first), int(last)
    except ValueError:
        raise ValueError(f"bad seed range {text!r} "
                         f"(expected A:B or a single integer)") from None
    if stop <= start:
        raise ValueError(f"empty seed range {text!r}")
    return range(start, stop)


def plan_grid(styles, function_counts, seeds) -> Manifest:
    """The synthetic grid: every style x function count x seed.

    Ordering is style-major then size then seed -- deterministic, so a
    plan is reproducible from its parameters alone.
    """
    items = [FleetItem(kind="synth", style=style, function_count=count,
                       seed=seed)
             for style in sorted(styles)
             for count in sorted(set(function_counts))
             for seed in seeds]
    return Manifest(items)


def ingest_directory(root: str | Path) -> list[FleetItem]:
    """File items for every recognized container under ``root``.

    Files whose magic none of the loaders recognize are skipped (a
    corpus directory routinely holds ground-truth sidecars and notes);
    recognition only reads the first bytes, the full parse happens --
    and may still fail, quarantined per item -- inside the fleet run.
    """
    root = Path(root)
    items = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        try:
            with open(path, "rb") as handle:
                detect_format(handle.read(16))
        except (FormatError, OSError):
            continue
        items.append(FleetItem(kind="file", path=str(path)))
    return items
