"""Manifests: deterministic planning, serialization, sharding, ingest."""

from __future__ import annotations

import pytest

from repro.fleet.manifest import (FleetItem, Manifest, ingest_directory,
                                  parse_seed_range, plan_grid)
from repro.synth import BinarySpec, MSVC_LIKE, generate_binary


def test_parse_seed_range():
    assert list(parse_seed_range("0:3")) == [0, 1, 2]
    assert list(parse_seed_range("7")) == [7]
    assert list(parse_seed_range("-2:1")) == [-2, -1, 0]
    for bad in ("3:3", "5:2", "a:b", "", "1:2:3"):
        with pytest.raises(ValueError):
            parse_seed_range(bad)


def test_item_ids_are_stable_and_unique():
    item = FleetItem(kind="synth", style="msvc-like", function_count=8,
                     seed=3)
    assert item.id == "synth/msvc-like/fc0008/s000003"
    assert FleetItem(kind="file", path="x/y.bin").id == "file/x/y.bin"


def test_item_validation():
    with pytest.raises(ValueError):
        FleetItem(kind="synth", style="no-such-style", function_count=4)
    with pytest.raises(ValueError):
        FleetItem(kind="synth", style="msvc-like", function_count=1)
    with pytest.raises(ValueError):
        FleetItem(kind="file", path="")
    with pytest.raises(ValueError):
        FleetItem(kind="mystery")


def test_synth_item_spec_regenerates_bit_identically():
    item = FleetItem(kind="synth", style="msvc-like", function_count=4,
                     seed=9)
    once = generate_binary(item.spec())
    twice = generate_binary(item.spec())
    assert once.binary.text.data == twice.binary.text.data


def test_plan_grid_is_deterministic_and_style_major():
    first = plan_grid(["msvc-like", "gcc-like"], [8, 4], range(2))
    second = plan_grid(["gcc-like", "msvc-like"], [4, 8, 8], range(2))
    assert first.to_json() == second.to_json()
    ids = [item.id for item in first]
    assert ids == sorted(ids)  # style-major then size then seed


def test_manifest_rejects_duplicates():
    item = FleetItem(kind="synth", style="msvc-like", function_count=4,
                     seed=0)
    with pytest.raises(ValueError, match="duplicate"):
        Manifest([item, item])


def test_round_trip_through_disk(tmp_path):
    manifest = plan_grid(["msvc-like"], [4], range(3))
    path = manifest.save(tmp_path / "m.json")
    loaded = Manifest.load(path)
    assert loaded.to_json() == manifest.to_json()
    assert [item.id for item in loaded] == [item.id for item in manifest]


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "something-else", "items": []}')
    with pytest.raises(ValueError, match="not a fleet manifest"):
        Manifest.load(path)


def test_limit_and_shards():
    manifest = plan_grid(["msvc-like"], [4], range(10))
    assert len(manifest.limit(3)) == 3
    assert manifest.limit(None) is manifest
    assert manifest.limit(99) is manifest
    shards = manifest.shards(4)
    assert [len(s) for s in shards] == [4, 4, 2]
    with pytest.raises(ValueError):
        manifest.shards(0)


def test_negative_limit_is_an_error():
    # items[:-1] would silently drop the last binary.
    manifest = plan_grid(["msvc-like"], [4], range(3))
    with pytest.raises(ValueError, match="limit must be >= 0"):
        manifest.limit(-1)


def test_ingest_directory_recognizes_containers(tmp_path):
    case = generate_binary(BinarySpec(name="ing", style=MSVC_LIKE,
                                      function_count=4, seed=0))
    case.save(tmp_path)                        # .bin + .gt.json sidecar
    (tmp_path / "notes.txt").write_text("not a binary")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "copy.bin").write_bytes(case.binary.to_bytes())
    items = ingest_directory(tmp_path)
    paths = [item.path for item in items]
    assert len(items) == 2                     # sidecars and notes skipped
    assert all(item.kind == "file" for item in items)
    assert paths == sorted(paths)
