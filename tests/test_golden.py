"""The byte-identity harness (tools/golden.py): on two of its small entries,
the same tree agrees with itself and one changed byte is reported; and the
whole table matches the digests pinned in tests/data/golden.json."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ENTRIES = ["table1", "sine-bowl-sharpness"]
PINNED = ROOT / "tests" / "data" / "golden.json"


def test_the_same_tree_agrees_and_a_changed_byte_is_reported(tmp_path):
    first = golden.run_table(ROOT / "src", tmp_path / "first", ENTRIES)
    again = golden.run_table(ROOT / "src", tmp_path / "again", ENTRIES)
    assert set(first) == {f"{e}/{a}" for e in ENTRIES for a in ("stdout", "exit_status")} | {
        "table1/out/table1.txt", "sine-bowl-sharpness/out/sharpness.json"}
    assert golden.differences(first, again) == []

    planted = tmp_path / "planted"
    shutil.copytree(tmp_path / "first", planted)
    artifact = planted / "sine-bowl-sharpness" / "out" / "sharpness.json"
    text = bytearray(artifact.read_bytes())
    at = text.index(b'"value": ') + len(b'"value": ') + 3     # a digit of the value
    text[at] = ord("0") + (text[at] - ord("0") + 1) % 10
    artifact.write_bytes(bytes(text))
    assert golden.differences(first, golden.digests(planted)) == [
        "sine-bowl-sharpness/out/sharpness.json"]

    (planted / "table1" / "exit_status").write_text("1")
    (planted / "table1" / "out" / "table1.txt").unlink()
    assert golden.differences(first, golden.digests(planted)) == [
        "sine-bowl-sharpness/out/sharpness.json", "table1/exit_status", "table1/out/table1.txt"]


def test_the_table_matches_its_pinned_digests(tmp_path):
    """Every artifact of the table has the digest pinned for it, and no
    artifact is missing or new. A change that moves artifacts on purpose
    rewrites the file (`tools/golden.py --write tests/data/golden.json`)."""
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if pinned["numpy"] != golden.numpy_version():
        pytest.skip(f"the digests were made under numpy {pinned['numpy']}, and this is numpy "
                    f"{golden.numpy_version()}: numpy promises no Generator stream across versions")
    assert golden.differences(golden.run_table(ROOT / "src", tmp_path), pinned["digests"]) == []
