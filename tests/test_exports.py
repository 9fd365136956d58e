"""The package namespace: exactly the names README's Python API section
documents, every one resolving."""
import re
from pathlib import Path

import gstower

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section)


def test_every_exported_name_resolves():
    missing = [name for name in gstower.__all__ if not hasattr(gstower, name)]
    assert missing == []


def test_no_exported_name_repeats():
    assert len(gstower.__all__) == len(set(gstower.__all__))


def test_exports_are_the_documented_api():
    documented = _documented_names()
    assert len(documented) == len(set(documented))
    assert sorted(gstower.__all__) == sorted(documented)
