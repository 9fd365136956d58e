"""The package namespace: every exported name resolves, none repeats."""
import gstower


def test_every_exported_name_resolves():
    missing = [name for name in gstower.__all__ if not hasattr(gstower, name)]
    assert missing == []


def test_no_exported_name_repeats():
    assert len(gstower.__all__) == len(set(gstower.__all__))
