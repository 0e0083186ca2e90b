"""The package's public name list."""

import types

import compresslearn


def test_every_export_resolves_once():
    names = compresslearn.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(compresslearn, n)]
    assert missing == []


def test_every_public_name_is_exported():
    bound = {name for name, value in vars(compresslearn).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert sorted(bound - set(compresslearn.__all__)) == []
