"""The package's public name list."""

import compresslearn


def test_every_export_resolves_once():
    names = compresslearn.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(compresslearn, n)]
    assert missing == []
