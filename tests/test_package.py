"""The package's public surface."""

import gladcf


def test_every_exported_name_resolves():
    missing = [name for name in gladcf.__all__ if not hasattr(gladcf, name)]
    assert missing == []
    assert len(set(gladcf.__all__)) == len(gladcf.__all__)
