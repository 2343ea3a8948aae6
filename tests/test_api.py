"""The package's public names."""

import extdicke


def test_every_exported_name_resolves():
    missing = [name for name in extdicke.__all__ if not hasattr(extdicke, name)]
    assert missing == []
    assert len(set(extdicke.__all__)) == len(extdicke.__all__)
