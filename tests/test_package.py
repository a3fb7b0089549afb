import depthray


def test_every_exported_name_resolves():
    missing = [name for name in depthray.__all__ if not hasattr(depthray, name)]
    assert missing == []
    assert len(set(depthray.__all__)) == len(depthray.__all__)
