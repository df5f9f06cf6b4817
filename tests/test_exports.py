"""Every exported name resolves, so a deleted function cannot stay listed."""

import pytest

import dpckpt
import dpckpt.harness


@pytest.mark.parametrize("package", [dpckpt, dpckpt.harness], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
