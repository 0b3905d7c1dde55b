import sys

import pytest

from nplab import linalg


@pytest.fixture
def jacobi_calls(monkeypatch):
    """Count jacobi_eigh calls, wherever an nplab module bound the name;
    the fixture's value is a one-element list holding the count."""
    original = linalg.jacobi_eigh
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nplab" and \
                getattr(module, "jacobi_eigh", None) is original:
            monkeypatch.setattr(module, "jacobi_eigh", counting)
    return count
