import sys

import pytest

from nplab import linalg


@pytest.fixture
def jacobi_calls(monkeypatch):
    """Count Jacobi factorizations, wherever an nplab module bound the
    name; the fixture's value is the list [jacobi_eigh calls,
    jacobi_eigvalsh calls]."""
    count = [0, 0]

    def counting(slot, original):
        def counted(*args, **kwargs):
            count[slot] += 1
            return original(*args, **kwargs)
        return counted

    for slot, name in enumerate(("jacobi_eigh", "jacobi_eigvalsh")):
        original = getattr(linalg, name)
        wrapper = counting(slot, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "nplab" and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return count
