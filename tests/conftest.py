import sys

import pytest

from nplab import linalg


@pytest.fixture
def jacobi_calls(monkeypatch):
    """Count Jacobi factorizations, wherever an nplab module bound the
    name; the fixture's value is the list [eigh factorizations,
    eigvalsh factorizations].  A ``jacobi_eigh_many`` or
    ``jacobi_eigvalsh_many`` call counts one per matrix it is given."""
    count = [0, 0]

    def counting(slot, original, many):
        def counted(*args, **kwargs):
            if many:
                args = (list(args[0]),) + args[1:]
            count[slot] += len(args[0]) if many else 1
            return original(*args, **kwargs)
        return counted

    for slot, name, many in ((0, "jacobi_eigh", False),
                             (1, "jacobi_eigvalsh", False),
                             (0, "jacobi_eigh_many", True),
                             (1, "jacobi_eigvalsh_many", True)):
        original = getattr(linalg, name)
        wrapper = counting(slot, original, many)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "nplab" and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return count
