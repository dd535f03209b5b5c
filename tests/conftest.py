import pytest

from gphier import dynamics, tensor


@pytest.fixture(params=["matrix", "gather"])
def kernel(request, monkeypatch):
    """The collision kernel under test, by name.

    'matrix' keeps MATRIX_DOMAIN_CAP, so the small lattices of the tests
    apply the cached matrices; 'gather' lowers the cap to 1, so every
    collision takes the pair reduction and shift gathers.
    """
    if request.param == "gather":
        monkeypatch.setattr(dynamics, "MATRIX_DOMAIN_CAP", 1)
    return request.param


class CheckedStore(tensor.Store):
    """A store that checks, after every get, that it is least-recently-used
    within its budget: the key just used is the newest entry, the entries
    are the most recently used keys in order of use, and the running total
    counts them and fits the budget (or one entry alone exceeds it)."""

    def __init__(self, budget):
        super().__init__(budget)
        self.used = []  # every key got, oldest last use first

    def get(self, key, build):
        value = super().get(key, build)
        if key in self.used:
            self.used.remove(key)
        self.used.append(key)
        keys = list(self.entries)
        assert keys == self.used[-len(keys):]
        assert self.entries[key] is value
        assert self.total == sum(map(tensor._seal, self.values()))
        assert self.total <= self.budget or len(keys) == 1
        return value


@pytest.fixture
def checked_store(monkeypatch):
    """install(module, name, budget): put an empty CheckedStore of `budget`
    in place of the store module.name for the test; returns it."""
    def install(module, name, budget):
        store = CheckedStore(budget)
        monkeypatch.setattr(module, name, store)
        return store
    return install
