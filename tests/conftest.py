import pytest

from gphier import dynamics


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
