import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from gphier.lattice import FrequencyLattice, LatticeError, combine


def test_sizes():
    assert FrequencyLattice(1, 1).size == 3
    assert FrequencyLattice(2, 2).size == 25
    assert FrequencyLattice(3, 1).size == 27


def test_point_set_1d():
    lat = FrequencyLattice(1, 1)
    assert lat.points.ravel().tolist() == [-1, 0, 1]


@pytest.mark.parametrize("d,M", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2)])
def test_codec_bijection(d, M):
    lat = FrequencyLattice(d, M)
    idx = np.arange(lat.size)
    assert np.array_equal(lat.index_of(lat.freq_of(idx)), idx)
    # lexicographic enumeration
    pts = lat.points
    for i in range(len(pts) - 1):
        assert tuple(pts[i]) < tuple(pts[i + 1])


@settings(max_examples=50, deadline=None, database=None)
@given(dM=hst.sampled_from([(1, M) for M in range(1, 13)]
                           + [(2, M) for M in range(1, 7)]
                           + [(3, M) for M in range(1, 4)]),
       data=hst.data())
def test_codec_bijection_on_drawn_points(dM, data):
    # drawn indices and drawn in-box points both survive the round trip,
    # and index order is lexicographic coordinate order
    d, M = dM
    lat = FrequencyLattice(d, M)
    idx = np.array(data.draw(hst.lists(hst.integers(0, lat.size - 1),
                                       min_size=1, max_size=20), label="idx"))
    pts = lat.freq_of(idx)
    assert np.array_equal(lat.index_of(pts), idx)
    assert np.all(np.abs(pts) <= M)
    coords = np.array(data.draw(hst.lists(
        hst.lists(hst.integers(-M, M), min_size=d, max_size=d),
        min_size=1, max_size=20), label="coords"))
    assert np.array_equal(lat.freq_of(lat.index_of(coords)), coords)
    for a, pa, b, pb in zip(idx[:-1], pts[:-1], idx[1:], pts[1:]):
        assert (a < b) == (tuple(pa) < tuple(pb))


def test_bad_parameters():
    with pytest.raises(LatticeError):
        FrequencyLattice(0, 1)
    with pytest.raises(LatticeError):
        FrequencyLattice(4, 1)
    with pytest.raises(LatticeError):
        FrequencyLattice(1, 0)


def test_out_of_range_queries():
    lat = FrequencyLattice(1, 1)
    with pytest.raises(LatticeError):
        lat.index_of([2])
    with pytest.raises(LatticeError):
        lat.freq_of(3)


def test_combine_examples():
    lat = FrequencyLattice(1, 1)
    assert combine([0], [1], [1], lat).tolist() == [0]
    assert combine([1], [-1], [1], lat) is None
    lat2 = FrequencyLattice(2, 2)
    assert combine([1, 0], [0, 1], [1, 1], lat2).tolist() == [2, 0]


def test_combine_identities():
    lat = FrequencyLattice(1, 2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        xi, a, b = (rng.integers(-2, 3, size=1) for _ in range(3))
        out = combine(xi, a, a, lat)
        assert out is not None and out.tolist() == list(xi)
        assert combine(xi, xi, b, lat).tolist() == list(b)
        out2 = combine(xi, a, b, lat)
        in_box = np.all(np.abs(xi - a + b) <= 2)
        assert (out2 is not None) == in_box


def test_combine_rejects_nonmembers():
    lat = FrequencyLattice(1, 1)
    with pytest.raises(LatticeError):
        combine([2], [0], [0], lat)
