import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from gphier.lattice import FrequencyLattice, LatticeError


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
