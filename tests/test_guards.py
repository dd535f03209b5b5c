"""Every runtime size guard refuses in one form, naming the config field.

Each case lowers a cap as the other tests do and drives one guard site
over it.  The refusal is a MemoryGuardError raised by `tensor.check_size`,
whose message starts with the field at fault (M or d for the lattice, q
for the quadrature) and ends with the cap it exceeds.  A case whose call
reads a per-process cache (`_warm`) first runs under the default caps, so
the call meets a warm cache at the key it asks for: its guard must run
before the lookup.
"""

import numpy as np
import pytest

from gphier import duhamel, dynamics, randomization, tensor
from gphier.dynamics import HierarchyMode, full_collision, full_collision_matrix
from gphier.duhamel import DuhamelEvaluator, QuadratureSpec
from gphier.lattice import FrequencyLattice
from gphier.randomization import (collision_omega_operator_norm,
                                  enumerate_fields, sample_field)
from gphier.tensor import (DensityMatrix, MemoryGuardError, odd_classes,
                           random_density_matrix, random_state)

LAT = FrequencyLattice(1, 1)  # F = 3
TIMES = np.linspace(0.0, 0.3, 30)


def _dense(mp):
    # F^4 = 81 entries of a dense order-2 tensor
    mp.setattr(tensor, "MEMORY_GUARD", 80)
    return lambda: DensityMatrix.zeros(LAT, 2), "M", 80


def _odd_masks_M(mp):
    return lambda: odd_classes(FrequencyLattice(1, 31), 1), "M", 62


def _odd_masks_d(mp):
    return lambda: odd_classes(FrequencyLattice(2, 4), 1), "d", 62


def _shift_buffer(mp):
    # the order-3 gather collision's pair-reduced sum: F^4 (4M+1) = 405
    g = random_density_matrix(LAT, 3, 40)
    mp.setattr(dynamics, "MATRIX_DOMAIN_CAP", 1)
    mp.setattr(tensor, "MEMORY_GUARD", 404)
    return lambda: full_collision(g), "M", 404


def _warm(owner, name, cap, run, field):
    """Run once under the default caps, then lower owner.name to cap."""
    def case(mp):
        run()
        mp.setattr(owner, name, cap)
        return run, field, cap
    return case


# the order-2 collision matrix and operator norm at d=2 have a domain of
# 9^4 = 6561; the order-2 class masks and labels of F=3 cover 3^4 = 81
# coefficients
LAT2 = FrequencyLattice(2, 1)
_matrix = _warm(dynamics, "MATRIX_DOMAIN_CAP", 6560,
                lambda: full_collision_matrix(LAT2, 2), "d")


def _split_chunk():
    # the order-2 class-energy split and its chunk of 5 of the 9 energies
    ev = DuhamelEvaluator(random_state(LAT2, 1, 5))
    return ev._split(2, 0, 5, True)


_class_split = _warm(dynamics, "MATRIX_DOMAIN_CAP", 6560, _split_chunk, "d")
_odd_masks_guard = _warm(tensor, "MEMORY_GUARD", 80, lambda: odd_classes(LAT, 2), "M")
_operator_norm = _warm(randomization, "NORM_DOMAIN_CAP", 6560,
                       lambda: collision_omega_operator_norm(LAT2, 1, 1, 1.0), "d")


def _chain(cap, field):
    # a depth-3 chain column has 729 rows at level 3, and the
    # Gauss-Legendre tree 30 q^3 = 810 time nodes
    def case(mp):
        st = random_state(LAT, 4, 33, alpha=1.0, level_norms=[1.0] * 4)
        ev = DuhamelEvaluator(st, [HierarchyMode.dependent(sample_field(LAT, 34))],
                              QuadratureSpec(q=3))
        mp.setattr(duhamel, "CHAIN_CAP", cap)
        return lambda: ev.term_batch(1, 3, TIMES), field, cap
    return case


def _terms(mp):
    # eight shared fields' level-1 terms at 30 times hold 8 * 9 * 30 = 2160
    st = random_state(LAT, 3, 40, alpha=1.0, level_norms=[1.0] * 3)
    ev = DuhamelEvaluator(st, [HierarchyMode.dependent(f)
                               for f in enumerate_fields(LAT)], QuadratureSpec(q=3))
    mp.setattr(duhamel, "CHAIN_CAP", 2000)
    return lambda: ev.term_batch(1, 2, TIMES), "M", 2000


@pytest.mark.parametrize("case", [
    _dense, _odd_masks_M, _odd_masks_d, _odd_masks_guard, _shift_buffer,
    _matrix, _class_split, _chain(700, "M"), _chain(800, "q"), _terms,
    _operator_norm,
], ids=["dense", "odd-masks-M", "odd-masks-d", "odd-masks", "shift-buffer",
        "matrix", "class-split", "chain-block", "gauss-legendre-tree",
        "duhamel-terms", "operator-norm"])
def test_guard_names_field_and_cap(case, monkeypatch):
    run, field, cap = case(monkeypatch)
    with pytest.raises(MemoryGuardError) as info:
        run()
    msg = str(info.value)
    assert msg.startswith(f"{field}: "), msg
    assert msg.endswith(f"that exceeds the cap {cap}"), msg
