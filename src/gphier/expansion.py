"""Symbolic Fourier-domain expansion of randomized collision chains.

A chain of collision operators interleaved with free propagators,
applied to an order-(k+j+1) density matrix, expands into a single
structured sum over formal frequency symbols: the input-slot symbols
decompose the surviving output frequencies with +-1 coefficients, the
sign factors reduce through h^2 = 1, and the per-gap phases are
quadratic forms in the symbols.  Frequencies are kept as formal integer
combinations of atoms until numeric evaluation assigns lattice points.

The module also provides the non-resonant support tools (strictly
decreasing frequency moduli with geometric level-norm bounds).
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import collision, free_evolve
from .tensor import DensityMatrix, HierarchyState, h_alpha_norm

__all__ = [
    "OperatorChainSpec",
    "SymbolicExpansion",
    "expand_chain",
    "expand_difference",
    "evaluate_expansion",
    "direct_composition",
    "f_bound_constant",
    "example1_chain",
    "NonresonanceReport",
    "nonresonant_check",
    "nonresonant_sample",
    "expansion_debug_obj",
]


@dataclass(frozen=True)
class OperatorChainSpec:
    """A chain of j+1 collisions with j propagator gaps.

    steps are listed in application order (innermost first); step i
    acts on a matrix of order k+j+1-(i-1), so it needs
    ell_i < n_i <= k+j+1-(i-1).  times = (t, t_1, ..., t_j) are the
    slot times of the gaps, outermost gap first.
    """

    k: int
    steps: tuple
    times: tuple

    def __post_init__(self):
        steps = tuple((int(l), int(n), s) for l, n, s in self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        j = self.j
        if len(self.times) != j + 1:
            raise ValueError(f"need j+1={j + 1} time slots, got {len(self.times)}")
        for i, (l, n, s) in enumerate(steps, start=1):
            bound = self.k + j + 1 - (i - 1)
            if not (1 <= l < n <= bound):
                raise ValueError(
                    f"step {i} positions ({l},{n}) violate ell < n <= {bound}"
                )
            if s not in ("+", "-"):
                raise ValueError(f"step {i} sign must be '+' or '-'")

    @property
    def j(self):
        return len(self.steps) - 1

    def gap_durations(self):
        t = self.times
        return tuple(t[g] - t[g + 1] for g in range(self.j))


@dataclass
class SymbolicExpansion:
    """Formal expansion of a collision chain (one structured term).

    Expressions are integer coefficient vectors over the atom list
    [u_1..u_k, p_1..p_k, a_1, b_1, ..., a_(j+1), b_(j+1)]: output
    unprimed/primed frequencies plus one contracted pair per collision.
    """

    spec: OperatorChainSpec
    atom_names: list
    eta_unprimed: list      # final input-slot expressions (the eta symbols)
    eta_primed: list
    h_factors: list         # reduced sign-factor expressions, outermost first
    combined: list          # one combined-frequency expression per collision
    gap_stages: list        # per gap: (unprimed slot exprs, primed slot exprs)
    A: set                  # output unprimed indices hit by a collision
    B: set
    A_decomp: dict          # r -> {eta symbol name: +-1}
    B_decomp: dict
    has_difference: bool = False
    nu: dict = None         # first-collision pair decompositions (difference)
    nu_prime: dict = None

    @property
    def k(self):
        return self.spec.k

    @property
    def j(self):
        return self.spec.j


def _unit(natoms, idx):
    v = np.zeros(natoms, dtype=np.int64)
    v[idx] = 1
    return v


def _build(spec):
    k, j = spec.k, spec.j
    natoms = 2 * k + 2 * (j + 1)
    names = [f"u{r}" for r in range(1, k + 1)] + [f"p{r}" for r in range(1, k + 1)]
    for i in range(1, j + 2):
        names += [f"a{i}", f"b{i}"]
    unprimed = [_unit(natoms, r) for r in range(k)]
    primed = [_unit(natoms, k + r) for r in range(k)]
    h_all = []
    combined = []
    gap_stages = []
    A, B = set(), set()
    # process outermost collision first (reverse of application order)
    for i, (ell, n, sign) in enumerate(reversed(spec.steps), start=1):
        ai = _unit(natoms, 2 * k + 2 * (i - 1))
        bi = _unit(natoms, 2 * k + 2 * (i - 1) + 1)
        if sign == "+":
            src = unprimed[ell - 1]
            comb = src - ai + bi
            unprimed[ell - 1] = comb
            if np.sum(np.abs(src)) == 1 and np.argmax(src) < k:
                A.add(int(np.argmax(src)) + 1)
        else:
            src = primed[ell - 1]
            comb = src - bi + ai
            primed[ell - 1] = comb
            if np.sum(np.abs(src)) == 1 and k <= int(np.argmax(src)) < 2 * k:
                B.add(int(np.argmax(src)) - k + 1)
        h_all.extend([src, comb, ai, bi])
        combined.append(comb)
        unprimed.insert(n - 1, ai)
        primed.insert(n - 1, bi)
        if i <= j:
            gap_stages.append(([e.copy() for e in unprimed],
                               [e.copy() for e in primed]))
    # signs square to one: keep expressions with odd multiplicity, in order
    counts = {}
    for e in h_all:
        counts[tuple(e)] = counts.get(tuple(e), 0) + 1
    h_reduced, seen = [], set()
    for e in h_all:
        te = tuple(e)
        if counts[te] % 2 == 1 and te not in seen:
            h_reduced.append(e)
            seen.add(te)
    # express atoms in the eta symbols: the slot-definition matrix is unimodular
    L = np.array(unprimed + primed, dtype=np.int64)
    Linv = np.linalg.inv(L.astype(np.float64))
    Linv = np.rint(Linv).astype(np.int64)
    if not np.array_equal(L @ Linv, np.eye(natoms, dtype=np.int64)):
        raise RuntimeError("slot-definition matrix is not unimodular")
    m = k + j + 1
    sym_names = [f"eta{r}" for r in range(1, m + 1)] + \
        [f"etap{r}" for r in range(1, m + 1)]

    def decomp_of(atom_idx):
        row = Linv[atom_idx]
        return {sym_names[s]: int(c) for s, c in enumerate(row) if c != 0}

    A_dec = {r: decomp_of(r - 1) for r in sorted(A)}
    B_dec = {r: decomp_of(k + r - 1) for r in sorted(B)}
    exp = SymbolicExpansion(
        spec=spec, atom_names=names,
        eta_unprimed=unprimed, eta_primed=primed,
        h_factors=h_reduced, combined=combined, gap_stages=gap_stages,
        A=A, B=B, A_decomp=A_dec, B_decomp=B_dec,
    )
    return exp, decomp_of


def expand_chain(spec):
    """Formal expansion of the chain; numeric evaluation matches composition."""
    exp, _ = _build(spec)
    return exp


def expand_difference(spec):
    """Expansion of the chain with the first propagator differenced in time.

    The outermost propagator carries the increment factor
    exp(-i delta F) - 1, where F is the first-gap phase energy.
    """
    if spec.j < 1:
        raise ValueError("difference form needs at least one propagator gap")
    exp, decomp_of = _build(spec)
    exp.has_difference = True
    k, j = spec.k, spec.j
    # pair atoms of the first (outermost) collision sit right after the outputs
    exp.nu = decomp_of(2 * k)
    exp.nu_prime = decomp_of(2 * k + 1)
    return exp


def _eval_exprs(exprs, atom_points, lattice):
    """Coordinates of each expression for every assignment; (n_expr, N, d)."""
    N = atom_points[0].shape[0]
    out = np.zeros((len(exprs), N, lattice.d), dtype=np.int64)
    for i, e in enumerate(exprs):
        for t, c in enumerate(e):
            if c != 0:
                out[i] += c * atom_points[t]
    return out


def _in_box_atoms(exp, lattice):
    """Point indices of every atom over the symbol assignments that keep each
    combined frequency in the box (the collision drop rule), one array per
    atom."""
    F, natoms = lattice.size, 2 * exp.k + 2 * (exp.j + 1)
    idx = np.unravel_index(np.arange(F**natoms), (F,) * natoms)
    comb = _eval_exprs(exp.combined, [lattice.points[ix] for ix in idx], lattice)
    keep = np.nonzero(np.all(np.abs(comb) <= lattice.M, axis=(0, 2)))[0]
    return [ix[keep] for ix in idx]


def _gap_energy(stage, atom_pts, lattice):
    """|unprimed slots|^2 - |primed slots|^2 of a gap stage, per assignment."""
    ups, prs = stage
    sq = np.sum(_eval_exprs(ups + prs, atom_pts, lattice) ** 2, axis=2)
    return sq[:len(ups)].sum(axis=0) - sq[len(ups):].sum(axis=0)


def evaluate_expansion(exp, sigma, field, delta=0.0):
    """Numeric value of the expansion over in-lattice symbol assignments.

    Sums over all assignments of the free pair atoms (output frequencies
    enumerate the output tensor) with every intermediate combined
    frequency kept in the box, matching the collision drop rule.
    Returns the order-k density matrix; for a difference expansion the
    increment factor exp(-i delta F) - 1 multiplies each summand.
    """
    lat = sigma.lattice
    spec = exp.spec
    k, j = spec.k, spec.j
    m = k + j + 1
    if sigma.k != m:
        raise ValueError(f"sigma must have order {m}, got {sigma.k}")
    F = lat.size
    atom_idx = _in_box_atoms(exp, lat)
    atom_pts = [lat.points[ix] for ix in atom_idx]
    n = atom_idx[0].size

    # sigma lookup at the eta symbols
    slot_coords = _eval_exprs(exp.eta_unprimed + exp.eta_primed, atom_pts, lat)
    strides = F ** np.arange(2 * m - 1, -1, -1, dtype=np.int64)
    flat_in = np.zeros(n, dtype=np.int64)
    for s in range(2 * m):
        flat_in += lat.index_of(slot_coords[s]) * strides[s]
    vals = sigma.to_dense().data.reshape(-1)[flat_in]

    if field is not None:
        h = field.values.astype(np.float64)
        hfac_coords = _eval_exprs(exp.h_factors, atom_pts, lat)
        for s in range(len(exp.h_factors)):
            vals = vals * h[lat.index_of(hfac_coords[s])]

    durations = spec.gap_durations()
    for g, stage in enumerate(exp.gap_stages, start=1):
        energy = _gap_energy(stage, atom_pts, lat)
        if g == 1 and exp.has_difference:
            vals = vals * (np.exp(-1j * delta * energy) - 1.0)
            vals = vals * np.exp(-1j * spec.times[0] * energy)
        else:
            vals = vals * np.exp(-1j * durations[g - 1] * energy)

    out_strides = F ** np.arange(2 * k - 1, -1, -1, dtype=np.int64)
    flat_out = np.zeros(n, dtype=np.int64)
    for s in range(2 * k):
        flat_out += atom_idx[s] * out_strides[s]
    re = np.bincount(flat_out, weights=vals.real, minlength=F ** (2 * k))
    im = np.bincount(flat_out, weights=vals.imag, minlength=F ** (2 * k))
    data = (re + 1j * im).reshape((F,) * (2 * k))
    return DensityMatrix(lat, k, "dense", data=data)


def direct_composition(spec, sigma, field, delta=None):
    """The same chain evaluated by composing collision and free-evolution ops.

    With delta set, the outermost propagator is the difference
    U(t + delta) - U(t) at the first slot time, as in the differenced
    expansion.
    """
    j = spec.j
    durations = spec.gap_durations()
    cur = sigma
    for i, (ell, n, sign) in enumerate(spec.steps):
        cur = collision(cur, ell, n, sign, field)
        gap = j - i  # outermost-first gap index applied after this step
        if gap >= 1:
            if gap == 1 and delta is not None:
                t0 = spec.times[0]
                cur = free_evolve(cur, t0 + delta) - free_evolve(cur, t0)
            else:
                cur = free_evolve(cur, durations[gap - 1])
    return cur


def f_bound_constant(exp, lattice):
    """Empirical constant for the difference-factor growth bound.

    Enumerates all in-box assignments and returns the smallest C with
    |F| <= C^(k+j+1) * sum of squared symbol values, together with the
    maximum |F| encountered.
    """
    if not exp.has_difference:
        raise ValueError("expansion carries no difference factor")
    k, j = exp.k, exp.j
    atom_pts = [lattice.points[ix] for ix in _in_box_atoms(exp, lattice)]
    fval = _gap_energy(exp.gap_stages[0], atom_pts, lattice)
    eta_coords = _eval_exprs(exp.eta_unprimed + exp.eta_primed, atom_pts, lattice)
    denom = np.sum(eta_coords.astype(np.float64) ** 2, axis=(0, 2))
    nz = denom > 0
    assert np.all(np.abs(fval[~nz]) == 0)
    ratio = np.max(np.abs(fval[nz]) / denom[nz]) if np.any(nz) else 0.0
    c3 = ratio ** (1.0 / (k + j + 1)) if ratio > 0 else 0.0
    return max(c3, 1.0), float(np.max(np.abs(fval)))


def example1_chain(t=0.0):
    """The worked three-collision chain: k=2 with steps (1,2)+, (2,3)-, (4,5)-.

    Listed here in application order (innermost first); all interior slot
    times vanish.
    """
    return OperatorChainSpec(
        k=2, steps=((4, 5, "-"), (2, 3, "-"), (1, 2, "+")), times=(t, 0.0, 0.0)
    )


def expansion_debug_obj(exp):
    """JSON-ready dump of the expansion bookkeeping."""

    def expr_obj(e):
        return {exp.atom_names[i]: int(c) for i, c in enumerate(e) if c != 0}

    obj = {
        "k": exp.k,
        "j": exp.j,
        "steps": [list(s) for s in exp.spec.steps],
        "eta_unprimed": [expr_obj(e) for e in exp.eta_unprimed],
        "eta_primed": [expr_obj(e) for e in exp.eta_primed],
        "h_factors": [expr_obj(e) for e in exp.h_factors],
        "A": sorted(exp.A),
        "B": sorted(exp.B),
        "A_decomp": {str(r): d for r, d in exp.A_decomp.items()},
        "B_decomp": {str(r): d for r, d in exp.B_decomp.items()},
        "difference": exp.has_difference,
    }
    if exp.has_difference:
        obj["nu"] = exp.nu
        obj["nu_prime"] = exp.nu_prime
    return obj


# --- non-resonant class tools -------------------------------------------------


@dataclass
class NonresonanceReport:
    passed: bool
    witness_level: int = None
    witness: tuple = None
    c1: float = 0.0


def nonresonant_check(state):
    """Support check: strictly decreasing moduli |xi_1| > ... > |xi'_m|.

    Every nonzero coefficient's frequency tuple must have strictly
    decreasing Euclidean moduli, unprimed block before primed block.
    Also reports the smallest geometric level-norm constant
    max_m |gamma^(m)|^(1/m), in the L^2 (H^0) norm.
    """
    lat = state.lattice
    c1 = 0.0
    for m in range(1, state.K_max + 1):
        g = state.level(m)
        if g is None:
            continue
        c1 = max(c1, h_alpha_norm(g, 0.0) ** (1.0 / m))
        coo = g.to_coo()
        if coo.values.size == 0:
            continue
        sq = lat.energies[coo.indices]  # squared moduli per slot, (nnz, 2m)
        bad = np.any(sq[:, 1:] >= sq[:, :-1], axis=1)
        if np.any(bad):
            row = coo.indices[np.argmax(bad)]
            witness = tuple(tuple(int(c) for c in lat.points[i]) for i in row)
            return NonresonanceReport(False, m, witness, c1)
    return NonresonanceReport(True, c1=c1)


def nonresonant_sample(lattice, m_max, seed):
    """Random sparse hierarchy in the non-resonant class.

    Each level m holds up to four entries (fewer when draws repeat).  An
    entry draws 2m shells of distinct squared modulus (descending) and
    one point per shell.  Each level is scaled to L^2 (H^0) norm 0.9^m,
    so the geometric constant that `nonresonant_check` measures is 0.9,
    below 1.  Needs a lattice with at least 2*m_max distinct modulus
    shells.
    """
    energies = lattice.energies
    shell_values = np.unique(energies)[::-1]  # descending squared moduli
    if shell_values.size < 2 * m_max:
        raise ValueError(
            f"lattice has {shell_values.size} distinct modulus shells; "
            f"need {2 * m_max} for m_max={m_max}"
        )
    shells = [np.nonzero(energies == v)[0] for v in shell_values]
    rng = np.random.default_rng(seed)
    levels = {}
    for m in range(1, m_max + 1):
        rows = {}
        for _ in range(4):
            chosen = np.sort(rng.choice(shell_values.size, 2 * m, replace=False))
            pts = [int(rng.choice(shells[s])) for s in chosen]
            key = tuple(pts)
            rows[key] = rng.standard_normal() + 1j * rng.standard_normal()
        indices = np.array(list(rows.keys()), dtype=np.int64)
        values = np.array(list(rows.values()), dtype=np.complex128)
        g = DensityMatrix.from_coo(lattice, m, indices, values)
        g = g * (0.9**m / h_alpha_norm(g, 0.0))
        levels[m] = g
    return HierarchyState(lattice, m_max, levels)
