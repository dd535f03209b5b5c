"""Experiment drivers: configuration, checks, reporting, command line.

Each subcommand binds one verification family to a reproducible run:
given the same config, seed, and BLAS thread count, the JSON report is
byte-identical up to its timestamp.  Exit status is 0 when every check
passes, 1 on a check failure, 2 on a config error, which includes an
input file that holds no JSON object and an unwritable --out or --csv
directory.
"""

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from . import __version__
from .lattice import FrequencyLattice
from .tensor import (
    MEMORY_GUARD,
    DensityMatrix,
    HierarchyState,
    MemoryGuardError,
    data_classes,
    h_alpha_norm,
    lattice_field,
    project,
    random_density_matrix,
    random_state,
    sobolev_apply,
)
from .dynamics import (
    MATRIX_DOMAIN_CAP,
    VARIANTS,
    HierarchyMode,
    _field_signs,
    conjugate,
    continuity_defect,
    evolve_truncated,
    free_evolve,
    full_collision,
    full_collision_matrix,
    phase_inequality_scan,
    real_matmul,
)
from .duhamel import (
    CHAIN_CAP,
    DuhamelEvaluator,
    QuadratureSpec,
    cauchy_diagnostic,
    decay_profile,
    integral_residual,
    simplex_check,
    solution_time_modulus,
)
from .randomization import (
    ENUMERATION_CAP,
    NORM_DOMAIN_CAP,
    all_plus,
    collision_omega_operator_norm,
    omega_l2_h_alpha,
    randomize_function,
    sample_field,
)
from .expansion import (
    direct_composition,
    evaluate_expansion,
    example1_chain,
    expand_chain,
    expand_difference,
    expansion_debug_obj,
    nonresonant_check,
    nonresonant_sample,
)
from . import nls as nlsmod

__all__ = ["ExperimentConfig", "ConfigError", "Report", "run_experiment", "main"]

KINDS = (
    "verify", "estimate-c0", "decay", "converge", "residual",
    "continuity", "nls", "expand", "report-merge",
)

# estimate-c0's exact average enumerates at most 2^10 sign fields; the
# other exact averages go by odd-multiplicity classes and enumerate none
FIELD_BITS = 10


class ConfigError(ValueError):
    """Invalid experiment configuration; carries per-field messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "verify"
    d: int = 1
    M: int = 1
    K_max: int = 3
    N: int = 2
    alpha: float = 1.0
    alpha0: float = 2.0
    xi: float = 0.25
    xi_prime: float = 0.5
    T: float = 0.1
    dt: float = 1e-3
    q: int = 12
    mc_samples: int = 10000
    seed: int = 7
    mode: str = "deterministic"
    grid_points: int = 11

    def _size_problem(self, F):
        """The largest size this kind builds, checked before any state is.

        A size is a dense array or, for estimate-c0, a count of sign fields
        or Monte Carlo samples averaged over.  Dependent-mode decay also
        needs enough modulus shells on the lattice.

        Returns a message naming the field at fault, or None.  Sizes are
        compared in logarithms, so a huge N or K_max costs nothing.
        """
        if self.kind == "nls":
            # nls runs on the M' = max(M, 2) lattice
            F = (2 * max(self.M, 2) + 1) ** self.d
        logF = math.log(F)
        big = lattice_field(self.d)
        # continuity splits its solutions by class paths, a level-m class being
        # a point set of even size <= 2m (`DuhamelEvaluator._class_terms`)
        n_cont = min(self.N, self.K_max, 3)
        split = max((2 * k * logF + sum(math.log(sum(
            math.comb(F, i) for i in range(0, min(2 * m, F) + 1, 2)))
            for m in range(k + 1, n_cont + 1)) for k in range(1, n_cont)), default=0.0)
        limits = []
        if self.mode != "dependent":
            # the chain bound's operator norms.  This row binds independent
            # decay, whose exact profile takes class paths and enumerates no
            # field: the largest config it admits, d=1 M=7 K_max=2, takes
            # about 1.9 s and 190 MiB on a 2-core host at one BLAS thread.
            # At K_max=2 the lattice is at fault
            limits.append(("decay", "K_max" if F**4 <= NORM_DOMAIN_CAP else big,
                           2 * min(self.K_max, 4) * logF, NORM_DOMAIN_CAP,
                           "operator norms of the order-min(K_max, 4) "
                           "collisions on F^(2 min(K_max, 4)) coefficients"))
        # continuity's dense order-2 sample, which it builds at every N
        limits.append(("continuity", big, 4 * logF, MEMORY_GUARD,
                       "a dense order-2 sample tensor of F^4 entries"))
        # the highest-order collision matrix each kind builds, and the field
        # its order is read from: verify evolves at N=3, the decay profile
        # builds orders 2..min(K_max, 4), and continuity at N'=1 none
        matrix = {"residual": ("N", self.N), "converge": ("N", self.N + 1),
                  "continuity": ("N", n_cont), "verify": (big, 3),
                  "decay": ("K_max", min(self.K_max, 4))}
        if self.kind in matrix and matrix[self.kind][1] >= 2:
            name, order = matrix[self.kind]
            limits.append((self.kind, name, 2 * order * logF, MATRIX_DOMAIN_CAP,
                           f"the order-{order} collision matrix on "
                           f"F^{2 * order} coefficients"))
        limits += [
            # the deepest Duhamel term's Gauss-Legendre tree, q floored at 16
            ("residual", "N", math.log(self.grid_points)
             + (self.N - 1) * math.log(max(self.q, 16)), CHAIN_CAP,
             "a depth-(N-1) Gauss-Legendre tree of grid_points max(q, 16)^(N-1) "
             "time nodes"),
            ("continuity", big, math.log(8) + split, CHAIN_CAP, "the class "
             "split of its solutions at 8 times: at levels k < N' = min(N, "
             "K_max, 3), F^(2k) coefficients by the class paths of k+1..N'"),
            # the exact Omega-average; the operator norm takes no field
            ("estimate-c0", big, F * math.log(2), 2**FIELD_BITS,
             "an exact average over every sign field, 2^F of them"),
            # the Monte Carlo average holds every sample's mode at once
            ("estimate-c0", "mc_samples", math.log(max(self.mc_samples, 1)),
             ENUMERATION_CAP, "a Monte Carlo average over mc_samples points of "
             "Omega, each sample's fields held at once"),
            # the k=2 residual streams the order-3 tensor power into the
            # gather collision.  The row bounds the whole pair-reduced sum,
            # its shift buffer, though the kernel holds one F-th of it at a
            # time; the kernel refuses the same size (`dynamics._collide`)
            ("nls", big, 4 * logF + self.d * math.log(4 * max(self.M, 2) + 1),
             MEMORY_GUARD, "the order-3 collision's shift buffer on "
             "F^4 (4M+1)^d entries, with M read as max(M, 2)"),
            # verify's random hierarchy: dense levels of orders 1..K_max
            ("verify", "K_max", 2 * self.K_max * logF, MEMORY_GUARD,
             "dense random levels of orders 1..K_max, F^(2 K_max) entries "
             "at the top"),
        ]
        # dependent decay and converge climb once per odd-multiplicity class
        # of their data, at most 16 (no row): decay reads <= 4 levels of <= 4
        # entries, and converge's row keeps F <= 5, with 2^4 even-size masks
        for kind, name, log_size, cap, what in limits:
            if kind == self.kind and log_size > math.log(cap):
                return (f"{name}: {self.kind} builds {what}, F = (2M+1)^d = "
                        f"{F}; at {name}={getattr(self, name)} that exceeds "
                        f"the cap {cap}")
        # the non-resonant sample draws 2 K_max distinct modulus shells.  Every
        # lattice has the two of K_max = 1 (energies 0 and 1); at K_max >= 2
        # the decay row above holds F^4 <= 2^21, so the lattice is cheap
        if self.kind == "decay" and self.mode == "dependent" and self.K_max >= 2:
            shells = np.unique(FrequencyLattice(self.d, self.M).energies).size
            if shells < 2 * self.K_max:
                return (f"M: dependent-mode decay needs 2*K_max = "
                        f"{2 * self.K_max} distinct modulus shells; the "
                        f"d={self.d}, M={self.M} lattice has {shells}")
        return None

    def validate(self):
        problems = []
        for f in fields(self):
            v = getattr(self, f.name)
            whole = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            finite = whole or (isinstance(v, (float, np.floating)) and math.isfinite(v))
            if f.type is int and not whole:
                problems.append(f"{f.name}: must be an integer, got {v!r}")
            elif f.type is float and not finite:
                problems.append(f"{f.name}: must be a finite number, got {v!r}")
        if problems:  # the checks below compare numbers
            raise ConfigError(problems)
        least = {"M": 1, "K_max": 1, "N": 1, "q": 2, "grid_points": 2, "seed": 0}
        problems = [f"{name}: must be >= {low}, got {getattr(self, name)}"
                    for name, low in least.items() if getattr(self, name) < low]
        if self.seed >= 2**62:  # streams key signed int64s by seed plus small offsets
            problems.append(f"seed: must be < 2^62, got {self.seed}")
        if self.kind not in KINDS:
            problems.append(f"kind: unknown kind {self.kind!r}")
        if not (1 <= self.d <= 3):
            problems.append(f"d: must be 1..3, got {self.d}")
        if self.kind in ("residual",) and self.K_max < self.N:
            problems.append(f"K_max: need K_max >= N={self.N}, got {self.K_max}")
        if self.kind == "residual" and self.N < 2:
            problems.append(f"N: residual checks the integral equation on levels "
                            f"1..N-1, so it needs N >= 2; got {self.N}")
        if self.kind == "decay" and self.K_max < 2:
            problems.append(f"K_max: decay needs K_max >= 2, got {self.K_max}")
        elif self.kind == "decay" and self.mode == "dependent" and self.K_max < 3:
            problems.append(f"K_max: dependent-mode decay compares depths >= 2 "
                            f"with depth 1, so it needs K_max >= 3; got {self.K_max}")
        if 1 <= self.d <= 3 and self.M >= 1:
            size = self._size_problem((2 * self.M + 1) ** self.d)
            if size:
                problems.append(size)
        if self.kind == "converge" and self.K_max < self.N + 1:
            problems.append(
                f"K_max: converge needs K_max >= N+1={self.N + 1}, got {self.K_max}"
            )
        if self.kind == "converge" and self.N < 3:
            problems.append(f"N: converge compares D(2..N), so it needs N >= 3 "
                            f"for a ratio to check; got {self.N}")
        if self.xi <= 0 or self.xi_prime <= 0 or self.xi >= self.xi_prime:
            problems.append(
                f"xi: need 0 < xi < xi_prime, got xi={self.xi}, "
                f"xi_prime={self.xi_prime}"
            )
        if self.kind == "continuity" and self.alpha <= 0:
            problems.append(f"alpha: continuity needs alpha > 0, got alpha={self.alpha}")
        if self.alpha0 <= self.alpha:
            problems.append(
                f"alpha0: need alpha0 > alpha, got alpha0={self.alpha0}, "
                f"alpha={self.alpha}"
            )
        if self.T <= 0 or self.dt <= 0:
            problems.append(f"T/dt: must be positive, got T={self.T}, dt={self.dt}")
        elif self.kind == "nls":
            n, interior = _nls_steps(self)
            if abs(n * self.dt - self.T) > 1e-9:
                problems.append(f"dt: nls steps to T={self.T} in whole steps of "
                                f"dt, got dt={self.dt}")
            elif not 3 <= min(interior) <= max(interior) <= n - 3:
                problems.append(f"T: nls needs T >= 13 dt, so that its residual "
                                f"times lie three steps inside the trajectory; "
                                f"got T/dt = {n}")
        if self.mc_samples < (2 if self.kind == "estimate-c0" else 0) \
                or self.mc_samples == 1:
            problems.append(f"mc_samples: need 0 (exact) or >= 2, and >= 2 for "
                            f"estimate-c0; got {self.mc_samples}")
        if self.mode not in VARIANTS:
            problems.append(f"mode: unknown mode {self.mode!r}")
        if problems:
            raise ConfigError(problems)
        return self


@dataclass
class Report:
    config: dict
    checks: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def check(self, name, measured, threshold, provenance, kind="le"):
        """Record one check: measured <= threshold ("le") or < threshold ("lt").

        A non-finite measured value always fails.
        """
        if kind == "le":
            passed = bool(measured <= threshold)
        elif kind == "lt":
            passed = bool(measured < threshold)
        else:
            raise ValueError(kind)
        passed = passed and bool(np.isfinite(measured))
        self.checks.append(
            {
                "name": name,
                "measured": measured,
                "threshold": threshold,
                "provenance": provenance,
                "passed": passed,
            }
        )
        return passed

    @property
    def passed(self):
        """True when every check passed; a report with no checks checked nothing."""
        return bool(self.checks) and all(c["passed"] for c in self.checks)

    def to_obj(self):
        return {
            "config": self.config,
            "checks": self.checks,
            "constants": self.constants,
            "environment": self.environment,
            "passed": self.passed,
        }

    def dump(self, path):
        """Write the report as strict JSON.

        A non-finite float is written as the string "nan", "inf" or "-inf".
        """
        with open(path, "w") as fh:
            json.dump(_finite_json(self.to_obj()), fh, indent=1, sort_keys=True,
                      allow_nan=False)


def _finite_json(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


# symbols through which an OpenBLAS build reports its thread count
_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads", "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
)


@functools.cache
def _blas_threads():
    """Largest thread count among the OpenBLAS copies loaded in this process.

    None where it cannot be read: no OpenBLAS is loaded, or the process
    has no /proc/self/maps (not Linux).  Read once per process, at the
    first report: nothing in the package sets the count.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    counts = []
    for lib in libs:
        for sym in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts.append(int(fn()))
                break
    return max(counts, default=None)


def _environment(cfg):
    import scipy

    return {
        "package_version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_count": _blas_threads(),
        "seed": cfg.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _worst(values, empty=0.0):
    """Largest of `values`, NaN if any is NaN; builtin max() can drop a NaN."""
    values = list(values)
    return float(np.max(values)) if values else empty


def _write_csv(csv_dir, name, header, rows):
    if csv_dir is None:
        return
    os.makedirs(csv_dir, exist_ok=True)
    path = os.path.join(csv_dir, name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _nls_steps(cfg):
    """nls step count T/dt and the steps of its three interior residual times."""
    interior = [round(x, 10) for x in np.linspace(0.2 * cfg.T, 0.8 * cfg.T, 3)]
    return round(cfg.T / cfg.dt), [round(t / cfg.dt) for t in interior]


# --- experiment bodies --------------------------------------------------------


def _run_verify(cfg, rep, csv_dir):
    lat = FrequencyLattice(cfg.d, cfg.M)
    rng = np.random.default_rng(cfg.seed)
    # codec round trip
    idx = np.arange(lat.size)
    rep.check("lattice.codec_bijection",
              int(np.sum(lat.index_of(lat.freq_of(idx)) != idx)), 0, "TRIVIAL")
    # weight inverse and norm identities
    g = random_density_matrix(lat, 2, cfg.seed)
    double = sobolev_apply(sobolev_apply(g, cfg.alpha), -cfg.alpha)
    rep.check(
        "tensor.weight_inverse",
        h_alpha_norm(double - g, 0.0) / h_alpha_norm(g, 0.0), 1e-14, "TRIVIAL",
    )
    rep.check(
        "tensor.h0_is_l2",
        abs(h_alpha_norm(g, 0.0) - float(np.linalg.norm(g.data.reshape(-1)))),
        1e-12, "DERIVED",
    )
    # projection complementarity
    st = random_state(lat, cfg.K_max, cfg.seed + 1)
    left, right = project(st, 2, "leq"), project(st, 2, "gt")
    gaps = []
    for k in range(1, cfg.K_max + 1):
        a = left.level(k) or right.level(k)
        if a is not None and st.level(k) is not None:
            gaps.append(h_alpha_norm(a - st.level(k), 0.0))
    rep.check("tensor.projection_complement", _worst(gaps), 0.0, "TRIVIAL")
    # unitarity and semigroup
    t1, t2 = rng.uniform(0, 2, size=2)
    rep.check(
        "dynamics.unitarity",
        abs(h_alpha_norm(free_evolve(g, t1), cfg.alpha) - h_alpha_norm(g, cfg.alpha))
        / h_alpha_norm(g, cfg.alpha),
        1e-13, "TRIVIAL",
    )
    semi = free_evolve(free_evolve(g, t1), t2) - free_evolve(g, t1 + t2)
    rep.check("dynamics.semigroup",
              h_alpha_norm(semi, 0.0) / h_alpha_norm(g, 0.0), 1e-13, "TRIVIAL")
    # randomization identities
    f = sample_field(lat, cfg.seed + 2)
    g3 = random_density_matrix(lat, 3, cfg.seed + 3)
    det = full_collision(g3)
    plus = full_collision(g3, all_plus(lat))
    rep.check("random.all_plus_recovery_bitwise",
              int(not np.array_equal(det.data, plus.data)), 0, "PAPER")
    vec = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    rep.check(
        "random.randomize_norm_preserved",
        abs(np.linalg.norm(randomize_function(vec, f)) - np.linalg.norm(vec)),
        0.0, "PAPER",
    )
    rep.check(
        "random.randomize_involution",
        float(np.max(np.abs(randomize_function(randomize_function(vec, f), f) - vec))),
        0.0, "TRIVIAL",
    )
    # mode collapse, bitwise
    st2 = random_state(lat, 3, cfg.seed + 4)
    dep = evolve_truncated(st2, 3, 0.05, HierarchyMode.dependent(f),
                           grid_times=(0.0, 0.05))
    ind = evolve_truncated(st2, 3, 0.05, HierarchyMode.independent({2: f, 3: f}),
                           grid_times=(0.0, 0.05))
    same = all(
        np.array_equal(a.level(k).data, b.level(k).data)
        for a, b in zip(dep.states, ind.states) for k in (1, 2, 3)
    )
    rep.check("dynamics.mode_collapse_bitwise", int(not same), 0, "PAPER")
    # collision linearity
    ga, gb = random_density_matrix(lat, 2, 11), random_density_matrix(lat, 2, 12)
    lin = full_collision(2.5 * ga + (-1.25j) * gb, f) \
        - (2.5 * full_collision(ga, f) + (-1.25j) * full_collision(gb, f))
    rep.check("dynamics.collision_linearity",
              h_alpha_norm(lin, 0.0) / h_alpha_norm(full_collision(ga, f), 0.0),
              1e-14, "TRIVIAL")
    # simplex identity
    quad = QuadratureSpec(q=cfg.q)
    errs = []
    for j in (1, 2, 3, 4):
        for t in (0.3, 0.7, 1.0):
            num, ex = simplex_check(j, t, quad)
            errs.append(abs(num - ex))
    rep.check("duhamel.simplex_identity", _worst(errs), 1e-10, "PAPER")


def _run_estimate_c0(cfg, rep, csv_dir):
    lat = FrequencyLattice(cfg.d, cfg.M)
    k, j = 1, 1
    # gamma, then the trial data whose ratios the operator norm bounds
    gs = [random_density_matrix(lat, k + 1, cfg.seed, alpha=cfg.alpha, norm=1.0)] \
        + [random_density_matrix(lat, k + 1, cfg.seed + 100 + trial)
           for trial in range(20)]
    block = np.stack([g.to_dense().data.reshape(-1) for g in gs], axis=1)
    # at k = j = 1 the (+) - (-) collision pair is the order-2 full collision
    B = full_collision_matrix(lat, k + 1)
    shape = (lat.size,) * (2 * k)

    def randomized_norms(n):
        """norms(): per mode, the shared-field collision's norm on each of gs[:n]."""
        def norms(modes):
            out = []
            for md in modes:
                cols = conjugate(lambda X: real_matmul(B, X), block[:, :n],
                                 _field_signs(lat, md.field, k + 1))
                out.append([h_alpha_norm(DensityMatrix(
                    lat, k, "dense", data=c.reshape(shape)), cfg.alpha)
                    for c in cols.T])
            return out
        return norms

    # enumerated on purpose: this average is the side of
    # random.opnorm_majorizes_ratios that draws fields, against the
    # class-lifted operator norm that draws none
    exact = omega_l2_h_alpha(randomized_norms(len(gs)), "dependent", lat, [0])
    mc = omega_l2_h_alpha(randomized_norms(1), "dependent", lat, [0],
                          mc_samples=cfg.mc_samples, seed=cfg.seed)
    rep.constants["omega_norm_exact"] = exact.value[0]
    rep.constants["omega_norm_mc"] = mc.value[0]
    rep.constants["omega_norm_mc_stderr"] = mc.stderr[0]
    rep.check(
        "random.exact_vs_mc_4sigma",
        abs(mc.value[0]**2 - exact.value[0]**2), 4.0 * mc.stderr[0], "DERIVED",
    )
    sigma = collision_omega_operator_norm(lat, k, j, cfg.alpha)
    rep.constants["c0_exact_operator_norm"] = sigma
    worst_ratio = _worst(est / h_alpha_norm(g, cfg.alpha)
                         for est, g in zip(exact.value[1:], gs[1:]))
    rep.constants["c0_empirical"] = worst_ratio
    rep.check("random.opnorm_majorizes_ratios", worst_ratio,
              sigma * (1 + 1e-12), "DERIVED")


def _run_decay(cfg, rep, csv_dir):
    lat = FrequencyLattice(cfg.d, cfg.M)
    k = 1
    j_max = min(3, cfg.K_max - k)
    if cfg.mode == "dependent":
        state = nonresonant_sample(lat, cfg.K_max, cfg.seed)
    else:
        # the profile reads levels up to k + j_max
        state = random_state(lat, k + j_max, cfg.seed, alpha=cfg.alpha,
                             level_norms=[1.0] * (k + j_max))
    # one evaluator for both levels, so level k+1 reuses the leaf blocks
    ev = DuhamelEvaluator(state, quad=QuadratureSpec(q=cfg.q))
    norms, normalized = decay_profile(ev, k, cfg.T, cfg.mode, j_max, alpha=cfg.alpha)
    rep.constants["decay_norms"] = [float(x) for x in norms]
    rep.constants["decay_normalized"] = [float(x) for x in normalized]
    _write_csv(csv_dir, "decay_profile.csv", ["j", "norm", "normalized"],
               [(j, float(norms[j]), float(normalized[j]))
                for j in range(j_max + 1)])
    # smallness diagnostics: per-depth growth factor and level-1 -> level-2
    # growth factor, reported against the xi, xi' weights (informational)
    growth = [float(norms[j + 1] / norms[j]) for j in range(j_max)
              if norms[j] > 0]
    if growth:
        c1_hat = max(growth) / cfg.T
        rep.constants["c1_hat"] = c1_hat
        rep.constants["c1T_over_xi_prime"] = c1_hat * cfg.T / cfg.xi_prime
    if cfg.K_max >= k + 2 and state.level(k + 1) is not None:
        n_k1 = ev.omega_norm(k + 1, 1, cfg.T, cfg.mode, cfg.alpha)
        if norms[1] > 0 and n_k1 > 0:
            c2_hat = float(n_k1 / norms[1])
            rep.constants["c2_hat"] = c2_hat
            rep.constants["c2xi_over_xi_prime"] = c2_hat * cfg.xi / cfg.xi_prime
    if cfg.mode == "dependent":
        rep.constants["dependent_class_count"] = len(
            data_classes(state, range(k, k + j_max + 1)))
        # factorial-normalized diagnostics stay near the depth-1 value
        bound = float(normalized[1]) * 1.5
        rep.constants["dependent_aj_bound"] = bound
        # validation holds K_max >= 3, so there are depths >= 2 to compare
        worst = _worst(float(x) for x in normalized[2:])
        rep.check("duhamel.dependent_decay_shape", worst, bound, "DERIVED")
        return
    # chain bound with exact per-level operator norms: averaged norms for
    # the randomized modes, deterministic norms for the deterministic one.
    # One norm per order: swapping slots j and 1 permutes the index space,
    # keeping the product H^alpha weights and the odd-multiplicity classes,
    # so the norm of B_(j,m) is the same for every slot j < m
    sig = {m: collision_omega_operator_norm(lat, m - 1, 1, cfg.alpha,
                                            cfg.mode != "deterministic")
           for m in range(k + 1, k + j_max + 1)}
    rep.constants["per_level_operator_norms"] = {str(m): sig[m] for m in sig}
    excess = []
    for j in range(1, j_max + 1):
        if state.level(k + j) is None:
            continue
        bound = (cfg.T**j / math.factorial(j)) \
            * math.prod((k + i) * sig[k + i + 1] for i in range(j)) \
            * h_alpha_norm(state.level(k + j), cfg.alpha)
        excess.append(float(norms[j]) - bound)
    worst_excess = _worst(excess, empty=-math.inf)
    rep.constants["decay_bound_excess"] = worst_excess
    rep.check("duhamel.decay_chain_bound_excess", worst_excess, 1e-8, "DERIVED")


def _run_converge(cfg, rep, csv_dir):
    lat = FrequencyLattice(cfg.d, cfg.M)
    Ns = list(range(2, cfg.N + 1))
    # D(N) reads levels up to N + 1
    state = random_state(lat, cfg.N + 1, cfg.seed, alpha=cfg.alpha,
                         level_norms=[0.5**kk for kk in range(1, cfg.N + 2)])
    quad = QuadratureSpec(q=min(cfg.q, 8))
    grid = (0.0, cfg.T / 2, cfg.T)
    D = cauchy_diagnostic(state, Ns, cfg.T, cfg.mode, quad, alpha=cfg.alpha,
                          xi=cfg.xi, grid_times=grid)
    rep.constants["cauchy_D"] = {str(N): float(v) for N, v in zip(Ns, D)}
    if cfg.mode == "dependent":
        rep.constants["dependent_class_count"] = len(
            data_classes(state, range(3, cfg.N + 2)))
    ratios = [float(D[i + 1] / D[i]) for i in range(len(Ns) - 1)]
    rep.constants["cauchy_ratios"] = ratios
    _write_csv(csv_dir, "cauchy.csv", ["N", "D", "ratio"],
               [(N, float(D[i]), ratios[i - 1] if i > 0 else float("nan"))
                for i, N in enumerate(Ns)])
    # D(N+1) < D(N) at every step: the largest ratio stays below 1
    rep.check("duhamel.cauchy_decreasing", _worst(ratios), 1.0, "DERIVED",
              kind="lt")
    # at N=3 there is no ratio after the first to compare
    if len(ratios) > 1:
        rep.check("duhamel.cauchy_ratio_below_first", _worst(ratios[1:]),
                  ratios[0] + 1e-12, "DERIVED")


def _run_residual(cfg, rep, csv_dir):
    lat = FrequencyLattice(cfg.d, cfg.M)
    # both constructions read levels up to N
    state = random_state(lat, cfg.N, cfg.seed, alpha=cfg.alpha,
                         level_norms=[1.0] * cfg.N)
    quad = QuadratureSpec(q=max(cfg.q, 16))
    grid = tuple(np.linspace(0.0, cfg.T, cfg.grid_points))
    modes = {"deterministic": HierarchyMode.deterministic(),
             "dependent": HierarchyMode.dependent(sample_field(lat, cfg.seed, level=0)),
             "independent": HierarchyMode.independent(
                 {lv: sample_field(lat, cfg.seed, level=lv)
                  for lv in range(2, cfg.K_max + 1)})}
    # one evaluator: each level's solution and residual for all three modes
    ev = DuhamelEvaluator(state, list(modes.values()), quad)
    # the residuals build their own solutions, at T and at the quadrature
    # nodes, before the grid solutions exist
    residuals = [r for k in range(1, cfg.N)
                 for r in integral_residual(ev, cfg.N, k, cfg.T, alpha=cfg.alpha)]
    # the levels below N at every grid time at once, climbed before the
    # trajectories exist; the top level N, free flow on both sides, one grid
    # time at a time.  Both sides form level N by the same formula, so its
    # rows check the sampling, not a second construction: they are exactly 0
    sols = {k: ev.solution_batch(cfg.N, k, grid) for k in range(1, cfg.N)}
    trajs = [evolve_truncated(state, cfg.N, cfg.T, mode, grid_times=grid)
             for mode in modes.values()]
    rel = np.empty((len(modes), cfg.N, len(grid)))
    for k in range(1, cfg.N + 1):
        for i, t in enumerate(grid):
            sol, col = (sols[k], i) if k < cfg.N \
                else (ev.solution_batch(cfg.N, k, [t]), 0)
            # a solution that reads no field is one array broadcast over the
            # modes: its norm is taken once
            norms = np.broadcast_to(
                [h_alpha_norm(ev._wrap(k, s[:, col]), cfg.alpha)
                 for s in (sol[:1] if sol.strides[0] == 0 else sol)], len(modes))
            for m, traj in enumerate(trajs):
                ode = traj.level(i, k)
                diff = (sol[m][:, col] - ode.data.reshape(-1)).reshape(ode.data.shape)
                rel[m, k - 1, i] = h_alpha_norm(
                    DensityMatrix(lat, k, "dense", data=diff), cfg.alpha) \
                    / (1.0 + norms[m])
    rows = [(which, k, float(t), rel[m, k - 1, i])
            for m, which in enumerate(modes)
            for k in range(1, cfg.N + 1) for i, t in enumerate(grid)]
    worst_disc = _worst(row[3] for row in rows)
    worst_res = _worst(residuals)
    _write_csv(csv_dir, "duhamel_vs_ode.csv", ["mode", "k", "t", "rel_err"], rows)
    rep.constants["duhamel_ode_discrepancy"] = worst_disc
    rep.constants["integral_residual"] = worst_res
    rep.check("duhamel.ode_equivalence", worst_disc, 1e-5, "DERIVED")
    rep.check("duhamel.integral_residual", worst_res, 1e-6, "DERIVED")


def _run_continuity(cfg, rep, csv_dir):
    scan_ratios = []
    total_covered = 0
    for d in (1, 2, 3):
        for M in (1, 2):
            lat = FrequencyLattice(d, M)
            for k in (1, 2):
                for beta in (0.5, 1.0):
                    for beta0 in (beta + 0.5, beta + 3.0):
                        for delta in (1e-1, 1e-2, 1e-3):
                            v, ratio, covered = phase_inequality_scan(
                                lat, k, beta, beta0, delta
                            )
                            total_covered += covered
                            scan_ratios.append(ratio)
                            if v:
                                rep.check(
                                    f"dynamics.phase_bound_d{d}M{M}k{k}", v, 0,
                                    "PAPER",
                                )
    worst_ratio = _worst(scan_ratios)
    rep.constants["phase_bound_worst_ratio"] = worst_ratio
    rep.constants["phase_bound_slots_covered"] = total_covered
    rep.check("dynamics.phase_bound_violations", worst_ratio, 1.0 + 1e-12,
              "PAPER")
    # sampled-tensor defect comparison
    lat = FrequencyLattice(cfg.d, cfg.M)
    sigma = random_density_matrix(lat, 2, cfg.seed, alpha=cfg.alpha0, norm=1.0)
    defects = []
    for delta in (1e-1, 1e-2, 1e-3):
        lhs, rhs, r = continuity_defect(sigma, 0.4, delta, cfg.alpha, cfg.alpha0)
        defects.append(lhs / rhs)
    worst = _worst(defects)
    rep.constants["continuity_defect_worst"] = worst
    rep.check("dynamics.continuity_defect", worst, 1.0, "PAPER")
    # solution modulus scaling of the truncated hierarchy
    N = min(cfg.N, cfg.K_max, 3)
    state = random_state(lat, N, cfg.seed, alpha=cfg.alpha0, level_norms=[1.0] * N)
    # averaged over every independent field, none of which is drawn
    ratios = solution_time_modulus(
        state, N, [0.0, cfg.T / 2], (1e-2, 1e-3, 1e-4), "independent",
        QuadratureSpec(q=cfg.q), alpha=cfg.alpha, xi=cfg.xi)
    rep.constants["modulus_ratios"] = {f"{d:g}": v for d, v in ratios.items()}
    base = ratios[1e-2] * (1 + 1e-9)
    rep.check("duhamel.modulus_uniform_small_delta",
              _worst([ratios[1e-3], ratios[1e-4]]), base, "DERIVED")


def _run_nls(cfg, rep, csv_dir):
    lat = FrequencyLattice(cfg.d, max(cfg.M, 2))
    rng = np.random.default_rng(cfg.seed)
    raw = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    phi0 = raw / lat.brackets**2
    phi0 /= np.sqrt(nlsmod.mass(phi0))
    traj = nlsmod.nls_evolve(phi0, cfg.T, cfg.dt, lattice=lat)
    drift = abs(nlsmod.mass(traj.phi_at(len(traj.times) - 1)) - nlsmod.mass(phi0))
    rep.constants["mass_drift"] = drift
    rep.check("nls.mass_conservation", drift, 1e-8 * max(1.0, cfg.T), "DERIVED")
    # single mode closed form
    single = np.zeros(lat.size, dtype=np.complex128)
    zidx = lat.index_of([1] + [0] * (lat.d - 1))
    single[zidx] = 1.0
    straj = nlsmod.nls_evolve(single, cfg.T, cfg.dt, lattice=lat)
    last = straj.phi_at(len(straj.times) - 1)
    zsq = float(lat.energies[zidx])
    exact = np.exp(-1j * (zsq + 1.0) * cfg.T)
    rep.check("nls.single_mode", abs(last[zidx] - exact), 1e-8, "DERIVED")
    # residuals at interior grid times on the order check's dt/2 trajectory,
    # stored every dt: the stencil spacing stays dt, the RK4 error drops 16x
    half = nlsmod.nls_evolve(phi0, cfg.T, cfg.dt / 2, lattice=lat)
    stored = nlsmod.NlsTrajectory(lat, half.times[::2], half.ip_coeffs[::2], cfg.dt)
    interior = [step * cfg.dt for step in _nls_steps(cfg)[1]]
    rows = []
    for k in (1, 2):
        alg, fd = nlsmod.factorized_residual(stored, k, interior, alpha=cfg.alpha)
        rows.append((k, alg, fd))
        rep.check(f"nls.algebraic_residual_k{k}", alg, 1e-10, "DERIVED")
        rep.check(f"nls.fd_residual_k{k}", fd, 1e-6, "DERIVED")
    _write_csv(csv_dir, "nls_residuals.csv", ["k", "algebraic", "fd"], rows)
    # RK4 order under step halving
    ref = nlsmod.nls_evolve(phi0, cfg.T, cfg.dt / 8, lattice=lat)
    refT = ref.phi_at(len(ref.times) - 1)
    e1 = np.linalg.norm(traj.phi_at(len(traj.times) - 1) - refT)
    e2 = np.linalg.norm(half.phi_at(len(half.times) - 1) - refT)
    ratio = float(e1 / e2)
    rep.constants["rk4_halving_ratio"] = ratio
    rep.check("nls.rk4_order_low", ratio, 20.0, "DERIVED")
    rep.check("nls.rk4_order_high", -ratio, -12.0, "DERIVED")


def _run_expand(cfg, rep, csv_dir, out_dir=None):
    lat = FrequencyLattice(1, 1)
    t = 0.13
    spec = example1_chain(t=t)
    exp = expand_chain(spec)
    expd = expand_difference(spec)
    rep.check("expansion.example1_A", int(exp.A != {1}), 0, "PAPER")
    rep.check("expansion.example1_B", int(exp.B != {2}), 0, "PAPER")
    rep.check(
        "expansion.example1_nu",
        int(expd.nu != {"eta2": 1}), 0, "PAPER",
    )
    rep.check(
        "expansion.example1_nu_prime",
        int(expd.nu_prime != {"eta3": -1, "etap2": 1, "etap3": 1}), 0, "PAPER",
    )
    sigma = random_density_matrix(lat, 5, cfg.seed)
    from .randomization import enumerate_fields

    errs = []
    for f in enumerate_fields(lat):
        ev = evaluate_expansion(exp, sigma, f)
        ref = direct_composition(spec, sigma, f)
        errs.append(h_alpha_norm(ev - ref, 0.0) / max(h_alpha_norm(ref, 0.0), 1e-30))
        for delta in (0.0, 0.1):
            evd = evaluate_expansion(expd, sigma, f, delta=delta)
            refd = direct_composition(spec, sigma, f, delta=delta)
            scale = max(h_alpha_norm(refd, 0.0), 1.0 if delta == 0.0 else 1e-30)
            errs.append(h_alpha_norm(evd - refd, 0.0) / scale)
    worst = _worst(errs)
    rep.constants["example1_worst_rel_err"] = worst
    rep.check("expansion.example1_soundness", worst, 1e-10, "DERIVED")
    from .expansion import f_bound_constant

    c3, fmax = f_bound_constant(expd, lat)
    rep.constants["c3_empirical"] = c3
    rep.constants["difference_factor_max"] = fmax
    if out_dir is not None:
        with open(os.path.join(out_dir, "example1_expansion.json"), "w") as fh:
            json.dump(expansion_debug_obj(expd), fh, indent=1, sort_keys=True)
    # non-resonant tools
    big = FrequencyLattice(1, 10)
    ok = True
    for s in range(100):
        st = nonresonant_sample(big, 3, cfg.seed + s)
        ok = ok and nonresonant_check(st).passed
    rep.check("expansion.nonresonant_roundtrip", int(not ok), 0, "DERIVED")
    bad = DensityMatrix.from_coo(
        big, 2,
        np.array([[big.index_of([2]), big.index_of([3]),
                   big.index_of([1]), big.index_of([0])]]),
        np.array([1.0 + 0j]),
    )
    bad_state = HierarchyState(big, 2, {2: bad})
    res = nonresonant_check(bad_state)
    rep.check("expansion.resonant_rejected", int(res.passed), 0, "TRIVIAL")
    rep.check("expansion.resonant_witness",
              int(res.witness != ((2,), (3,), (1,), (0,))), 0, "TRIVIAL")


def run_experiment(cfg, csv_dir=None, out_dir=None):
    """Run one experiment kind and return its Report."""
    cfg.validate()
    rep = Report(config=asdict(cfg), environment=_environment(cfg))
    body = {
        "verify": _run_verify,
        "estimate-c0": _run_estimate_c0,
        "decay": _run_decay,
        "converge": _run_converge,
        "residual": _run_residual,
        "continuity": _run_continuity,
        "nls": _run_nls,
    }
    if cfg.kind == "expand":
        _run_expand(cfg, rep, csv_dir, out_dir)
    elif cfg.kind in body:
        body[cfg.kind](cfg, rep, csv_dir)
    else:
        raise ConfigError([f"kind: {cfg.kind} is not runnable here"])
    return rep


# --- command line -------------------------------------------------------------


def _parse_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _json_object(what, path):
    """The JSON object in the file at `path`; a ConfigError naming `what`
    and the file if it cannot be read or holds anything else."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError([f"{what} {path}: {getattr(exc, 'strerror', exc)}"]) \
            from None
    if not isinstance(obj, dict):
        raise ConfigError([f"{what} {path}: holds no JSON object"])
    return obj


def _out_dir(path, flag="--out"):
    """The directory `flag`'s output goes in, None for no path; a ConfigError
    before any run if it is not a writable directory.  --out names a file
    in it; --csv names it, and one the run would create is checked at the
    nearest existing path above it."""
    if not path:
        return None
    where = (os.path.dirname(path) or ".") if flag == "--out" else path
    while flag == "--csv" and not os.path.exists(where):
        where = os.path.dirname(os.path.abspath(where))
    if not (os.path.isdir(where) and os.access(where, os.W_OK)):
        raise ConfigError([f"{flag} {path}: {where} is not a writable directory"])
    return where


def _load_config(args, kind):
    base = _json_object("--config", args.config) if args.config else {}
    base.setdefault("kind", kind)
    if args.seed is not None:
        base["seed"] = args.seed
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError([f"override {item!r} is not key=value"])
        key, val = item.split("=", 1)
        base[key] = _parse_value(val)
    if base["kind"] != kind:
        raise ConfigError([f"kind: the subcommand runs {kind}; the config "
                           f"cannot make it {base['kind']!r}"])
    unknown = set(base) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError([f"{k}: unknown config field" for k in sorted(unknown)])
    return ExperimentConfig(**base)


def _merge_reports(paths, out_path):
    merged = {"reports": [], "passed": True}
    for p in paths:
        obj = _json_object("input", p)
        merged["reports"].append(obj)
        merged["passed"] = merged["passed"] and obj.get("passed", False)
    with open(out_path, "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gph",
        description="Verification experiments for truncated collision hierarchies",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        if kind == "report-merge":
            p.add_argument("inputs", nargs="+")
            p.add_argument("--out", required=True)
            continue
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="report JSON path")
        p.add_argument("--csv", help="directory for CSV tables")
        p.add_argument("--seed", type=int)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (repeatable)")
    args = parser.parse_args(argv)

    try:
        out_dir = _out_dir(args.out)
        if args.kind == "report-merge":
            merged = _merge_reports(args.inputs, args.out)
            return 0 if merged["passed"] else 1
        _out_dir(args.csv, "--csv")
        cfg = _load_config(args, args.kind)
        rep = run_experiment(cfg, csv_dir=args.csv, out_dir=out_dir)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    except MemoryGuardError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for c in rep.checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: measured={c['measured']} "
              f"threshold={c['threshold']} [{c['provenance']}]")
    if args.out:
        rep.dump(args.out)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
