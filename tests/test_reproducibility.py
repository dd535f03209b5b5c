"""A report is reproduced from its (config, seed), in a fresh process too.

Each config runs as `python -m gphier.cli` in two fresh processes at once,
each writing into its own directory, the first at one BLAS thread
(`OPENBLAS_NUM_THREADS=1`) and the second at two.  The two report files
must be byte-identical outside their `environment` section, which holds the
timestamp and the thread count, so no reported value may depend on the
order in which a threaded BLAS call sums.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# the BLAS thread count of each of the two processes
THREADS = ("1", "2")

CONFIGS = {
    # criteria 9 and 11: randomization identities and the simplex identity
    "verify-criterion-9-11": ["verify", "--set", "M=2", "--seed", "111"],
    # criteria 1 and 2: Duhamel against the exponential flow, all three modes
    "residual-criterion-1-2": [
        "residual", "--set", "M=2", "--set", "N=4", "--set", "K_max=4",
        "--set", "T=0.1", "--set", "q=16", "--set", "grid_points=11",
        "--seed", "101"],
    # the benchmark's residual workload: RK4 and Gauss-Legendre Duhamel at
    # d=1 M=3, the top level formed one time at a time
    "residual-workload": [
        "residual", "--set", "d=1", "--set", "M=3", "--set", "N=3",
        "--set", "K_max=3", "--set", "q=16", "--set", "T=0.5",
        "--set", "dt=5e-4", "--set", "grid_points=11"],
    # the residual on a d=2 lattice: each mode's signs on the operand of
    # every collision, at 1 and 2 BLAS threads
    "residual-d2": [
        "residual", "--set", "d=2", "--set", "M=1", "--set", "N=3",
        "--set", "K_max=3"],
    # criterion 4: independent decay, exact averages by class paths
    "decay-criterion-4": [
        "decay", "--set", "mode=independent", "--set", "M=1", "--set", "K_max=4",
        "--set", "T=0.5", "--set", "q=12", "--seed", "104"],
    # deterministic decay: the class-split climb with no split
    "decay-deterministic": [
        "decay", "--set", "M=2", "--set", "K_max=3", "--set", "T=0.3",
        "--seed", "7"],
    # criterion 5: dependent converge, split by the classes of levels 3..6
    "converge-criterion-5": [
        "converge", "--set", "mode=dependent", "--set", "M=1", "--set", "N=5",
        "--set", "K_max=6", "--set", "T=0.1", "--set", "xi=0.5",
        "--set", "xi_prime=1.0", "--set", "q=4", "--seed", "106"],
    # independent converge: each collision lifted by the classes of its
    # input level, at the largest lattice its matrix row admits at N=3
    "converge-independent": [
        "converge", "--set", "mode=independent", "--set", "M=2", "--set", "N=3",
        "--set", "K_max=4"],
    # deterministic converge: the collided terms with no class split
    "converge-deterministic": ["converge", "--set", "N=3", "--set", "K_max=4"],
    # criterion 3: exact and Monte Carlo averages over drawn sign fields
    "estimate-c0-criterion-3": [
        "estimate-c0", "--set", "M=1", "--set", "alpha=1.0",
        "--set", "mc_samples=10000", "--seed", "102"],
    # criteria 6 and 7: continuity, one class split of the solutions per level
    "continuity-criterion-6-7": [
        "continuity", "--set", "M=1", "--set", "N=3", "--set", "K_max=3",
        "--set", "T=0.1", "--set", "alpha=1.0", "--set", "alpha0=2.0",
        "--set", "q=10", "--set", "xi=0.5", "--set", "xi_prime=1.0",
        "--seed", "108"],
    # continuity at M=3 N=3: the largest class-split chunks, several
    # energies of a level in one product and one scalar step
    "continuity-M3-N3": ["continuity", "--set", "M=3", "--set", "N=3"],
    # continuity at M=7 N=2, the largest N=2 lattice: the depth-0 and
    # depth-1 columns of each solution merge into one split
    "continuity-M7-N2": ["continuity", "--set", "M=7", "--set", "N=2"],
    # dependent decay at M=5, whose shared field has 2^11 values
    "decay-dependent-M5": [
        "decay", "--set", "mode=dependent", "--set", "M=5", "--set", "K_max=3",
        "--set", "T=0.1", "--set", "q=6", "--seed", "30"],
    # criterion 10: NLS at M=8, its order-3 collision streamed above the cap
    "nls-criterion-10": [
        "nls", "--set", "M=8", "--set", "T=0.5", "--set", "dt=1e-3",
        "--seed", "115"],
    # independent decay's operator norms (Lanczos on L^T L) at alpha=0.5,
    # and at M=7 K_max=2, the largest lattice the norm's cap admits
    "decay-norm-alpha-half": [
        "decay", "--set", "mode=independent", "--set", "K_max=4",
        "--set", "alpha=0.5"],
    "decay-norm-M7": [
        "decay", "--set", "mode=independent", "--set", "M=7", "--set", "K_max=2",
        "--seed", "4"],
    # criteria 8 and 12: the symbolic expansion, which also writes
    # example1_expansion.json next to the report
    "expand-criterion-8-12": ["expand", "--seed", "110"],
}


def _outside_environment(text):
    """The report text with the body of its flat `environment` object removed."""
    out, n = re.subn(r'"environment": \{[^{}]*\}', '"environment": {}', text)
    assert n == 1
    return out


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_bytes_repeat_across_processes(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    paths = [tmp_path / f"run{i}" / "report.json" for i in range(2)]
    for path in paths:
        path.parent.mkdir()
    procs = [subprocess.Popen([sys.executable, "-m", "gphier.cli",
                               *CONFIGS[name], "--out", str(path)],
                              env={**env, "OPENBLAS_NUM_THREADS": threads})
             for path, threads in zip(paths, THREADS)]
    assert [proc.wait(timeout=300) for proc in procs] == [0, 0]
    first, second = (_outside_environment(path.read_text()) for path in paths)
    assert first == second


# The scalar half's Gauss-Legendre step (`duhamel._gauss_legendre_step`) on
# chunks of one energy, (2, 1, q) @ (2, q, c), at widths c where OpenBLAS
# threads a one-row product, and on 5 energies in chunks of 2, whose last
# chunk holds one.  Prints the sha256 of every result's bytes.
KERNEL_SCRIPT = """
import hashlib
import numpy as np
from gphier.duhamel import _gauss_legendre_step

def draw(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

rng = np.random.default_rng(36)
digest = hashlib.sha256()
for q in (4, 12, 16):
    for c in (8349, 40001, 84985):
        digest.update(_gauss_legendre_step(draw(rng, 2, 1, q), draw(rng, 2, q, c)).tobytes())
E, f = draw(rng, 2, 5, 12), draw(rng, 2, 12, 8349)
for lo in range(0, 5, 2):
    digest.update(_gauss_legendre_step(E[:, lo:lo + 2], f).tobytes())
print(digest.hexdigest())
"""


def test_scalar_half_kernel_bits_repeat_across_thread_counts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    procs = [subprocess.Popen([sys.executable, "-c", KERNEL_SCRIPT],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              stdout=subprocess.PIPE, text=True)
             for threads in THREADS]
    outs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] == outs[1] and len(outs[0].strip()) == 64
