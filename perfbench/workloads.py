"""Seeded input cycles for the benchmark workloads, and their correctness checks.

Each workload is a fixed cycle of ``sparse_fft`` problems drawn from the
workload seed.  A problem is a signal oracle plus a ``DetectionConfig``; the
benchmark solves the cycle in order and checks every solve with the
workload's own check.  ``small=True`` gives the scaled-down inputs the smoke
test runs through the same code.

Import this module only after ``sfft`` is importable (``run.import_sfft``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import sfft

#: rel_err is reported as at least this value: on the exact workloads the
#: error sits at roundoff (~3e-15), which no harmless change keeps fixed.
ROUNDOFF_FLOOR = 1e-10

#: largest coefficient deviation allowed on the exact workloads
EXACT_COEFF_TOL = 1e-9

#: largest deviation of a detected B-spline coefficient from its exact value
#: (aliasing of undetected coefficients): a quarter of the largest coefficient,
#: 1.2; about twice the largest deviation seen on correct runs
BSPLINE_COEFF_TOL = 0.3

MULTIPLE = frozenset({"oracle", "detect_component", "build_multiple_lattice_with_retries",
                      "invert_multiple", "lattice_nodes"})
SINGLE = frozenset({"oracle", "detect_component", "build_single_lattice_cbc",
                    "invert_single", "lattice_nodes"})


@dataclass(frozen=True)
class Case:
    """One problem of a cycle: signal, configuration and (if known) its spectrum."""

    signal: sfft.SignalOracle
    cfg: sfft.DetectionConfig
    truth: sfft.SparseSpectrum | None = None
    noise: tuple[float, int] | None = None  # (sigma, noise seed) of a NoisyOracle

    def oracle(self):
        """A fresh oracle; a noisy one restarts its noise stream, so repeats agree."""
        if self.noise is None:
            return self.signal
        return sfft.NoisyOracle(self.signal, *self.noise)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    kind: str  # "exact", "noisy" or "bspline": selects the check and the error
    layers: frozenset[str]  # wrapped functions (and "oracle") every solve reaches

    def check(self, case: Case, report: sfft.DetectionReport) -> str | None:
        """Failure message for a solve whose output is wrong, else None."""
        detected = report.detected
        if self.kind == "bspline":
            if not len(detected):
                return "detected no coefficients"
            exact = sfft.bspline_exact_coefficients(detected.freqs)
            worst = float(np.max(np.abs(detected.coeffs - exact)))
            if worst > BSPLINE_COEFF_TOL:
                return f"B-spline coefficient off by {worst:.3g} > {BSPLINE_COEFF_TOL}"
            return None
        if detected.support() != case.truth.support():
            return (f"support differs from the truth: {len(detected)} detected, "
                    f"{len(case.truth)} true")
        if self.kind == "exact":
            # equal supports, and both spectra keep their frequencies sorted
            worst = float(np.max(np.abs(detected.coeffs - case.truth.coeffs)))
            if worst > EXACT_COEFF_TOL:
                return f"coefficient off by {worst:.3g} > {EXACT_COEFF_TOL}"
        return None

    def error(self, case: Case, report: sfft.DetectionReport) -> float:
        """Relative error of a solve against the known signal."""
        if self.kind == "bspline":
            return sfft.relative_l2_error(
                report.detected, sfft.bspline_exact_coefficients, sfft.bspline_norm_sq()
            )
        return sfft.relative_spectrum_l2_error(report.detected, case.truth)


def _streams(seed: int, index: int) -> tuple[int, int, int]:
    """Independent (truth, detection, noise) seeds of problem ``index``."""
    children = np.random.SeedSequence([seed, index]).spawn(3)
    return tuple(int(c.generate_state(1)[0]) for c in children)


def _poly_cycle(seed, count, d, n, s, model, **cfg):
    cases = []
    for i in range(count):
        truth_seed, detect_seed, _ = _streams(seed, i)
        truth, signal = sfft.gen_random_sparse_poly(d, n, s, model, seed=truth_seed)
        config = sfft.DetectionConfig(box=sfft.SearchBox.centered(d, n), delta=1e-12, s=s,
                                      rng_seed=detect_seed, **cfg)
        cases.append(Case(signal, config, truth))
    return tuple(cases)


def exact_d6(seed: int, small: bool) -> Workload:
    d, n, s, count = (3, 8, 10, 2) if small else (6, 16, 100, 32)
    cases = _poly_cycle(seed, count, d, n, s, "box", r=1, b=10)
    return Workload("exact-d6", cases, "exact", MULTIPLE)


def noisy_d5(seed: int, small: bool) -> Workload:
    d, n, s, r, count = (3, 8, 8, 2, 2) if small else (5, 16, 40, 5, 75)
    sigma = sfft.sigma_for_snr(s, 30.0)
    cases = tuple(
        replace(case, noise=(sigma, _streams(seed, i)[2]))
        for i, case in enumerate(_poly_cycle(seed, count, d, n, s, "unit_modulus", r=r, b=10))
    )
    return Workload("noisy-d5", cases, "noisy", MULTIPLE)


def bspline_d10(seed: int, small: bool) -> Workload:
    n, s, s_local, r, count = (4, 20, 40, 1, 2) if small else (16, 100, 200, 2, 20)
    signal = sfft.bspline_test_function()
    box = sfft.SearchBox.centered(10, n)
    cases = tuple(
        Case(signal, sfft.DetectionConfig(box=box, delta=1e-12, s=s, s_local=s_local, r=r, b=10,
                                          rng_seed=_streams(seed, i)[1]))
        for i in range(count)
    )
    return Workload("bspline-d10", cases, "bspline", MULTIPLE)


def single_d4(seed: int, small: bool) -> Workload:
    d, n, s, count = (3, 8, 5, 2) if small else (4, 16, 12, 170)
    cases = _poly_cycle(seed, count, d, n, s, "box", lattice_kind="single")
    return Workload("single-d4", cases, "exact", SINGLE)


WORKLOADS = {
    "exact-d6": exact_d6,
    "noisy-d5": noisy_d5,
    "bspline-d10": bspline_d10,
    "single-d4": single_d4,
}
