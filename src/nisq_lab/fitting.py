"""Fidelity metrics from counts, decay-curve regression, and the noiseless
phase-estimation outcome distribution.

Fits are weighted nonlinear least squares with binomial weights
shots / (p (1 - p) + 1e-6). R^2 is reported unweighted on the untransformed
scale: 1 - SS_res / SS_tot. Convergence: relative parameter change below
1e-9 or 200 iterations; non-convergence is flagged, not raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FidelityReport:
    """f1 = fraction of shots whose computational bits read the desired
    outcome; f2 additionally requires the ancilla bits."""

    f1: float
    f2: float
    shots: int


def _mask_and_want(positions: list[int], bits: str, n: int) -> tuple[int, int]:
    """The bits of ``positions`` in an n-bit outcome (position 0 the most
    significant), and the value they hold when they read ``bits``."""
    mask = want = 0
    for i, bit in zip(positions, bits):
        mask |= 1 << (n - 1 - i)
        want |= int(bit, 2) << (n - 1 - i)
    return mask, want


def fidelity(counts: dict[int, int], roles, desired_computational: str,
             desired_ancilla: str = "") -> FidelityReport:
    """Score shot counts against desired computational/ancilla outcomes.

    ``counts`` maps outcome integers to shots, qubit 0 the most significant
    of ``len(roles)`` bits. Positions tagged "ancilla" are the ancilla bits;
    every other position (control, target, computational) is a
    computational bit. Each desired string lists its bits in ascending
    position order and becomes a (mask, want) pair: an outcome v reads it
    when ``v & mask == want``.
    """
    roles = tuple(roles)
    n = len(roles)
    comp_idx = [i for i, r in enumerate(roles) if r != "ancilla"]
    anc_idx = [i for i, r in enumerate(roles) if r == "ancilla"]
    if len(desired_computational) != len(comp_idx):
        raise ValueError(
            f"desired computational string has {len(desired_computational)} bits, "
            f"roles give {len(comp_idx)}"
        )
    if len(desired_ancilla) != len(anc_idx):
        raise ValueError(
            f"desired ancilla string has {len(desired_ancilla)} bits, roles give {len(anc_idx)}"
        )
    top = max(counts, default=0)
    if top >> n:
        raise ValueError(f"outcome {top} has more bits than the {n} roles")
    comp_mask, comp_want = _mask_and_want(comp_idx, desired_computational, n)
    anc_mask, anc_want = _mask_and_want(anc_idx, desired_ancilla, n)
    total = 0
    n_f1 = 0
    n_f2 = 0
    for v, c in counts.items():
        total += c
        if v & comp_mask == comp_want:
            n_f1 += c
            if v & anc_mask == anc_want:
                n_f2 += c
    if total == 0:
        raise ValueError("empty counts")
    return FidelityReport(f1=n_f1 / total, f2=n_f2 / total, shots=total)


@dataclass
class FitResult:
    model: str
    params: dict[str, float] = field(default_factory=dict)
    r_squared: float = float("nan")
    covariance: list[list[float]] | None = None
    ok: bool = True
    converged: bool = True
    fallback: bool = False
    message: str = ""
    iterations: int = 0

    @classmethod
    def failed(cls, model: str, message: str) -> "FitResult":
        return cls(model=model, ok=False, converged=False, message=message)


def exponential_model(t, t_decay: float):
    return np.exp(-np.asarray(t, dtype=float) / t_decay)


def damped_cosine_model(t, t_phi: float, omega: float):
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-t / t_phi) if math.isfinite(t_phi) else np.ones_like(t)
    return 0.5 * (1.0 + envelope * np.cos(omega * t))


def _binomial_weights(p: np.ndarray, shots: np.ndarray) -> np.ndarray:
    return shots / (p * (1.0 - p) + 1e-6)


_MAX_ITERATIONS = 200
_REL_TOL = 1e-9


def _exponential_normal(t: np.ndarray, T: float, w: np.ndarray):
    """The model, its derivative in T, and the weighted normal matrix."""
    f = np.exp(-t / T)
    jac = f * t / T**2
    return f, jac, float(np.dot(w * jac, jac))


def fit_exponential(t, p, shots) -> FitResult:
    """Fit p(t) = exp(-t / T): log-linear initialization through the
    origin, then Gauss-Newton refinement. Time units follow the input."""
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    shots = np.broadcast_to(np.asarray(shots, dtype=float), t.shape)
    if len(np.unique(t)) < 3:
        return FitResult.failed("exponential", "need at least 3 distinct time points")
    if np.any((p < 0) | (p > 1)):
        return FitResult.failed("exponential", "fractions must lie in [0, 1]")
    if np.ptp(p) < 1e-12:
        return FitResult.failed("exponential", "degenerate data: constant fractions")
    # crude trend check: survival data must decrease overall. The sign of the
    # least-squares slope is written out, since np.polyfit's column scaling
    # divides by zero (and LAPACK then fails) when the times' squares underflow
    if np.dot(t - t.mean(), p - p.mean()) >= 0:
        return FitResult.failed("exponential", "degenerate data: fractions do not decay")

    mask = p > 1e-9
    tm, pm = t[mask], p[mask]
    denom = float(np.dot(tm, tm))
    rate0 = -float(np.dot(tm, np.log(pm))) / denom if denom > 0 else 0.0
    if rate0 <= 0:
        return FitResult.failed("exponential", "log-linear initialization failed")
    T = 1.0 / rate0

    w = _binomial_weights(p, shots)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        f, jac, den = _exponential_normal(t, T, w)
        if den == 0.0:
            return FitResult.failed("exponential", "singular normal equations")
        step = float(np.dot(w * jac, p - f)) / den
        while T + step <= 0:
            step *= 0.5
        T += step
        if abs(step) < _REL_TOL * abs(T):
            converged = True
            break

    f, _, jtj = _exponential_normal(t, T, w)
    ss_res = float(np.sum((p - f) ** 2))
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    dof = max(len(t) - 1, 1)
    var = float(np.sum(w * (p - f) ** 2)) / dof / jtj if jtj > 0 else float("nan")
    return FitResult(
        model="exponential",
        params={"t_decay": T},
        r_squared=1.0 - ss_res / ss_tot,
        covariance=[[var]],
        converged=converged,
        message="" if converged else "did not converge",
        iterations=iterations,
    )


def _spectral_omega(t: np.ndarray, y: np.ndarray) -> float:
    """Peak angular frequency of mean-removed data on a coarse grid scan
    (robust to mildly non-uniform sampling)."""
    span = float(t.max() - t.min())
    n = len(t)
    # no scan over a grid without time, or one so short that pi n / span overflows
    if span <= 0 or math.pi * n / span == math.inf:
        return 0.0
    omegas = np.linspace(math.pi / span, math.pi * n / span, 4 * n)
    phases = np.exp(-1j * np.outer(omegas, t))
    power = np.abs(phases @ y) ** 2
    return float(omegas[int(np.argmax(power))])


def _cosine_normal(t: np.ndarray, rate: float, omega: float, w: np.ndarray):
    """The model, its derivatives in rate and omega, and the normal matrix a11, a12, a22."""
    env = np.exp(-rate * t)
    cos_wt = np.cos(omega * t)
    sin_wt = np.sin(omega * t)
    f = 0.5 * (1.0 + env * cos_wt)
    j_rate = -0.5 * t * env * cos_wt
    j_omega = -0.5 * t * env * sin_wt
    return (f, j_rate, j_omega, float(np.dot(w * j_rate, j_rate)),
            float(np.dot(w * j_rate, j_omega)), float(np.dot(w * j_omega, j_omega)))


def fit_damped_cosine(t, p, shots) -> FitResult:
    """Fit p(t) = (1 + exp(-t/tphi) cos(omega t)) / 2.

    omega is initialized from the spectral peak of the mean-removed data,
    then (decay rate, omega) are refined jointly. Data with no usable
    oscillation falls back to a pure exponential fit of 2p - 1 and sets
    the fallback flag.
    """
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    shots = np.broadcast_to(np.asarray(shots, dtype=float), t.shape)
    if len(t) < 6:
        return FitResult.failed("damped-cosine", "need at least 6 points")

    y = p - p.mean()
    omega = _spectral_omega(t, y)
    span = float(t.max() - t.min())

    def exponential_fallback(reason: str) -> FitResult:
        base = fit_exponential(t, np.clip(2.0 * p - 1.0, 0.0, 1.0), shots)
        return FitResult(
            model="damped-cosine",
            params={
                "amplitude": 0.5,
                "offset": 0.5,
                "t_phi": base.params.get("t_decay", float("nan")),
                "omega": 0.0,
            },
            r_squared=base.r_squared,
            covariance=base.covariance,
            ok=base.ok,
            converged=base.converged,
            fallback=True,
            message=f"{reason}; fell back to exponential fit",
            iterations=base.iterations,
        )

    # less than ~a quarter oscillation across the span: no usable peak
    if omega * span < math.pi / 2 or np.ptp(p) < 1e-9:
        return exponential_fallback("no spectral peak")

    w = _binomial_weights(p, shots)
    rate = 1.0 / span  # mild initial damping
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        f, j_rate, j_omega, a11, a12, a22 = _cosine_normal(t, rate, omega, w)
        r = p - f
        b1 = float(np.dot(w * j_rate, r))
        b2 = float(np.dot(w * j_omega, r))
        det = a11 * a22 - a12 * a12
        if det == 0.0:  # the decay rate ran away and the envelope underflowed to 0
            return exponential_fallback("singular normal equations")
        d_rate = (a22 * b1 - a12 * b2) / det
        d_omega = (a11 * b2 - a12 * b1) / det
        rate = max(rate + d_rate, 0.0)
        omega += d_omega
        scale = abs(rate) + abs(omega)
        if abs(d_rate) + abs(d_omega) < _REL_TOL * max(scale, 1e-30):
            converged = True
            break

    # refinement collapsed the oscillation: the data was not periodic
    if abs(omega) * span < math.pi / 2:
        return exponential_fallback("no spectral peak")

    # covariance from the final normal equations
    f, _, _, a11, a12, a22 = _cosine_normal(t, rate, omega, w)
    ss_res = float(np.sum((p - f) ** 2))
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    t_phi = 1.0 / rate if rate > 1e-30 else float("inf")
    det = a11 * a22 - a12 * a12
    dof = max(len(t) - 2, 1)
    s2 = float(np.sum(w * (p - f) ** 2)) / dof
    cov = None
    if det > 0:
        cov = [[s2 * a22 / det, -s2 * a12 / det], [-s2 * a12 / det, s2 * a11 / det]]
    return FitResult(
        model="damped-cosine",
        params={"amplitude": 0.5, "offset": 0.5, "t_phi": t_phi, "omega": omega},
        r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan"),
        covariance=cov,
        converged=converged,
        message="" if converged else "did not converge",
        iterations=iterations,
    )


def theoretical_qpe_distribution(phi: float) -> np.ndarray:
    """Noiseless outcome distribution of the 3-qubit phase-estimation
    circuit: P(k) = |(1/8) sum_j exp(i j (phi - k pi/4))|^2 over the eight
    phase indices k."""
    ks = np.arange(8)
    deltas = phi - ks * (math.pi / 4.0)
    js = np.arange(8)
    amps = np.exp(1j * np.outer(js, deltas)).mean(axis=0)
    return np.abs(amps) ** 2
