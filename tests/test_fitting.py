"""Fidelity scoring, regression recovery, and the QPE outcome oracle."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_lab.builders import qpe_expected_label, qpe_prep
from nisq_lab.experiments import ResultRow
from nisq_lab.fitting import (
    damped_cosine_model,
    exponential_model,
    fidelity,
    fit_damped_cosine,
    fit_exponential,
    theoretical_qpe_distribution,
)
from nisq_lab.simulator import Circuit

from oracles import final_state, inverse_qft_matrix, probability_of, qpe_outcome_probability


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_no_ancilla():
    rep = fidelity({0b11: 800, 0b01: 200}, ("control", "target"), "11")
    assert rep.f1 == pytest.approx(0.8)
    assert rep.f2 == pytest.approx(0.8)


def test_fidelity_with_ancilla():
    rep = fidelity({0b110: 600, 0b111: 400}, ("control", "target", "ancilla"), "11", "0")
    assert rep.f1 == pytest.approx(1.0)
    assert rep.f2 == pytest.approx(0.6)


def test_fidelity_role_positions_not_contiguous():
    # ancilla sits between the computational qubits
    rep = fidelity({0b101: 700, 0b111: 300}, ("control", "ancilla", "target"), "11", "0")
    assert rep.f1 == pytest.approx(1.0)
    assert rep.f2 == pytest.approx(0.7)


def test_fidelity_length_mismatch():
    with pytest.raises(ValueError, match="more bits than the 2 roles"):
        fidelity({0b111: 1}, ("control", "target"), "11")
    with pytest.raises(ValueError):
        fidelity({0b11: 1}, ("control", "target"), "111")


def test_fidelity_stderr():
    rep = fidelity({0b11: 6400, 0b00: 1600}, ("control", "target"), "11")
    row = ResultRow(x=0, f1=rep.f1, f2=rep.f2, shots=rep.shots)
    assert row.f1_stderr == pytest.approx(math.sqrt(0.8 * 0.2 / 8000))


@given(st.dictionaries(st.integers(0, 0b111), st.integers(1, 500), min_size=1),
       st.sampled_from(["000", "010", "111"]),
       st.permutations(["computational", "computational", "ancilla"]))
@settings(max_examples=60, deadline=None)
def test_f2_never_exceeds_f1(counts, desired, roles):
    roles = tuple(roles)
    comp_bits = "".join(desired[i] for i, r in enumerate(roles) if r != "ancilla")
    anc_bits = "".join(desired[i] for i, r in enumerate(roles) if r == "ancilla")
    rep = fidelity(counts, roles, comp_bits, anc_bits)
    assert rep.f2 <= rep.f1 + 1e-12


def _fidelity_by_characters(counts, roles, desired_computational, desired_ancilla):
    """The scoring definition, one character of each outcome's label at a
    time."""
    comp_idx = [i for i, r in enumerate(roles) if r != "ancilla"]
    anc_idx = [i for i, r in enumerate(roles) if r == "ancilla"]
    total = sum(counts.values())
    n_f1 = n_f2 = 0
    for v, c in counts.items():
        key = format(v, f"0{len(roles)}b")
        if all(key[i] == desired_computational[j] for j, i in enumerate(comp_idx)):
            n_f1 += c
            if all(key[i] == desired_ancilla[j] for j, i in enumerate(anc_idx)):
                n_f2 += c
    return n_f1 / total, n_f2 / total


@st.composite
def scored_counts(draw):
    roles = tuple(draw(st.lists(st.sampled_from(["control", "target", "computational",
                                                 "ancilla"]), min_size=1, max_size=8)))
    width = len(roles)
    bits = st.text("01", min_size=width, max_size=width)
    counts = draw(st.dictionaries(st.integers(0, (1 << width) - 1), st.integers(1, 500),
                                  min_size=1, max_size=12))
    hits = st.sampled_from(sorted(counts)).map(lambda v: format(v, f"0{width}b"))
    desired = draw(st.one_of(bits, hits))  # often a hit
    comp = "".join(b for b, r in zip(desired, roles) if r != "ancilla")
    anc = "".join(b for b, r in zip(desired, roles) if r == "ancilla")
    return counts, roles, comp, anc


@given(scored_counts())
@settings(max_examples=200, deadline=None)
def test_fidelity_matches_per_character_definition(cell):
    counts, roles, comp, anc = cell
    rep = fidelity(counts, roles, comp, anc)
    assert (rep.f1, rep.f2) == _fidelity_by_characters(counts, roles, comp, anc)
    assert rep.shots == sum(counts.values())


# ---------------------------------------------------------------------------
# exponential fit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t_true", [10.0, 50.0, 120.0])
def test_exponential_exact_recovery(t_true):
    t = np.linspace(0, 2.5 * t_true, 9)
    p = exponential_model(t, t_true)
    fit = fit_exponential(t, p, 8000)
    assert fit.ok and fit.converged
    assert fit.params["t_decay"] == pytest.approx(t_true, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_exponential_noisy_recovery_within_ten_percent():
    rng = np.random.default_rng(2024)
    t_true, shots = 70.0, 8000
    t = np.linspace(0, 2 * t_true, 8)
    p_exact = exponential_model(t, t_true)
    p = rng.binomial(shots, p_exact) / shots
    fit = fit_exponential(t, p, shots)
    assert fit.ok
    assert abs(fit.params["t_decay"] - t_true) / t_true < 0.10


def test_exponential_constant_data_flagged():
    fit = fit_exponential([0.0, 10.0, 20.0], [1.0, 1.0, 1.0], 100)
    assert not fit.ok
    assert "degenerate" in fit.message


def test_exponential_increasing_data_flagged():
    fit = fit_exponential([0.0, 10.0, 20.0, 30.0], [0.2, 0.4, 0.6, 0.8], 100)
    assert not fit.ok


def test_exponential_needs_three_distinct_points():
    fit = fit_exponential([0.0, 0.0, 5.0], [1.0, 1.0, 0.5], 100)
    assert not fit.ok


@pytest.mark.parametrize("scale", [1e-300, 1e-310, 5e-324])
def test_fits_on_a_vanishing_time_grid_fail_cleanly(scale):
    """Decaying data on a valid grid whose times' squares underflow to 0
    gives a failed fit, as other degenerate grids do, and no numpy warning:
    neither an SVD error from the trend check nor an overflowing frequency
    scan, on the exponential fit or the damped cosine's fallback to it."""
    t = np.arange(6) * scale
    p = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = [fit_exponential(t, p, 100), fit_damped_cosine(t, p, 100)]
    assert [fit.ok for fit in fits] == [False, False]
    assert fits[1].fallback


# ---------------------------------------------------------------------------
# damped cosine fit
# ---------------------------------------------------------------------------

def test_damped_cosine_exact_recovery():
    t_phi, omega = 40.0, 2 * math.pi * 0.1  # us, rad/us
    t = np.linspace(0, 60, 61)
    p = damped_cosine_model(t, t_phi, omega)
    fit = fit_damped_cosine(t, p, 8000)
    assert fit.ok and fit.converged and not fit.fallback
    assert fit.params["omega"] == pytest.approx(omega, rel=1e-2 * 1e-2)
    assert fit.params["t_phi"] == pytest.approx(t_phi, rel=1e-2)


def test_damped_cosine_model_zero_at_half_period():
    # undamped oscillation hits exactly zero when omega * t = pi
    omega = 2 * math.pi * 0.25
    t_zero = math.pi / omega
    assert damped_cosine_model(np.array([t_zero]), math.inf, omega)[0] == pytest.approx(0.0, abs=1e-12)


def test_damped_cosine_no_oscillation_falls_back():
    t = np.linspace(0, 60, 20)
    p = 0.5 * (1 + np.exp(-t / 30.0))
    fit = fit_damped_cosine(t, p, 4000)
    assert fit.fallback
    assert fit.params["omega"] == 0.0
    assert fit.params["t_phi"] == pytest.approx(30.0, rel=0.05)


def test_damped_cosine_singular_refinement_falls_back():
    """Ramsey data of a fast-dephasing, slowly drifting qubit (T2 = 10 us,
    5 kHz drift, 1000 shots) shows a spurious spectral peak; refining it
    drives the envelope to zero, which leaves the normal equations singular.
    The fit then falls back to the exponential form instead of failing."""
    t = np.linspace(0, 20, 40)
    p = damped_cosine_model(t, 10.0, 2 * math.pi * 0.005)
    p = np.random.default_rng(0).binomial(1000, p) / 1000
    fit = fit_damped_cosine(t, p, 1000)
    assert fit.ok and fit.fallback
    assert fit.message.startswith("singular normal equations")
    assert fit.params["t_phi"] == pytest.approx(10.0, rel=0.2)


def test_damped_cosine_needs_six_points():
    fit = fit_damped_cosine([0, 1, 2, 3, 4], [1, 0.5, 0.2, 0.5, 0.9], 100)
    assert not fit.ok


def test_r_squared_exact_on_model_data():
    t = np.linspace(0, 50, 26)
    p = damped_cosine_model(t, 25.0, 1.1)
    fit = fit_damped_cosine(t, p, 1000)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# theoretical QPE distribution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(8))
def test_qpe_distribution_perfect_phases(k):
    dist = theoretical_qpe_distribution(k * math.pi / 4)
    assert dist[k] == pytest.approx(1.0, abs=1e-12)
    assert sum(dist) == pytest.approx(1.0, abs=1e-12)


def test_qpe_distribution_halfway_max():
    dist = theoretical_qpe_distribution(math.pi / 8)
    assert max(dist) == pytest.approx(0.41054, abs=5e-5)
    assert max(dist) == pytest.approx(qpe_outcome_probability(math.pi / 8, 0), abs=1e-12)


@given(st.floats(0, 2 * math.pi, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_qpe_distribution_normalized(phi):
    assert sum(theoretical_qpe_distribution(phi)) == pytest.approx(1.0, abs=1e-12)


def test_qpe_distribution_matches_statevector_oracle():
    rng = np.random.default_rng(7)
    for phi in rng.uniform(0, 2 * math.pi, 50):
        dist = theoretical_qpe_distribution(phi)
        state = inverse_qft_matrix() @ final_state(Circuit(3).extend(qpe_prep(phi)))
        for k in range(8):
            assert probability_of(state, qpe_expected_label(k)) == pytest.approx(
                dist[k], abs=1e-10
            )
