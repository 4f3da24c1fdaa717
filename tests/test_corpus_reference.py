"""The certificate corpus scored in one pass against the per-profile loop.

``ref_corpus_worst`` is the loop ``run_certificates`` ran before, kept
verbatim as the oracle: it drew each random step profile and scored it on
its own with ``tilde_energy``, ``chessboard_lower_bound`` and
``excess_energy_decomposition``. The batched corpus draws the same profiles
and must give the same two certificates, bit for bit: every piece's
self-integral is summed on its own (Horner's rule in
``energy._self_integrals``), so a profile scores the same inside the
corpus as alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from froth1d import verify
from froth1d.coarsegrain import CoarseGrainConfig
from froth1d.diagnostics import excess_energy_decomposition
from froth1d.energy import tilde_energy
from froth1d.errors import ValidationError
from froth1d.minimize import restart_rng
from froth1d.model import KacMeasure, ModelParams
from froth1d.profiles import StepProfile, runs
from froth1d.sharp import chessboard_lower_bound, optimal_h
from froth1d.verify import _corpus_gaps, random_in_k_step, run_certificates

# ---------------------------------------------------------------------------
# reference


def ref_corpus_worst(params, p_used, p_solved, seed, n_step_profiles, fast,
                     gamma, h_star, e_star):
    # chessboard and RP lower bounds on a random in-K corpus
    cfg = CoarseGrainConfig()
    m_bar = cfg.m_bar(params.m_beta, gamma)
    L = (4.0 if fast else 20.0) * h_star
    worst_cb = np.inf
    worst_c000 = np.inf
    n_profiles = 2 if fast else n_step_profiles
    for k in range(n_profiles):
        rng_k = restart_rng(seed, 100 + k)
        step = random_in_k_step(rng_k, L, params.m_beta, m_bar, h_star)
        e_tilde = tilde_energy(p_used, step)
        bound, _ = chessboard_lower_bound(p_used, step)
        worst_cb = min(worst_cb, e_tilde - bound)
        excess, well, _ = excess_energy_decomposition(
            p_solved, step, e_star=e_star)
        rhs = L * e_star + 0.5 * excess + well / 4.0
        worst_c000 = min(worst_c000, e_tilde - rhs)
    return worst_cb, worst_c000


# ---------------------------------------------------------------------------
# helpers

ONE_ATOM = ((1.0, 1.0),)
THREE_ATOMS = ((0.5, 1.0), (0.3, 2.0), (0.2, 0.5))


def _per_profile_gaps(p_used, p_solved, steps, h_star, e_star):
    """Each profile scored alone by the public functions."""
    gaps_cb, gaps_c000 = [], []
    for step in steps:
        e_tilde = tilde_energy(p_used, step)
        gaps_cb.append(e_tilde - chessboard_lower_bound(p_used, step)[0])
        excess, well, _ = excess_energy_decomposition(
            p_solved, step, e_star=e_star)
        gaps_c000.append(e_tilde - (step.L * e_star + 0.5 * excess
                                    + well / 4.0))
    return gaps_cb, gaps_c000


def _assert_gaps_match(p_used, p_solved, steps):
    h_star, e_star, _, _ = optimal_h(p_solved)
    got = _corpus_gaps(p_used, p_solved, steps, e_star)
    want = _per_profile_gaps(p_used, p_solved, steps, h_star, e_star)
    for g, w in zip(got, want):
        assert len(g) == len(w) == len(steps)
        assert g == w


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("atoms", [ONE_ATOM, THREE_ATOMS])
@pytest.mark.parametrize("tau", [None, 0.2])
@pytest.mark.parametrize("seed", [0, 7, 31])
@pytest.mark.parametrize("n_profiles,fast", [(1, False), (2, False),
                                             (20, False), (20, True)])
def test_certificates_match_the_per_profile_loop(atoms, tau, seed,
                                                 n_profiles, fast):
    gamma = 1e-2
    params = ModelParams.create(beta=2.0, gamma=gamma,
                                measure=KacMeasure(atoms=atoms), tau=tau)
    certs = {c.name: c for c in run_certificates(
        params, seed=seed, n_step_profiles=n_profiles, fast=fast)}
    ident = certs["cell_energy_identity"].params
    p_used = params.with_tau(ident["tau_used"])
    p_solved = params.with_tau(ident["tau_solved"])
    h_star, e_star, _, _ = optimal_h(p_solved)
    assert h_star == ident["h_star"]
    worst_cb, worst_c000 = ref_corpus_worst(
        params, p_used, p_solved, seed, n_profiles, fast, gamma, h_star,
        e_star)
    cb, c000 = certs["chessboard_lower_bound"], certs["rp_lower_bound_c000"]
    L = cb.params["L"]
    assert cb.lhs == worst_cb
    assert cb.slack == worst_cb + 1e-9 * L
    assert cb.passed == bool(worst_cb >= -1e-9 * L)
    allowance = 10.0 * gamma ** (4.0 / 3.0) * L
    assert c000.lhs == worst_c000
    assert c000.slack == worst_c000 + allowance
    assert c000.passed == bool(worst_c000 >= -allowance)
    assert cb.params["n_profiles"] == (2 if fast else n_profiles)


@pytest.mark.parametrize("n_step_profiles", [0, -1, 2.0, True])
@pytest.mark.parametrize("fast", [False, True])
def test_empty_corpus_rejected(params, n_step_profiles, fast, monkeypatch):
    # an empty corpus passed both bounds with lhs inf; the count is refused
    # before the first check and the instanton solve
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    for name in ("rp_spectrum_check", "solve_instanton"):
        monkeypatch.setattr(verify, name, no_check)
    with pytest.raises(ValidationError, match="n_step_profiles"):
        run_certificates(params, n_step_profiles=n_step_profiles, fast=fast)


def test_cells_stay_in_their_profile(params_tau):
    # the last piece of each profile and the first of the next share a
    # sign: the corpus cuts its sign runs there, so every profile keeps the
    # cells it has alone, and its gaps are the ones it has alone
    m = params_tau.m_beta
    steps = [StepProfile.from_pieces([(30.0, m), (40.0, -m), (25.0, m)]),
             StepProfile.from_pieces([(20.0, 0.9), (35.0, -m)]),
             StepProfile.from_pieces([(50.0, -0.95)]),
             StepProfile.from_pieces([(15.0, -m), (10.0, -0.9), (45.0, m)])]
    values = np.concatenate([s.values for s in steps])
    first = np.cumsum([0] + [s.values.size for s in steps[:-1]])
    cells = runs(np.sign(values), first)[0]
    assert cells.tolist() == [0, 1, 2, 3, 4, 5, 6, 8]
    assert cells.size == sum(len(s.sign_intervals()) for s in steps)
    assert set(first.tolist()) <= set(cells.tolist())
    _assert_gaps_match(params_tau, params_tau, steps)


@st.composite
def corpora(draw):
    """One to five step profiles of one to twelve pieces, |values| in
    [0.5, 1], random signs (adjacent profiles often share a sign)."""
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 12))
        widths = draw(st.lists(st.floats(0.5, 80.0), min_size=n, max_size=n))
        values = draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                              max_size=n))
        steps.append(StepProfile.from_pieces(
            [(w, s * v) for w, s, v in zip(widths, signs, values)]))
    return steps


@settings(max_examples=60, deadline=None)
@given(steps=corpora(), atoms=st.sampled_from([ONE_ATOM, THREE_ATOMS]),
       gamma=st.sampled_from([1e-3, 1e-2, 5e-2]))
def test_random_corpora_match_each_profile_alone(steps, atoms, gamma):
    params = ModelParams.create(beta=2.0, gamma=1e-2,
                                measure=KacMeasure(atoms=atoms), tau=0.2)
    params = params.with_gamma(gamma)
    _assert_gaps_match(params, params.with_tau(0.19), steps)
