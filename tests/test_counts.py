"""Count-profile engine: the superset closure against the tie-set route, the
operating-count chain against the state-level consolidated chain, and the
explicit checks of the invariants the solvers rely on."""

import numpy as np
import pytest

import ckngb.chain as chain_mod
import ckngb.tiesets as tiesets_mod
from ckngb.chain import build_count_chain, check_upper_triangular
from ckngb.errors import InvariantViolation, NoTieSets, OddNUnsupported
from ckngb.experiments import DEFAULT_Z_MAX
from ckngb.sntf import (
    count_distribution,
    factorial_moment,
    mean_closed,
    pmf_survival_series,
    sntf_distribution,
)
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.tiesets import count_profile, enumerate_min_tiesets, nonfailed_closure
from ckngb.ttf import compound_ph, pdf_grid, ph_from_preset, raw_moment, scv
from oracles import scan_min_tiesets, tieset_table

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3

CLOSURE_CASES = [
    (n, k, bc) for n in range(2, 13) for k in range(2, n + 1) for bc in BalanceCondition
] + [(n, 4, bc) for n in (14, 16) for bc in (BC2, BC3)]


def _outcome(compute):
    """The computed table, or the type of the infeasibility error raised."""
    try:
        return compute()
    except (NoTieSets, OddNUnsupported) as exc:
        return type(exc)


def test_closure_equals_tieset_table():
    """The closure equals the table of the subset scan's tie-sets, and its
    minimal elements are those tie-sets in the scan's order."""
    mismatches = []
    for n, k, bc in CLOSURE_CASES:
        expected = _outcome(lambda: scan_min_tiesets(n, k, bc))
        got = _outcome(lambda: nonfailed_closure(n, k, bc))
        minimal = _outcome(lambda: enumerate_min_tiesets(n, k, bc).masks)
        if isinstance(expected, type):
            same = got is expected and minimal is expected
        else:
            same = minimal == expected and np.array_equal(got, tieset_table(expected, n))
        if not same:
            mismatches.append((n, k, bc.value))
    assert mismatches == []


def test_profile_counts_nonfailed_states_by_operating_units():
    assert count_profile(4, 2, BC3).tolist() == [0, 0, 2, 4, 1]


def test_empty_closure_raises_no_tiesets(monkeypatch):
    monkeypatch.setattr(tiesets_mod, "balanced_mask_table", lambda n, bc: np.zeros(1 << n, dtype=bool))
    nonfailed_closure.cache_clear()
    with pytest.raises(NoTieSets):
        nonfailed_closure(4, 2, BC3)
    nonfailed_closure.cache_clear()


def _close(got, want, tol, scale=None):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.abs(want) if scale is None else scale
    return bool((np.abs(got - want) <= tol * scale).all())


@pytest.mark.parametrize("n", range(2, 13))
def test_count_chain_matches_state_chain(n):
    """The state chain never reads the count profile, so agreement tests the
    count reduction itself.  Both chains form absorb as a sum of nonnegative
    failed-subset terms, so a small pmf value keeps its relative accuracy on
    either.  pmf and pdf are compared relative to the largest value of their
    series, every other quantity pointwise.  Worst relative gaps measured
    over n = 2..12: mean 1.6e-14, second factorial moment 3.2e-14, MTTF
    2.1e-14 and SCV 5.4e-14, all at r = 0.999, where 1 - r^s keeps only a
    few digits (at most 5.1e-15 at the other levels); pmf and survival
    7.1e-15 pointwise; failure-time density 2.8e-15 and survival 4.4e-15."""
    tol = 1e-12
    zs = np.linspace(0.0, DEFAULT_Z_MAX, 41)
    failures = []
    for bc in BalanceCondition:
        if bc is BC1 and n % 2:
            continue
        for k in range(2, n + 1):
            for r in (0.3, 0.7, 0.95, 0.999):
                config = SystemConfig(n, k, r, bc)
                try:
                    counts = count_distribution(config)
                except NoTieSets:
                    continue
                states = sntf_distribution(config)
                q = counts.weights
                assert (np.diff(q) <= 0.0).all()  # nondecreasing in j = n - state
                assert (counts.absorb >= 0.0).all()

                pmf_c, surv_c = pmf_survival_series(counts, 50)
                pmf_s, surv_s = pmf_survival_series(states, 50)
                checks = {
                    "mean": _close(mean_closed(counts), mean_closed(states), tol),
                    "factorial2": _close(
                        factorial_moment(counts, 2), factorial_moment(states, 2), tol
                    ),
                    "pmf": _close(pmf_c, pmf_s, tol, np.abs(pmf_s).max()),
                    "survival": _close(surv_c, surv_s, tol),
                }
                for label in ("ER", "EXP", "HE"):
                    Y = ph_from_preset(label)
                    a, b = compound_ph(counts, Y), compound_ph(states, Y)
                    dens_a, surv_a = pdf_grid(a, zs)
                    dens_b, surv_b = pdf_grid(b, zs)
                    checks[f"mttf {label}"] = _close(raw_moment(a, 1), raw_moment(b, 1), tol)
                    checks[f"scv {label}"] = _close(scv(a), scv(b), tol)
                    checks[f"pdf {label}"] = _close(dens_a, dens_b, tol, np.abs(dens_b).max())
                    checks[f"ttf survival {label}"] = _close(surv_a, surv_b, tol)
                failures += [(k, bc.value, r, name) for name, ok in checks.items() if not ok]
    assert failures == []


def test_count_chain_is_small_and_starts_full():
    chain = build_count_chain(12, 4, BC3, 0.9)
    assert chain.size == 12 - 4 + 1  # j = 12 down to 4
    assert chain.weights[0] == 1.0
    assert not np.tril(chain.transition, -1).any()


def test_triangularity_check_rejects_below_diagonal_entry():
    P = np.triu(np.full((4, 4), 0.1))
    check_upper_triangular(P)
    P[2, 1] = 0.05
    with pytest.raises(InvariantViolation):
        check_upper_triangular(P)


def test_count_chain_rejects_profile_that_is_not_an_up_set(monkeypatch):
    # all six 2-unit states but only one 3-unit state: q_3 = 1/4 < q_2 = 1
    profile = np.array([0, 0, 6, 1, 1])
    monkeypatch.setattr(chain_mod, "count_profile", lambda n, k, bc: profile)
    build_count_chain.cache_clear()
    with pytest.raises(InvariantViolation):
        build_count_chain(4, 2, BC3, 0.7)
    build_count_chain.cache_clear()
