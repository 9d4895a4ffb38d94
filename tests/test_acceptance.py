"""Acceptance suite: every release-gating criterion with one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from ckngb.chain import build_consolidated, build_state_chain
from ckngb.montecarlo import simulate_sntf, simulate_ttf
from ckngb.sntf import (
    factorial_moment,
    mean_closed,
    pmf_direct,
    pmf_survival_series,
    raw_moment_series,
)
from ckngb.system import BalanceCondition, SystemConfig, balanced_masks
from ckngb.tiesets import enumerate_min_tiesets
from ckngb.ttf import (
    compound_ph,
    failure_time_moments,
    ph_from_preset,
    ph_mean_scv,
    raw_moment,
)
from goldens import (
    COMPOUND_GENERATOR,
    CONSOLIDATED_ABSORB,
    CONSOLIDATED_P,
    MTTF_12_BC3,
    MTTF_RATIO_K4_OVER_K8,
    MTTF_RATIO_R9_OVER_R5,
    TABLE_STATES,
)
from helpers import clear_package_caches
from oracles import full_transition_matrix, to_dense

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3

ACCEPTANCE_SEED = 20240
PRESETS = ("ER", "EXP", "HE")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed {suffix}"


def _equivalence_grid():
    """n in 3..8, k in 2..n, r in the four study levels; BC3 always plus
    BC1/BC2 on even n."""
    for n in range(3, 9):
        for k in range(2, n + 1):
            bcs = [BC3] if n % 2 else [BC3, BC1, BC2]
            for bc in bcs:
                for r in (0.3, 0.5, 0.7, 0.9):
                    yield SystemConfig(n, k, r, bc)


def test_criterion_01_consolidated_matrix_golden():
    clear_package_caches()
    start = time.perf_counter()
    masks, blocks = build_consolidated(SystemConfig(4, 2, 0.7, BC3))
    transition, absorb = (np.concatenate(parts) for parts in zip(*blocks))
    elapsed = time.perf_counter() - start
    state_ok = [format(mask, "04b") for mask in masks.tolist()] == TABLE_STATES
    entry_gap = max(
        float(np.abs(transition - CONSOLIDATED_P).max()),
        float(np.abs(absorb - CONSOLIDATED_ABSORB).max()),
    )
    _report(
        1,
        "consolidated matrix golden",
        state_ok and entry_gap < 5e-4 and elapsed < 1.0,
        f"max entry gap {entry_gap:.2e}, built in {elapsed:.3f}s",
    )


def test_criterion_02_compound_golden():
    start = time.perf_counter()
    dist = build_state_chain(SystemConfig(4, 2, 0.7, BC3))
    Z = compound_ph(dist, ph_from_preset("ER"))
    dense = to_dense(Z)
    elapsed = time.perf_counter() - start
    alpha_ok = Z.dim == 14 and np.array_equal(Z.alpha, np.eye(14)[0])
    gap = float(np.abs(dense - COMPOUND_GENERATOR).max())
    spot_ok = (
        abs(dense[1, 0] - 0.480) < 5e-4
        and abs(dense[3, 2] - 0.686) < 5e-4
        and abs(dense[3, 8] - 0.294) < 5e-4
        and abs(dense[9, 8] - 0.980) < 5e-4
    )
    _report(
        2,
        "compound generator golden",
        alpha_ok and spot_ok and gap < 5e-4 and elapsed < 1.0,
        f"max entry gap {gap:.2e}, built in {elapsed:.3f}s",
    )


def test_criterion_03_pmf_route_equivalence():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for config in _equivalence_grid():
        dist = build_state_chain(config)
        pmf_m, _ = pmf_survival_series(dist, 50)
        for m in range(1, 51):
            worst = max(worst, abs(pmf_m[m - 1] - pmf_direct(config, m)))
        count += 1
    elapsed = time.perf_counter() - start
    _report(
        3,
        "direct pmf equals matrix pmf",
        worst < 1e-12 and elapsed < 120.0,
        f"{count} configs, max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_consolidation_fidelity():
    worst = 0.0
    for n in range(2, 7):
        for k in range(2, n + 1):
            bcs = [BC3] if n % 2 else [BC3, BC1, BC2]
            for bc in bcs:
                for r in (0.3, 0.7):
                    masks = build_state_chain(SystemConfig(n, k, r, bc)).masks
                    _, surv = pmf_survival_series(build_state_chain(SystemConfig(n, k, r, bc)), 20)
                    full = full_transition_matrix(n, r)
                    alive = (1 << n) - 1 - masks  # canonical index - 1
                    v = np.zeros(1 << n)
                    v[alive[0]] = 1.0
                    for m in range(1, 21):
                        v = v @ full
                        gap = abs((1.0 - v[alive].sum()) - (1.0 - surv[m - 1]))
                        worst = max(worst, gap)
    _report(4, "consolidation fidelity", worst < 1e-12, f"max gap {worst:.2e}")


def test_criterion_05_closed_moments_vs_series():
    worst_mean = 0.0
    worst_second = 0.0
    for config in _equivalence_grid():
        dist = build_state_chain(config)
        mean = mean_closed(dist)
        worst_mean = max(worst_mean, abs(mean - raw_moment_series(config, 1)))
        second = factorial_moment(dist, 2) + mean
        worst_second = max(worst_second, abs(second - raw_moment_series(config, 2)))
    _report(
        5,
        "closed-form moments match series",
        worst_mean < 1e-9 and worst_second < 1e-9,
        f"mean gap {worst_mean:.2e}, second-moment gap {worst_second:.2e}",
    )


def _mttf_12(k: float, r: float) -> float:
    dist = build_state_chain(SystemConfig(12, k, r, BC3))
    return raw_moment(compound_ph(dist, ph_from_preset("ER")))


def test_criterion_06_mttf_reproduction():
    start = time.perf_counter()
    mttf = {(k, r): _mttf_12(k, r) for k in (4, 6, 8) for r in (0.5, 0.7, 0.9)}
    elapsed = time.perf_counter() - start
    value_gaps = {
        pair: abs(mttf[pair] - expected) for pair, expected in MTTF_12_BC3.items()
    }
    values_ok = all(gap <= 0.01 for gap in value_gaps.values())
    ratio_gaps = {}
    for r, expected in MTTF_RATIO_K4_OVER_K8.items():
        ratio_gaps[f"k4/k8@r={r}"] = abs(mttf[(4, r)] / mttf[(8, r)] - expected)
    for k, expected in MTTF_RATIO_R9_OVER_R5.items():
        ratio_gaps[f"r.9/r.5@k={k}"] = abs(mttf[(k, 0.9)] / mttf[(k, 0.5)] - expected)
    ratios_ok = all(gap <= 0.02 for gap in ratio_gaps.values())
    worst_value = max(value_gaps.values())
    worst_ratio = max(ratio_gaps.values())
    _report(
        6,
        "twelve-unit MTTF reproduction",
        values_ok and ratios_ok and elapsed < 600.0,
        f"max value gap {worst_value:.4f}, max ratio gap {worst_ratio:.4f}, {elapsed:.1f}s",
    )


def test_criterion_07_wald_identity():
    worst = 0.0
    configs = list(_equivalence_grid()) + [
        SystemConfig(12, k, r, BC3) for k in (4, 6, 8) for r in (0.5, 0.7, 0.9)
    ]
    for config in configs:
        dist = build_state_chain(config)
        mean_m = mean_closed(dist)
        for label in PRESETS:
            Y = ph_from_preset(label)
            mean_y, _ = ph_mean_scv(Y)
            gap = abs(raw_moment(compound_ph(dist, Y)) - mean_m * mean_y)
            worst = max(worst, gap)
    _report(7, "Wald identity", worst < 1e-8, f"max gap {worst:.2e}")


def test_criterion_08_preset_fidelity():
    expected = {"ER": (1.0, 0.5), "EXP": (1.0, 1.0), "HE": (1.0, 2.0)}
    worst = 0.0
    for label, (mean, y_scv) in expected.items():
        got_mean, got_scv = ph_mean_scv(ph_from_preset(label))
        worst = max(worst, abs(got_mean - mean), abs(got_scv - y_scv))
    _report(8, "preset mean/SCV fidelity", worst < 1e-12, f"max gap {worst:.2e}")


def test_criterion_09_scv_ordering():
    values = {}
    for k in (4, 6, 8):
        dist = build_state_chain(SystemConfig(12, k, 0.9, BC3))
        for label in PRESETS:
            m1, m2 = failure_time_moments(dist, ph_from_preset(label), 2)
            values[(k, label)] = m2 / m1**2 - 1.0
    base_order = all(
        values[(k, "HE")] > values[(k, "EXP")] > values[(k, "ER")] for k in (4, 6, 8)
    )
    k_order = all(
        values[(8, label)] > values[(6, label)] > values[(4, label)] for label in PRESETS
    )
    detail = ", ".join(f"k={k} ER={values[(k,'ER')]:.3f}" for k in (4, 6, 8))
    _report(9, "SCV ordering", base_order and k_order, detail)


def test_criterion_10_geometric_special_case():
    worst = 0.0
    for n in range(2, 9):
        for r in (0.3, 0.7):
            config = SystemConfig(n, n, r, BC3)
            dist = build_state_chain(config)
            pmf_m, _ = pmf_survival_series(dist, 30)
            success = 1.0 - r**n
            for m in range(1, 31):
                expected = (r**n) ** (m - 1) * success
                worst = max(worst, abs(pmf_m[m - 1] - expected))
                worst = max(worst, abs(pmf_direct(config, m) - expected))
    _report(10, "geometric special case", worst < 1e-15, f"max gap {worst:.2e}")


def test_criterion_11_monte_carlo_agreement():
    config = SystemConfig(4, 2, 0.7, BC3, ph_from_preset("ER"))
    reps = 10**6
    dist = build_state_chain(config)
    analytic_mean = mean_closed(dist)
    analytic_mttf = raw_moment(compound_ph(dist, ph_from_preset("ER")))

    counts = simulate_sntf(config, ACCEPTANCE_SEED, reps)
    times = simulate_ttf(config, ACCEPTANCE_SEED, reps)
    msntf_ok = abs(counts.mean - analytic_mean) <= counts.half_width(0.99)
    mttf_ok = abs(times.mean - analytic_mttf) <= times.half_width(0.99)

    p_hat = counts.hist_counts[0] / reps
    se = math.sqrt(0.2601 * (1.0 - 0.2601) / reps)
    p1_ok = abs(p_hat - 0.2601) <= 3.0 * se
    _report(
        11,
        "Monte Carlo agreement",
        msntf_ok and mttf_ok and p1_ok,
        f"msntf {counts.mean:.4f} vs {analytic_mean:.4f}, "
        f"mttf {times.mean:.4f} vs {analytic_mttf:.4f}, P1 {p_hat:.4f}",
    )


def test_criterion_12_balance_condition_containment():
    containment_ok = True
    for n in (2, 4, 6, 8, 10, 12):
        bc3 = set(balanced_masks(n, BC3).tolist())
        for bc in (BC1, BC2):
            if not set(balanced_masks(n, bc).tolist()) <= bc3:
                containment_ok = False

    count_ok = True
    for n in (2, 4, 6, 8, 10, 12):
        for k in range(2, n + 1):
            count3 = len(enumerate_min_tiesets(n, k, BC3))
            count1 = len(enumerate_min_tiesets(n, k, BC1))
            count2 = len(enumerate_min_tiesets(n, k, BC2))
            if count3 < max(count1, count2):
                count_ok = False

    violations = []
    for k in (4, 6, 8):
        for r in (0.5, 0.7, 0.9):
            means = {
                bc: mean_closed(build_state_chain(SystemConfig(12, k, r, bc)))
                for bc in (BC1, BC2, BC3)
            }
            if not means[BC3] >= means[BC2] - 1e-9:
                violations.append(f"BC3<BC2 at (12,{k},{r})")
            if not means[BC2] >= means[BC1] - 1e-9:
                violations.append(f"BC2<BC1 at (12,{k},{r})")
    detail = "; ".join(violations) if violations else "ordering holds on the full grid"
    _report(
        12,
        "balance-condition containment",
        containment_ok and count_ok and not violations,
        detail,
    )
