"""Count-profile engine: the superset closure against the tie-set route, the
operating-count chain against the state-level consolidated chain, and the
explicit checks of the invariants the solvers rely on."""

from collections import Counter
from functools import cached_property

import numpy as np
import pytest

import ckngb.chain as chain_mod
import ckngb.sntf as sntf_mod
import ckngb.tiesets as tiesets_mod
import ckngb.ttf as ttf_mod
from ckngb.chain import build_count_chain, check_upper_triangular
from ckngb.errors import InvariantViolation, NoTieSets, OddNUnsupported
from ckngb.experiments import (
    DEFAULT_Z_MAX,
    parse_config,
    run_sweep_msntf,
    run_sweep_scv,
)
from ckngb.sntf import (
    count_distribution,
    factorial_moment,
    mean_closed,
    pmf_survival_series,
    sntf_distribution,
)
from ckngb.system import BalanceCondition, SystemConfig, balanced_masks
from ckngb.tiesets import count_profile, enumerate_min_tiesets, nonfailed_closure
from ckngb.ttf import (
    compound_ph,
    failure_time_moments,
    failure_time_summary,
    pdf_grid,
    ph_from_preset,
    ph_mean_scv,
    raw_moment,
)
from oracles import (
    closure_profile,
    dense_moments,
    minimal_masks,
    or_closure,
    scan_min_tiesets,
    tieset_table,
)

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
        minimal = _outcome(lambda: tuple(enumerate_min_tiesets(n, k, bc).tolist()))
        if isinstance(expected, type):
            same = got is expected and minimal is expected
        else:
            same = minimal == expected and np.array_equal(got, tieset_table(expected, n))
        if not same:
            mismatches.append((n, k, bc.value))
    assert mismatches == []


PLANE_CASES = [*range(2, 15), 16]


@pytest.mark.parametrize("n", PLANE_CASES)
def test_plane_route_equals_or_closure(n):
    """The closure, count profile and tie-sets read off the closure plane
    of each k equal those of the per-k OR closure, for every k and bc (at
    n = 16 for the k of CLOSURE_CASES)."""
    mismatches = []
    for bc in BalanceCondition:
        ks = range(2, n + 1) if n < 16 else [k for m, k, b in CLOSURE_CASES if (m, b) == (n, bc)]
        for k in ks:
            expected = _outcome(lambda: or_closure(n, k, bc))
            got = [
                _outcome(lambda: nonfailed_closure(n, k, bc)),
                _outcome(lambda: count_profile(n, k, bc)),
                _outcome(lambda: tuple(enumerate_min_tiesets(n, k, bc).tolist())),
            ]
            if isinstance(expected, type):
                same = got == [expected] * 3
            else:
                same = (
                    np.array_equal(got[0], expected)
                    and got[1].tolist() == closure_profile(expected, n).tolist()
                    and got[2] == minimal_masks(expected, n)
                )
            if not same:
                mismatches.append((k, bc.value))
    assert mismatches == []


def test_profile_blocks_equal_popcount_histogram():
    """At n = 20 and 22 the count profile reads the closure plane in 16 and
    64 blocks of 2**10 words, each summed at the popcount of its first
    word: it equals the popcount histogram of the nonfailed masks."""
    for n in (20, 22):
        for bc in (BC2, BC3):
            for k in (2, 4, 6):
                masks = np.flatnonzero(nonfailed_closure(n, k, bc))
                expected = np.bincount(np.bitwise_count(masks), minlength=n + 1)
                assert count_profile(n, k, bc).tolist() == expected.tolist()


@pytest.mark.parametrize("n", [2, 5, 6, 7, 13, 20])
def test_multi_k_planes_equal_single_k(n, fresh_caches):
    """Every row of a multi-k planes call equals the plane of its k alone,
    and every row of a multi-k count profile the profile of its k alone,
    for every feasible k and bc: a partial word (n < 6), one word, two
    words, and groups of eight rows that hold at most 2**n bytes."""
    for bc in BalanceCondition:
        if bc is BC1 and n % 2:
            continue
        ks = tuple(range(1, n + 1))
        rows = []
        for planes in tiesets_mod._planes(n, bc, ks, balanced_masks(n, bc)):
            assert n < 6 or planes.nbytes <= 1 << n
            rows.extend(planes)
        assert [row.tolist() for row in rows] == [tiesets_mod._plane(n, k, bc).tolist() for k in ks]
        profiles = count_profile(n, ks, bc)
        assert profiles.tolist() == [count_profile(n, k, bc).tolist() for k in ks]
        with pytest.raises(NoTieSets):
            count_profile(n, (*ks, n + 1), bc)


@pytest.mark.parametrize("n,bc,built", [(11, BC2, 1), (11, BC3, 1), (9, BC3, 3), (12, BC1, 6)])
def test_multi_k_profile_builds_one_plane_per_mask_set(n, bc, built, monkeypatch, fresh_caches):
    """Thresholds that select the same balanced masks share one plane: at a
    prime n, BC2 and BC3 balance only the full set, so k = 2..n-1 all
    select it."""
    rows = []
    planes = tiesets_mod._planes

    def counted_planes(n, bc, ks, masks):
        rows.extend(ks)
        yield from planes(n, bc, ks, masks)

    monkeypatch.setattr(tiesets_mod, "_planes", counted_planes)
    ks = tuple(range(2, n))
    profiles = count_profile(n, ks, bc).tolist()
    assert len(rows) == built
    assert profiles == [count_profile(n, k, bc).tolist() for k in ks]


@pytest.mark.parametrize("route", [count_profile, enumerate_min_tiesets, nonfailed_closure])
def test_routes_raise_from_cold_caches(route, fresh_caches):
    """Each route raises NoTieSets on its own, with no closure built first.
    The set of all n units is balanced under every bc, so only k > n has
    no tie-sets."""
    for n, k, bc in ((4, 5, BC3), (9, 10, BC2), (2, 3, BC1)):
        with pytest.raises(NoTieSets):
            route(n, k, bc)


def test_sweep_panel_builds_each_table_once(monkeypatch, fresh_caches):
    """A sweep-msntf and a sweep-scv panel over n = 3..12, every k, two r
    levels and every bc read the balanced masks once per (n, bc), build
    one thinning matrix per (n, r) in each sweep, and each count chain's
    layers once."""
    tables, thinnings, layers = Counter(), Counter(), Counter()
    balance = tiesets_mod.balanced_masks
    terms = chain_mod._binomial_terms
    prop = chain_mod.CountChain.__dict__["layers"]
    layers_of = getattr(prop, "func", None) or prop.fget

    def counted_balance(n, bc):
        tables[n, bc] += 1
        return balance(n, bc)

    def counted_terms(coef, a, r):
        thinnings[coef.shape[0] - 1, r] += 1
        return terms(coef, a, r)

    def counted_layers(chain):
        layers[chain] += 1
        return layers_of(chain)

    counted = cached_property(counted_layers)
    counted.__set_name__(chain_mod.CountChain, "layers")
    monkeypatch.setattr(tiesets_mod, "balanced_masks", counted_balance)
    monkeypatch.setattr(chain_mod, "_binomial_terms", counted_terms)
    monkeypatch.setattr(chain_mod.CountChain, "layers", counted)
    ns, rs = list(range(3, 13)), [0.7, 0.9]
    doc = {"n": ns, "k": list(range(2, 12)), "r": rs, "bc": ["BC1", "BC2", "BC3"]}
    run_sweep_msntf(parse_config(doc))
    assert thinnings == Counter((n, r) for n in ns for r in rs)
    thinnings.clear()
    run_sweep_scv(parse_config(dict(doc, shock={"preset": ["ER", "HE"]})))

    assert tables == Counter(
        (n, bc) for n in ns for bc in BalanceCondition if not (bc is BC1 and n % 2)
    )
    assert thinnings == Counter((n, r) for n in ns for r in rs)
    assert layers and set(layers.values()) == {1}


def _chain_sizes(ns, ks, bcs, r):
    """The distinct count-chain sizes of the feasible systems of a grid."""
    sizes = set()
    for n in ns:
        for k in ks:
            for bc in bcs:
                if 2 <= k <= n - 1 and not (bc is BC1 and n % 2):
                    try:
                        sizes.add(build_count_chain(n, k, bc, r).size)
                    except NoTieSets:
                        pass
    return sizes


@pytest.mark.parametrize("bc", list(BalanceCondition), ids=lambda bc: bc.value)
def test_sweep_panel_solves_once_per_chain_size(bc, monkeypatch, fresh_caches):
    """A figure panel (one bc, n = 3..12, every k, one r) stacks its count
    chains by size: sweep-msntf back-substitutes once per chain size, and
    sweep-scv three times (E[M] and the two solves of E[M(M-1)]), whatever
    the number of presets, with no compound solve."""
    solves = Counter()
    solve = chain_mod.layered_solve

    def counted(chain, solve_layer):
        solves[chain.size] += 1
        return solve(chain, solve_layer)

    monkeypatch.setattr(sntf_mod, "layered_solve", counted)
    monkeypatch.setattr(ttf_mod, "layered_solve", counted)
    ns, ks, r = list(range(3, 13)), list(range(2, 12)), 0.9
    sizes = _chain_sizes(ns, ks, [bc], r)
    doc = {"n": ns, "k": ks, "r": [r], "bc": bc.value}
    run_sweep_msntf(parse_config(doc))
    assert solves == Counter(dict.fromkeys(sizes, 1))
    for presets in (["HE"], ["ER", "EXP", "HE"]):
        solves.clear()
        run_sweep_scv(parse_config(dict(doc, shock={"preset": presets})))
        assert solves == Counter(dict.fromkeys(sizes, 3))


def test_sweep_builds_each_thinning_once(monkeypatch, fresh_caches):
    """A sweep over 100 r values builds each (n, r) thinning matrix once,
    for every k and bc of the grid."""
    thinnings = Counter()
    terms = chain_mod._binomial_terms

    def counted_terms(coef, a, r):
        thinnings[coef.shape[0] - 1, r] += 1
        return terms(coef, a, r)

    monkeypatch.setattr(chain_mod, "_binomial_terms", counted_terms)
    ns, rs = [6, 8], [round(0.005 + 0.0099 * i, 6) for i in range(100)]
    doc = {"n": ns, "k": list(range(2, 8)), "r": rs, "bc": ["BC1", "BC2", "BC3"]}
    assert len(set(rs)) == 100
    for sweep, extra in ((run_sweep_msntf, {}), (run_sweep_scv, {"shock": {"preset": ["ER", "HE"]}})):
        thinnings.clear()
        sweep(parse_config(dict(doc, **extra)))
        assert thinnings == Counter((n, r) for n in ns for r in rs)


def test_batched_sweeps_equal_single_system_calls():
    """Every sweep value equals, bit for bit, the single-system call on the
    same system: the mean shock count, and MTTF, its Wald value and SCV
    for each preset from the shock-count moments of the single chain.
    Infeasible systems read ``infeasible``.  MTTF and SCV also agree with
    dense solves of the compound subgenerator (``oracles.dense_moments``):
    over the 2 394 feasible rows the worst relative gaps measured 1.1e-14
    (MTTF) and 3.0e-14 (SCV), both at r = 0.999, so the bound is 1e-13."""
    ns, ks, rs = list(range(3, 17)), list(range(2, 16)), [0.3, 0.9, 0.999]
    doc = {"n": ns, "k": ks, "r": rs, "bc": ["BC1", "BC2", "BC3"]}
    presets = ["ER", "EXP", "HE"]
    msntf_rows = run_sweep_msntf(parse_config(doc))
    scv_rows = run_sweep_scv(parse_config(dict(doc, shock={"preset": presets})))
    laws = {label: ph_from_preset(label) for label in presets}
    expected, mismatches, worst = {}, [], 0.0
    for row in msntf_rows:
        bc, n, k, r = row["bc"], row["n"], row["k"], row["r"]
        try:
            chain = count_distribution(SystemConfig(n, k, r, BalanceCondition(bc)))
        except (NoTieSets, OddNUnsupported):
            expected[bc, n, k, r] = None
            mismatches += [row] if row["msntf"] != "infeasible" else []
            continue
        expected[bc, n, k, r] = chain
        mismatches += [row] if row["msntf"] != mean_closed(chain) else []
    for row in scv_rows:
        chain = expected[row["bc"], row["n"], row["k"], row["r"]]
        got = [row["mttf"], row["mttf_wald"], row["scv"]]
        if chain is None:
            mismatches += [row] if got != ["infeasible"] * 3 else []
            continue
        Y = laws[row["preset"]]
        moments = mean_closed(chain), factorial_moment(chain, 2)
        want = failure_time_summary(*moments, *ph_mean_scv(Y))
        mismatches += [row] if got != [want["mttf"], want["mttf_wald"], want["scv"]] else []
        m1, m2 = dense_moments(compound_ph(chain, Y), 2)
        for value, dense in ((row["mttf"], m1), (row["scv"], m2 / m1**2 - 1.0)):
            worst = max(worst, abs(value - dense) / dense)
    assert sum(chain is not None for chain in expected.values()) > 600
    assert mismatches == []
    assert worst <= 1e-13


def test_profile_counts_nonfailed_states_by_operating_units():
    assert count_profile(4, 2, BC3).tolist() == [0, 0, 2, 4, 1]


def test_empty_closure_raises_no_tiesets(monkeypatch, fresh_caches):
    monkeypatch.setattr(tiesets_mod, "balanced_masks", lambda n, bc: np.zeros(0, dtype=np.int64))
    with pytest.raises(NoTieSets):
        nonfailed_closure(4, 2, BC3)
    with pytest.raises(NoTieSets):
        count_profile(4, 2, BC3)


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
    (``raw_moment``) 2.1e-14 and SCV (``failure_time_moments``) 4.5e-14,
    all at r = 0.999, where 1 - r^s keeps only a few digits (at most
    5.7e-15 at the other levels); pmf and survival 7.1e-15 pointwise;
    failure-time density 2.8e-15 and survival 4.4e-15."""
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
                    checks[f"mttf {label}"] = _close(raw_moment(a), raw_moment(b), tol)
                    (m1a, m2a), (m1b, m2b) = (failure_time_moments(c, Y, 2) for c in (counts, states))
                    checks[f"scv {label}"] = _close(m2a / m1a**2 - 1.0, m2b / m1b**2 - 1.0, tol)
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
    check_upper_triangular(P[:2])  # rows 0 and 1 hold no such entry
    with pytest.raises(InvariantViolation):
        check_upper_triangular(P[1:, 1:])  # a block from state 1 on, as the dump checks it


def test_count_chain_rejects_profile_that_is_not_an_up_set(monkeypatch, fresh_caches):
    # all six 2-unit states but only one 3-unit state: q_3 = 1/4 < q_2 = 1
    profile = np.array([0, 0, 6, 1, 1])
    monkeypatch.setattr(chain_mod, "count_profile", lambda n, k, bc: profile)
    with pytest.raises(InvariantViolation):
        build_count_chain(4, 2, BC3, 0.7)
