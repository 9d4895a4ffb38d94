from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckngb.sntf import (
    count_distribution,
    factorial_moment,
    mean_closed,
    pmf_direct,
    pmf_survival_series,
    raw_moment_series,
    sntf_distribution,
    survival_direct,
)
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.tiesets import count_profile
from oracles import dense_transition, exact_count_moments

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3


@pytest.fixture
def reference(reference_config):
    return sntf_distribution(reference_config)


class TestDistribution:
    def test_reference_shape(self, reference):
        assert reference.masks[0] == 2**4 - 1  # started in the all-ones state
        assert dense_transition(reference).shape == (7, 7)

    def test_single_state_cases(self):
        d = sntf_distribution(SystemConfig(2, 2, 0.6))
        assert d.masks[0] == 2**2 - 1
        assert dense_transition(d) == pytest.approx(np.array([[0.36]]))
        d = sntf_distribution(SystemConfig(4, 4, 0.6))
        assert dense_transition(d) == pytest.approx(np.array([[0.6**4]]))


class TestPmf:
    def test_first_shock_failure(self, reference, reference_config):
        assert pmf_survival_series(reference, 1)[0][0] == pytest.approx(0.2601, abs=1e-12)
        assert pmf_direct(reference_config, 1) == pytest.approx(0.2601, abs=1e-12)

    def test_geometric_law(self):
        r = 0.7
        pmf, _ = pmf_survival_series(sntf_distribution(SystemConfig(2, 2, r)), 30)
        for m in range(1, 31):
            expected = (r**2) ** (m - 1) * (1 - r**2)
            assert abs(pmf[m - 1] - expected) < 1e-15

    def test_direct_small_case(self):
        config = SystemConfig(2, 2, 0.5)
        assert pmf_direct(config, 3) == pytest.approx(0.046875, abs=1e-15)

    def test_direct_equals_matrix_reference(self, reference, reference_config):
        pmf, _ = pmf_survival_series(reference, 50)
        diffs = [abs(pmf[m - 1] - pmf_direct(reference_config, m)) for m in range(1, 51)]
        assert max(diffs) < 1e-12

    def test_rejects_nonpositive_m(self, reference_config):
        with pytest.raises(ValueError):
            pmf_direct(reference_config, 0)


class TestSurvival:
    def test_boundary_and_reference(self, reference, reference_config):
        assert pmf_survival_series(reference, 1)[1][0] == pytest.approx(0.7399, abs=1e-12)
        assert survival_direct(reference_config, 0) == 1.0
        assert survival_direct(reference_config, 1) == pytest.approx(0.7399, abs=1e-12)

    def test_geometric_survival(self):
        r = 0.4
        _, surv = pmf_survival_series(sntf_distribution(SystemConfig(2, 2, r)), 11)
        for m in range(1, 12):
            assert surv[m - 1] == pytest.approx(r ** (2 * m), abs=1e-15)

    def test_telescoping(self, reference):
        pmf, surv = pmf_survival_series(reference, 19)
        surv = np.r_[1.0, surv]  # P{M > 0} = 1
        for m in range(1, 20):
            assert pmf[m - 1] == pytest.approx(surv[m - 1] - surv[m], abs=1e-14)

    @pytest.mark.parametrize("n,k,bc,r", [(4, 2, BC3, 0.7), (6, 3, BC2, 0.5), (6, 2, BC1, 0.9)])
    def test_normalization(self, n, k, bc, r):
        config = SystemConfig(n, k, r, bc)
        cutoff = 400
        total = sum(pmf_direct(config, m) for m in range(1, cutoff + 1))
        assert abs(total + survival_direct(config, cutoff) - 1.0) < 1e-12

    def test_mass_shifts_right_with_r(self):
        low = SystemConfig(6, 3, 0.5)
        high = SystemConfig(6, 3, 0.9)
        for m in range(1, 30):
            assert survival_direct(high, m) >= survival_direct(low, m)


@given(
    st.integers(3, 7),
    st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    st.integers(1, 40),
    st.data(),
)
def test_direct_equals_matrix_random_configs(n, r, m, data):
    k = data.draw(st.integers(2, n))
    config = SystemConfig(n, k, r, BC3)
    pmf, _ = pmf_survival_series(sntf_distribution(config), m)
    assert abs(pmf[m - 1] - pmf_direct(config, m)) < 1e-12


@pytest.mark.parametrize("ms", [(1, 2, 10, 50), np.array([1, 2, 10, 50])], ids=["ints", "array"])
@pytest.mark.parametrize("n,k,bc,r", [(12, 2, BC3, 0.999), (10, 2, BC1, 0.95)])
def test_pmf_direct_matches_exact_arithmetic(n, k, bc, r, ms):
    # failing in one shock is rare here, so P{M = 1} formed as a difference
    # of survival sums would cancel
    counts = [int(c) for c in count_profile(n, k, bc)]
    rf = Fraction(r)

    def survival_exact(m):
        p = rf**m
        return sum(c * p**j * (1 - p) ** (n - j) for j, c in enumerate(counts))

    config = SystemConfig(n, k, r, bc)
    if isinstance(ms, np.ndarray):  # one call for the table
        got = pmf_direct(config, ms).tolist()
    else:
        got = [pmf_direct(config, m) for m in ms]
    for m, value in zip(np.asarray(ms).tolist(), got):
        exact = survival_exact(m - 1) - survival_exact(m)
        assert abs(Fraction(value) - exact) <= Fraction(1, 10**13) * exact, m


@pytest.mark.parametrize("n,k,bc,r", [(12, 2, BC3, 0.999), (10, 2, BC1, 0.95)])
def test_matrix_route_matches_exact_arithmetic(n, k, bc, r):
    # the series behind sntf-pmf --matrix: every value a sum of nonnegative
    # terms, so it keeps its relative accuracy where failing is rare.  The
    # worst relative error measured over both series is 1.2e-15; the dense
    # chain's was 2.7e-15, so the bound catches a return to it
    bound = Fraction(2, 10**15)
    counts = [int(c) for c in count_profile(n, k, bc)]
    rf = Fraction(r)

    def survival_exact(m):
        p = rf**m
        return sum(c * p**j * (1 - p) ** (n - j) for j, c in enumerate(counts))

    pmf, surv = pmf_survival_series(sntf_distribution(SystemConfig(n, k, r, bc)), 50)
    exact = [survival_exact(m) for m in range(51)]
    for m in range(1, 51):
        want = exact[m - 1] - exact[m]
        assert abs(Fraction(float(pmf[m - 1])) - want) <= bound * want, m
        assert abs(Fraction(float(surv[m - 1])) - exact[m]) <= bound * exact[m], m


@pytest.mark.parametrize("r,bound", [(0.999, 3e-14), (0.9999, 7e-13)])
def test_closed_moments_match_exact_arithmetic_as_r_nears_one(r, bound):
    """mean_closed and factorial_moment(., 2) on both chains against the
    count chain solved in rational arithmetic, at n=12 k=2 BC3.  Worst
    relative errors measured over the two chains: 9.2e-15 at r = 0.999
    and 2.3e-13 at r = 0.9999; each bound is 3x that.  The digits go in
    the layered solve's 1 - r^s, which cancels the rounded r^s."""
    config = SystemConfig(12, 2, r, BC3)
    mean, fm2 = exact_count_moments(12, 2, BC3, r)
    for chain in (count_distribution(config), sntf_distribution(config)):
        assert abs(Fraction(mean_closed(chain)) - mean) <= Fraction(bound) * mean
        assert abs(Fraction(factorial_moment(chain, 2)) - fm2) <= Fraction(bound) * fm2


def test_series_moments_match_exact_arithmetic_near_one():
    """raw_moment_series at n=12 k=2 BC3 r=0.999 against rational
    arithmetic.  Measured relative errors: 3.2e-16 for E[M] and 1.8e-16 for
    E[M^2], so the survival-difference pmf loses no digits here; the bound
    is 3x the worse."""
    bound = Fraction(1, 10**15)
    config = SystemConfig(12, 2, 0.999, BC3)
    mean, fm2 = exact_count_moments(12, 2, BC3, 0.999)
    for p, want in ((1, mean), (2, fm2 + mean)):
        got = Fraction(raw_moment_series(config, p))
        assert abs(got - want) <= bound * want, p


class TestMoments:
    def test_geometric_mean(self):
        for r in (0.2, 0.5, 0.8):
            d = sntf_distribution(SystemConfig(2, 2, r))
            assert mean_closed(d) == pytest.approx(1.0 / (1.0 - r**2), rel=1e-14)

    def test_mean_matches_series(self, reference, reference_config):
        assert mean_closed(reference) == pytest.approx(
            raw_moment_series(reference_config, 1), abs=1e-9
        )

    def test_factorial_p1_is_mean(self, reference):
        assert factorial_moment(reference, 1) == pytest.approx(mean_closed(reference), rel=1e-13)

    def test_geometric_second_factorial(self):
        for r in (0.3, 0.6):
            d = sntf_distribution(SystemConfig(2, 2, r))
            expected = 2.0 * r**2 / (1.0 - r**2) ** 2
            assert factorial_moment(d, 2) == pytest.approx(expected, rel=1e-12)

    def test_second_moment_stirling_identity(self, reference, reference_config):
        second = factorial_moment(reference, 2) + mean_closed(reference)
        assert second == pytest.approx(raw_moment_series(reference_config, 2), abs=1e-9)

    def test_series_geometric_value(self):
        assert raw_moment_series(SystemConfig(2, 2, 0.5), 1) == pytest.approx(
            4.0 / 3.0, abs=1e-12
        )

    def test_series_when_one_shock_almost_never_fails(self):
        # P{M = 1} = 3.6e-17, so 1 - P{M > 1} rounds to 0
        config = SystemConfig(12, 2, 0.999, BC3)
        assert raw_moment_series(config, 1) == pytest.approx(
            mean_closed(count_distribution(config)), rel=1e-12
        )

    def test_mean_monotone_in_r(self):
        means = [
            mean_closed(sntf_distribution(SystemConfig(5, 3, r)))
            for r in np.arange(0.1, 0.95, 0.1)
        ]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_argument_validation(self, reference, reference_config):
        with pytest.raises(ValueError):
            factorial_moment(reference, 0)
        with pytest.raises(ValueError):
            raw_moment_series(reference_config, 0)

    def test_series_term_budget(self, monkeypatch):
        import ckngb.sntf as sntf_mod
        from ckngb.errors import NonConvergence

        monkeypatch.setattr(sntf_mod, "_SERIES_CAP", 256)
        with pytest.raises(NonConvergence):
            raw_moment_series(SystemConfig(2, 2, 0.99), 1)
