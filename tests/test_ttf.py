import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from ckngb.chain import CountChain
import ckngb.ttf as ttf
from ckngb.errors import CapacityExceeded, ConfigError, SingularSystem
from ckngb.experiments import ExperimentSpec, run_sweep_scv, run_ttf
from ckngb.sntf import count_distribution, mean_closed, sntf_distribution
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.ttf import (
    PRESET_LABELS,
    CompoundPhaseType,
    ContinuousPhaseType,
    InterShockSpec,
    compound_from_config,
    compound_ph,
    pdf_grid,
    ph_from_preset,
    ph_mean_scv,
    raw_moment,
    scv,
    validate_ph,
)
from goldens import COMPOUND_GENERATOR
from oracles import exact_failure_time_moments, exact_pdf_survival, integrate_pdf, to_dense

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3


def at(Z, z):
    """Density and survival at one point: a one-point grid."""
    dens, surv = pdf_grid(Z, [z])
    return dens[0], surv[0]


class TestPresets:
    def test_parameters(self):
        er = ph_from_preset("ER")
        assert er.alpha.tolist() == [1.0, 0.0]
        assert er.T.tolist() == [[-2.0, 2.0], [0.0, -2.0]]
        exp = ph_from_preset("EXP")
        assert exp.alpha.tolist() == [1.0]
        assert exp.T.tolist() == [[-1.0]]
        he = ph_from_preset("HE")
        assert he.alpha.tolist() == [0.5, 0.5]
        root2 = math.sqrt(2.0)
        assert he.T[0, 0] == pytest.approx(-2.0 / (2.0 - root2))
        assert he.T[1, 1] == pytest.approx(-2.0 / (2.0 + root2))

    def test_mean_and_scv(self):
        assert ph_mean_scv(ph_from_preset("ER")) == pytest.approx((1.0, 0.5), abs=1e-12)
        assert ph_mean_scv(ph_from_preset("EXP")) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert ph_mean_scv(ph_from_preset("HE")) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_single_phase_rate(self):
        Y = ContinuousPhaseType(np.array([1.0]), np.array([[-3.5]]))
        mean, y_scv = ph_mean_scv(Y)
        assert mean == pytest.approx(1.0 / 3.5)
        assert y_scv == pytest.approx(1.0)

    def test_unknown_label(self):
        with pytest.raises(ConfigError):
            ph_from_preset("GAMMA")


class TestValidatePH:
    def test_accepts_presets(self):
        for label in ("ER", "EXP", "HE"):
            Y = ph_from_preset(label)
            validate_ph(Y.alpha, Y.T)

    @pytest.mark.parametrize(
        "alpha,T",
        [
            ([0.5, 0.4], [[-1.0, 0.0], [0.0, -1.0]]),  # alpha not normalized
            ([1.1, -0.1], [[-1.0, 0.0], [0.0, -1.0]]),  # negative entry
            ([1.0], [[1.0]]),  # nonnegative diagonal
            ([0.5, 0.5], [[-1.0, -0.5], [0.0, -1.0]]),  # negative off-diagonal
            ([0.5, 0.5], [[-1.0, 2.0], [0.0, -1.0]]),  # positive row sum
            ([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]]),  # nothing can exit
            # phases 0 and 1 jump between each other and never exit
            ([0.5, 0.0, 0.5], [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
        ],
    )
    def test_rejects_malformed(self, alpha, T):
        with pytest.raises(ConfigError):
            validate_ph(np.array(alpha, dtype=float), np.array(T, dtype=float))

    def test_accepts_exit_through_other_phases(self):
        # only phase 2 exits; phases 0 and 1 reach it
        T = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 0.0, -1.0]])
        validate_ph(np.array([1.0, 0.0, 0.0]), T)


class TestInterShockSpec:
    def test_exactly_one_source(self):
        with pytest.raises(ConfigError):
            InterShockSpec()
        with pytest.raises(ConfigError):
            InterShockSpec(preset="ER", custom=ph_from_preset("EXP"))

    def test_resolve(self):
        assert InterShockSpec(preset="HE").resolve().K == 2
        custom = ph_from_preset("EXP")
        assert InterShockSpec(custom=custom).resolve() is custom


class TestCompound:
    def test_reference_dimensions(self, reference_config):
        Z = compound_from_config(reference_config)
        assert Z.dim == 14
        expected_alpha = np.zeros(14)
        expected_alpha[0] = 1.0
        assert np.array_equal(Z.alpha, expected_alpha)

    def test_reference_generator(self, reference_config):
        Z = compound_from_config(reference_config)
        assert np.abs(to_dense(Z) - COMPOUND_GENERATOR).max() < 5e-4

    def test_generator_is_valid_subgenerator(self, reference_config):
        T = to_dense(compound_from_config(reference_config))
        off = T - np.diag(np.diag(T))
        assert (off >= 0).all()
        assert (np.diag(T) < 0).all()
        assert (T.sum(axis=1) <= 1e-12).all()

    def test_geometric_compound_of_exponentials_is_exponential(self):
        r = 0.6
        rate = 1.0 - r**2
        dist = sntf_distribution(SystemConfig(2, 2, r))
        Z = compound_ph(dist, ph_from_preset("EXP"))
        assert to_dense(Z) == pytest.approx(np.array([[-rate]]))
        for z in (0.0, 0.5, 2.0, 7.0):
            density, survival = at(Z, z)
            assert density == pytest.approx(rate * math.exp(-rate * z), rel=1e-10)
            assert survival == pytest.approx(math.exp(-rate * z), rel=1e-10)
        assert raw_moment(Z, 1) == pytest.approx(1.0 / rate, rel=1e-12)
        assert scv(Z) == pytest.approx(1.0, abs=1e-10)

    def test_dense_cap(self):
        chain = CountChain(np.zeros((3000, 3000)), np.zeros(3000), np.ones(3000))
        fake = CompoundPhaseType(np.zeros(6000), chain, ph_from_preset("ER"))
        with pytest.raises(CapacityExceeded):
            to_dense(fake)

    def test_missing_shock_spec(self):
        with pytest.raises(ConfigError):
            compound_from_config(SystemConfig(4, 2, 0.7, BC3))


class TestDensity:
    def test_zero_at_origin_under_erlang(self, reference_config):
        Z = compound_from_config(reference_config)
        assert at(Z, 0.0)[0] == 0.0

    def test_survival_boundary(self, reference_config):
        Z = compound_from_config(reference_config)
        assert at(Z, 0.0)[1] == 1.0
        assert at(Z, 200.0)[1] < 1e-10

    def test_matches_dense_expm(self, reference_config):
        Z = compound_from_config(reference_config)
        T = to_dense(Z)
        exit_vec = -T @ np.ones(14)
        for z in (0.3, 1.0, 2.5, 6.0):
            dense_pdf = float(Z.alpha @ expm(z * T) @ exit_vec)
            dense_surv = float(Z.alpha @ expm(z * T) @ np.ones(14))
            density, survival = at(Z, z)
            assert density == pytest.approx(dense_pdf, rel=1e-10, abs=1e-13)
            assert survival == pytest.approx(dense_surv, rel=1e-10, abs=1e-13)

    def test_grid_matches_single_point(self, reference_config):
        Z = compound_from_config(reference_config)
        zs = np.linspace(0.0, 8.0, 17)
        dens, surv = pdf_grid(Z, zs)
        for z, d, s in zip(zs, dens, surv):
            density, survival = at(Z, float(z))
            assert d == pytest.approx(density, rel=1e-10, abs=1e-14)
            assert s == pytest.approx(survival, rel=1e-10, abs=1e-14)

    def test_grid_rejects_descending(self, reference_config):
        Z = compound_from_config(reference_config)
        with pytest.raises(ValueError):
            pdf_grid(Z, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_rejects_non_finite(self, reference_config, bad):
        with pytest.raises(ValueError):
            pdf_grid(compound_from_config(reference_config), [0.0, bad])

    def test_negative_time_rejected(self, reference_config):
        Z = compound_from_config(reference_config)
        with pytest.raises(ValueError):
            at(Z, -0.1)

    def test_normalization(self, reference_config):
        Z = compound_from_config(reference_config)
        assert integrate_pdf(Z) == pytest.approx(1.0, abs=1e-6)

    def test_survival_derivative_is_negative_density(self, reference_config):
        Z = compound_from_config(reference_config)
        h = 1e-4
        for z in np.linspace(0.2, 6.0, 20):
            slope = (at(Z, z + h)[1] - at(Z, z - h)[1]) / (2.0 * h)
            assert abs(-slope - at(Z, z)[0]) < 1e-5


def count_applications(monkeypatch):
    """A list that grows by one entry per generator application."""
    calls = []
    apply = ttf._apply_generator_left
    monkeypatch.setattr(ttf, "_apply_generator_left", lambda Z, U: calls.append(1) or apply(Z, U))
    return calls


def rel_gap(a, b):
    """|a - b| / |b|, and |a| where b is 0."""
    b = np.asarray(b, dtype=float)
    return np.abs(np.asarray(a) - b) / np.where(b == 0.0, 1.0, np.abs(b))


class TestGridSeries:
    """One uniformization series serves every grid point of a stride."""

    def test_default_grid_takes_one_series(self, monkeypatch):
        # A series per grid step applied the generator 1 800 times here.
        calls = count_applications(monkeypatch)
        Z = compound_ph(count_distribution(SystemConfig(12, 4, 0.9, BC3)), ph_from_preset("HE"))
        pdf_grid(Z, np.linspace(0.0, 10.0, 201))
        assert 0 < len(calls) <= 100

    def test_value_does_not_depend_on_the_grid(self):
        """z = 10 read off a 2-point grid and off a 10^5 + 1-point grid:
        both take one series over [0, 10].  A series per grid step put
        them 4.6e-11 apart."""
        Z = compound_ph(count_distribution(SystemConfig(12, 4, 0.9, BC3)), ph_from_preset("HE"))
        coarse = pdf_grid(Z, [0.0, 10.0])
        fine = pdf_grid(Z, np.linspace(0.0, 10.0, 100_001))
        for a, b in zip(coarse, fine):
            assert rel_gap(a[-1], b[-1]) <= 1e-14

    def test_empty_grid(self, reference_config, monkeypatch):
        calls = count_applications(monkeypatch)
        dens, surv = pdf_grid(compound_from_config(reference_config), [])
        assert dens.shape == surv.shape == (0,)
        assert calls == []

    def test_grid_of_only_the_origin(self, reference_config, monkeypatch):
        calls = count_applications(monkeypatch)
        Z = compound_ph(sntf_distribution(reference_config), ph_from_preset("EXP"))
        dens, surv = pdf_grid(Z, [0.0, 0.0])
        # density at 0 is the first shock's failure probability times the exit rate 1
        assert dens.tolist() == [Z.chain.absorb[0]] * 2
        assert surv.tolist() == [1.0, 1.0]
        assert calls == []

    def test_repeated_points_read_the_same_values(self, reference_config):
        Z = compound_from_config(reference_config)
        dens, surv = pdf_grid(Z, [0.5, 2.0, 2.0, 2.0, 40.0, 40.0])
        assert dens[1] == dens[2] == dens[3] and surv[1] == surv[2] == surv[3]
        assert dens[4] == dens[5] and surv[4] == surv[5]
        for z, d, s in zip((2.0, 40.0), dens[[1, 4]], surv[[1, 4]]):
            density, survival = at(Z, z)
            assert d == pytest.approx(density, rel=1e-13)
            assert s == pytest.approx(survival, rel=1e-13)

    @pytest.mark.parametrize("strides", [1.0, 2.5, 6.0])
    def test_stride_end_and_gaps_against_exact(self, reference_config, strides):
        """A point exactly one stride from the origin, and gaps of 2.5 and
        6 strides with no point inside, against mpmath.expm at 40 digits.
        Measured worst relative error 1.6e-15 (6 strides), bound 1e-14."""
        Z = compound_from_config(reference_config)
        h = ttf._STEP_BUDGET / Z.uniformization_rate
        zs = [0.0, strides * h] if strides == 1.0 else [1.0, 1.0 + strides * h]
        dens, surv = pdf_grid(Z, zs)
        exact = exact_pdf_survival(4, 2, BC3, 0.7, Z.shock, zs)
        assert rel_gap(dens, np.array([float(d) for d, _ in exact])).max() <= 1e-14
        assert rel_gap(surv, np.array([float(s) for _, s in exact])).max() <= 1e-14


# (n, k, bc, r), then per preset ER, EXP, HE the z where survival is 1e-10
EXACT_LAWS = [
    ((12, 4, BC3, 0.88), (57.343, 64.303, 78.906)),
    ((14, 4, BC2, 0.8), (36.553, 44.149, 59.722)),
    ((6, 2, BC3, 0.999), (12062.484, 12068.268, 12079.841)),
]


@pytest.mark.parametrize("label", PRESET_LABELS)
@pytest.mark.parametrize("system,tails", EXACT_LAWS, ids=["n12-r0.88", "n14-r0.8", "n6-r0.999"])
def test_grid_against_exact_arithmetic(system, tails, label):
    """Density and survival at z = 0.05, 10 and where survival is 1e-10,
    against ``oracles.exact_pdf_survival`` (mpmath.expm at 40 digits).

    Measured worst relative errors over the three presets (pdf / survival):
    n=12 r=0.88: 6.0e-16 / 6.4e-16; n=14 r=0.8: 3.5e-16 / 5.1e-16, so the
    bound is 1e-14.  At r = 0.999 the 1e-10 point lies 241-826 strides
    out, each dropping up to _POISSON_TAIL = 1e-14 of its mass: 4.7e-12 /
    4.7e-12 there (HE), and 1.4e-13 / 9.5e-15 at z = 10 (EXP), so the
    bound is 2e-11.  A series per grid step was off by 1.9e-12 at z = 0.05
    (n=12, ER) and by 4.9e-12 at the r = 0.999 tail (HE).
    """
    Y = ph_from_preset(label)
    zs = [0.05, 10.0, tails[PRESET_LABELS.index(label)]]
    n, k, bc, r = system
    dens, surv = pdf_grid(compound_ph(count_distribution(SystemConfig(n, k, r, bc)), Y), zs)
    exact = exact_pdf_survival(n, k, bc, r, Y, zs)
    exact_dens = np.array([float(d) for d, _ in exact])
    exact_surv = np.array([float(s) for _, s in exact])
    assert exact_surv[-1] == pytest.approx(1e-10, rel=1e-3)
    bound = 2e-11 if r == 0.999 else 1e-14
    assert rel_gap(dens, exact_dens).max() <= bound
    assert rel_gap(surv, exact_surv).max() <= bound


# the laws of the 2 100-law grid (n = 3..12) where either route errs most
MOMENT_SYSTEMS = [(4, 2, BC1), (6, 2, BC2), (8, 2, BC1), (12, 2, BC2)]
# r -> bounds on the relative error of MTTF and SCV
MOMENT_BOUNDS = {0.3: (3e-15, 1e-14), 0.9: (3e-15, 1e-14), 0.999: (1e-13, 2e-13)}


@pytest.mark.parametrize("r", list(MOMENT_BOUNDS))
@pytest.mark.parametrize("label", PRESET_LABELS)
def test_moments_against_exact_arithmetic(label, r):
    """MTTF and SCV by both routes, the random-sum identity of ``run_ttf``'s
    summary and ``raw_moment`` / ``scv`` of the compound law, against
    ``oracles.exact_failure_time_moments``.

    Worst relative errors measured over these systems and the three
    presets (identity / compound): at r = 0.3 and 0.9, MTTF 3.3e-16 /
    6.3e-16 and SCV 2.8e-15 / 2.6e-15; at r = 0.999, MTTF 1.5e-14 /
    2.3e-14 and SCV 4.1e-14 / 5.4e-14, where 1 - r^s keeps only a few
    digits of E[M].  Each bound is about 4x the worse route's worst.
    """
    Y = ph_from_preset(label)
    mttf_bound, scv_bound = MOMENT_BOUNDS[r]
    for n, k, bc in MOMENT_SYSTEMS:
        exact_mttf, exact_scv = exact_failure_time_moments(n, k, bc, r, Y)
        spec = ExperimentSpec(n=(n,), k=(k,), r=(r,), bc=(bc,), shock=InterShockSpec(preset=label), z_steps=1)
        summary = run_ttf(spec)[1]
        Z = compound_ph(count_distribution(SystemConfig(n, k, r, bc)), Y)
        for mttf, value in ((summary["mttf"], summary["scv"]), (raw_moment(Z, 1), scv(Z))):
            assert abs(mttf - exact_mttf) <= mttf_bound * exact_mttf, (n, k, bc)
            assert abs(value - exact_scv) <= scv_bound * exact_scv, (n, k, bc)


class TestMoments:
    def test_wald_identity(self, reference_config):
        dist = sntf_distribution(reference_config)
        for label in ("ER", "EXP", "HE"):
            Y = ph_from_preset(label)
            Z = compound_ph(dist, Y)
            mean_y, _ = ph_mean_scv(Y)
            assert raw_moment(Z, 1) == pytest.approx(
                mean_closed(dist) * mean_y, abs=1e-8
            )

    def test_against_dense_solves(self, reference_config):
        Z = compound_from_config(reference_config)
        T = to_dense(Z)
        x = np.ones(14)
        for p in (1, 2, 3):
            x = np.linalg.solve(-T, x)
            assert raw_moment(Z, p) == pytest.approx(
                math.factorial(p) * float(Z.alpha @ x), rel=1e-11
            )

    def test_moment_argument_validation(self, reference_config):
        Z = compound_from_config(reference_config)
        with pytest.raises(ValueError):
            raw_moment(Z, 0)

    @pytest.mark.parametrize("order", list(itertools.permutations(("m1", "m2", "scv"))))
    def test_any_order_matches_a_fresh_law(self, order):
        """raw_moment and scv equal, bit for bit, p solves from scratch on a
        law built afresh for each value, whichever is asked first."""
        Y = validate_ph(
            np.array([0.6, 0.0, 0.4]),
            np.array([[-3.0, 1.5, 0.5], [0.5, -2.0, 1.0], [1.0, 0.0, -4.0]]),
        )
        config = SystemConfig(8, 3, 0.8, BalanceCondition.BC2)
        for dist in (count_distribution(config), sntf_distribution(config)):

            def from_scratch(p):
                Z = compound_ph(dist, Y)
                X = np.repeat(Z.chain.weights[:, None], Z.K, axis=1)
                for _ in range(p):
                    X = ttf._solve_neg_generator(Z, X)
                return float(math.factorial(p) * (Z.alpha.reshape(Z.states, Z.K) * X).sum())

            m1, m2 = from_scratch(1), from_scratch(2)
            fresh = {"m1": m1, "m2": m2, "scv": (m2 - m1**2) / m1**2}
            Z = compound_ph(dist, Y)
            requests = {"m1": lambda: raw_moment(Z, 1), "m2": lambda: raw_moment(Z, 2), "scv": lambda: scv(Z)}
            assert [requests[name]() for name in order] == [fresh[name] for name in order]

    def test_sweep_point_makes_no_compound_solve(self, monkeypatch):
        """MTTF and SCV of one sweep-scv point come from the shock-count
        moments and Y's: no block solve and no layer-block inversion."""
        solves, inversions = [], []
        solve, inv = ttf._solve_neg_generator, np.linalg.inv
        monkeypatch.setattr(ttf, "_solve_neg_generator", lambda Z, B: solves.append(Z) or solve(Z, B))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a.shape) or inv(a))
        spec = ExperimentSpec(n=(8,), k=(3,), r=(0.8,), bc=(BalanceCondition.BC2,), presets=("HE",))
        [row] = run_sweep_scv(spec)
        assert row["scv"] > 0.0
        assert solves == [] and inversions == []

    @pytest.mark.parametrize("chain", ["count", "state"])
    def test_scv_makes_two_block_solves(self, chain, monkeypatch):
        """E[Z] and E[Z^2] come off one pass, X_1 and then X_2 from X_1,
        where raw_moment(Z, 1) and raw_moment(Z, 2) made three solves."""
        solves = []
        solve = ttf._solve_neg_generator
        monkeypatch.setattr(ttf, "_solve_neg_generator", lambda Z, B: solves.append(Z) or solve(Z, B))
        config = SystemConfig(8, 3, 0.8, BalanceCondition.BC2)
        dist = count_distribution(config) if chain == "count" else sntf_distribution(config)
        assert scv(compound_ph(dist, ph_from_preset("HE"))) > 0.0
        assert len(solves) == 2

    def test_singular_layer_block_raises(self):
        # a layer that keeps its state at every shock: with exponential
        # inter-shock times its block -(T + 1 * exit alpha^T) is zero
        chain = CountChain(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        Z = CompoundPhaseType(np.array([1.0]), chain, ph_from_preset("EXP"))
        with pytest.raises(SingularSystem):
            raw_moment(Z, 1)
        with pytest.raises(SingularSystem):
            scv(Z)

    def test_scv_positive_for_degenerate_shock_count(self):
        dist = sntf_distribution(SystemConfig(4, 4, 0.7))
        Z = compound_ph(dist, ph_from_preset("ER"))
        assert scv(Z) > 0.0


def test_density_peak_follows_base_distribution():
    # same system, smoother inter-shock law -> density peaks later
    dist = sntf_distribution(SystemConfig(12, 6, 0.9, BC3))
    zs = np.linspace(0.0, 12.0, 161)
    dens_er, _ = pdf_grid(compound_ph(dist, ph_from_preset("ER")), zs)
    dens_he, _ = pdf_grid(compound_ph(dist, ph_from_preset("HE")), zs)
    assert zs[np.argmax(dens_er)] > zs[np.argmax(dens_he)]
