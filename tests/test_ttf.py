import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from ckngb.chain import CountChain
import ckngb.ttf as ttf
from ckngb.errors import CapacityExceeded, ConfigError, SingularSystem
from ckngb.experiments import ExperimentSpec, run_sweep_scv
from ckngb.sntf import count_distribution, mean_closed, sntf_distribution
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.ttf import (
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
from oracles import integrate_pdf, to_dense

BC3 = BalanceCondition.BC3


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
        """Moments kept on a law equal, bit for bit, p solves from scratch
        on a law built afresh for each value, whichever is asked first."""
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

    def test_sweep_point_solves_twice_and_inverts_once(self, monkeypatch):
        """MTTF and SCV of one sweep-scv point: the layer blocks inverted by
        one stacked call, E[Z] and E[Z^2] from two layered solves."""
        solves, inversions = [], []
        solve, inv = ttf._solve_neg_generator, np.linalg.inv
        monkeypatch.setattr(ttf, "_solve_neg_generator", lambda Z, B: solves.append(Z) or solve(Z, B))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a.shape) or inv(a))
        spec = ExperimentSpec(n=(8,), k=(3,), r=(0.8,), bc=(BalanceCondition.BC2,), presets=("HE",))
        [row] = run_sweep_scv(spec)
        assert row["scv"] > 0.0
        assert len(solves) == 2 and solves[0] is solves[1]
        assert len(inversions) == 1

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
