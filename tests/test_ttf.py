import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from ckngb.chain import CountChain, build_count_chain, build_count_chains, build_state_chain
import ckngb.ttf as ttf
from ckngb.errors import CapacityExceeded, ConfigError, SingularSystem
from ckngb.cli import main
from ckngb.experiments import ExperimentSpec, rows_to_csv, run_sweep_scv, run_ttf
from ckngb.sntf import mean_closed
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.tiesets import count_profile
from ckngb.ttf import (
    PRESET_LABELS,
    CompoundPhaseType,
    ContinuousPhaseType,
    compound_ph,
    failure_time_moments,
    pdf_grid,
    ph_from_preset,
    ph_mean_scv,
    raw_moment,
    validate_ph,
)
from goldens import COMPOUND_GENERATOR
from oracles import (
    dense_moments,
    exact_compound_moments,
    exact_failure_time_moments,
    exact_pdf_survival,
    integrate_pdf,
    to_dense,
)

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

    @pytest.mark.parametrize(
        "alpha,T",
        [
            ([math.nan, 1.0], [[-1.0, 0.0], [0.0, -1.0]]),
            ([0.5, 0.5], [[-1.0, math.nan], [0.0, -1.0]]),
            ([0.5, 0.5], [[-2.0, 1.0], [0.0, -math.inf]]),
            ([0.5, 0.5], [[-2.0, math.inf], [0.0, -1.0]]),
        ],
        ids=["nan-alpha", "nan-T", "inf-diagonal", "inf-off-diagonal"],
    )
    def test_rejects_non_finite(self, alpha, T):
        with pytest.raises(ConfigError, match=r"^shock: alpha and T must be finite"):
            validate_ph(np.array(alpha), np.array(T))

    def test_accepts_exit_through_other_phases(self):
        # only phase 2 exits; phases 0 and 1 reach it
        T = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 0.0, -1.0]])
        validate_ph(np.array([1.0, 0.0, 0.0]), T)


@pytest.fixture
def reference_law(reference_config):
    """The reference system's failure-time law on its state chain."""
    return compound_ph(build_state_chain(reference_config), reference_config.shock)


class TestCompound:
    def test_reference_dimensions(self, reference_law):
        Z = reference_law
        assert Z.dim == 14
        expected_alpha = np.zeros(14)
        expected_alpha[0] = 1.0
        assert np.array_equal(Z.alpha, expected_alpha)

    def test_reference_generator(self, reference_law):
        Z = reference_law
        assert np.abs(to_dense(Z) - COMPOUND_GENERATOR).max() < 5e-4

    def test_generator_is_valid_subgenerator(self, reference_law):
        T = to_dense(reference_law)
        off = T - np.diag(np.diag(T))
        assert (off >= 0).all()
        assert (np.diag(T) < 0).all()
        assert (T.sum(axis=1) <= 1e-12).all()

    def test_geometric_compound_of_exponentials_is_exponential(self):
        r = 0.6
        rate = 1.0 - r**2
        dist = build_state_chain(SystemConfig(2, 2, r))
        Z = compound_ph(dist, ph_from_preset("EXP"))
        assert to_dense(Z) == pytest.approx(np.array([[-rate]]))
        for z in (0.0, 0.5, 2.0, 7.0):
            density, survival = at(Z, z)
            assert density == pytest.approx(rate * math.exp(-rate * z), rel=1e-10)
            assert survival == pytest.approx(math.exp(-rate * z), rel=1e-10)
        assert raw_moment(Z) == pytest.approx(1.0 / rate, rel=1e-12)
        m1, m2 = failure_time_moments(dist, ph_from_preset("EXP"), 2)
        assert m1 == pytest.approx(1.0 / rate, rel=1e-12)
        assert m2 / m1**2 - 1.0 == pytest.approx(1.0, abs=1e-10)

    def test_dense_cap(self):
        chain = CountChain(np.zeros((3000, 3000)), np.zeros(3000), np.ones(3000))
        fake = CompoundPhaseType(chain, ph_from_preset("ER"))
        with pytest.raises(CapacityExceeded):
            to_dense(fake)


class TestDensity:
    def test_zero_at_origin_under_erlang(self, reference_law):
        Z = reference_law
        assert at(Z, 0.0)[0] == 0.0

    def test_survival_boundary(self, reference_law):
        Z = reference_law
        assert at(Z, 0.0)[1] == 1.0
        assert at(Z, 200.0)[1] < 1e-10

    def test_matches_dense_expm(self, reference_law):
        Z = reference_law
        T = to_dense(Z)
        exit_vec = -T @ np.ones(14)
        for z in (0.3, 1.0, 2.5, 6.0):
            dense_pdf = float(Z.alpha @ expm(z * T) @ exit_vec)
            dense_surv = float(Z.alpha @ expm(z * T) @ np.ones(14))
            density, survival = at(Z, z)
            assert density == pytest.approx(dense_pdf, rel=1e-10, abs=1e-13)
            assert survival == pytest.approx(dense_surv, rel=1e-10, abs=1e-13)

    def test_grid_matches_single_point(self, reference_law):
        Z = reference_law
        zs = np.linspace(0.0, 8.0, 17)
        dens, surv = pdf_grid(Z, zs)
        for z, d, s in zip(zs, dens, surv):
            density, survival = at(Z, float(z))
            assert d == pytest.approx(density, rel=1e-10, abs=1e-14)
            assert s == pytest.approx(survival, rel=1e-10, abs=1e-14)

    def test_grid_rejects_descending(self, reference_law):
        Z = reference_law
        with pytest.raises(ValueError):
            pdf_grid(Z, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_rejects_non_finite(self, reference_law, bad):
        with pytest.raises(ValueError):
            pdf_grid(reference_law, [0.0, bad])

    def test_negative_time_rejected(self, reference_law):
        Z = reference_law
        with pytest.raises(ValueError):
            at(Z, -0.1)

    def test_normalization(self, reference_law):
        Z = reference_law
        assert integrate_pdf(Z) == pytest.approx(1.0, abs=1e-6)

    def test_survival_derivative_is_negative_density(self, reference_law):
        Z = reference_law
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
        Z = compound_ph(build_count_chain(SystemConfig(12, 4, 0.9, BC3)), ph_from_preset("HE"))
        pdf_grid(Z, np.linspace(0.0, 10.0, 201))
        assert 0 < len(calls) <= 100

    def test_value_does_not_depend_on_the_grid(self):
        """z = 10 read off a 2-point grid and off a 10^5 + 1-point grid:
        both take one series over [0, 10].  A series per grid step put
        them 4.6e-11 apart."""
        Z = compound_ph(build_count_chain(SystemConfig(12, 4, 0.9, BC3)), ph_from_preset("HE"))
        coarse = pdf_grid(Z, [0.0, 10.0])
        fine = pdf_grid(Z, np.linspace(0.0, 10.0, 100_001))
        for a, b in zip(coarse, fine):
            assert rel_gap(a[-1], b[-1]) <= 1e-14

    def test_empty_grid(self, reference_law, monkeypatch):
        calls = count_applications(monkeypatch)
        dens, surv = pdf_grid(reference_law, [])
        assert dens.shape == surv.shape == (0,)
        assert calls == []

    def test_grid_of_only_the_origin(self, reference_config, monkeypatch):
        calls = count_applications(monkeypatch)
        Z = compound_ph(build_state_chain(reference_config), ph_from_preset("EXP"))
        dens, surv = pdf_grid(Z, [0.0, 0.0])
        # density at 0 is the first shock's failure probability times the exit rate 1
        assert dens.tolist() == [Z.chain.absorb[0]] * 2
        assert surv.tolist() == [1.0, 1.0]
        assert calls == []

    def test_repeated_points_read_the_same_values(self, reference_law):
        Z = reference_law
        dens, surv = pdf_grid(Z, [0.5, 2.0, 2.0, 2.0, 40.0, 40.0])
        assert dens[1] == dens[2] == dens[3] and surv[1] == surv[2] == surv[3]
        assert dens[4] == dens[5] and surv[4] == surv[5]
        for z, d, s in zip((2.0, 40.0), dens[[1, 4]], surv[[1, 4]]):
            density, survival = at(Z, z)
            assert d == pytest.approx(density, rel=1e-13)
            assert s == pytest.approx(survival, rel=1e-13)

    @pytest.mark.parametrize("strides", [1.0, 2.5, 6.0])
    def test_stride_end_and_gaps_against_exact(self, reference_law, strides):
        """A point exactly one stride from the origin, and gaps of 2.5 and
        6 strides with no point inside, against mpmath.expm at 40 digits.
        Measured worst relative error 1.6e-15 (6 strides), bound 1e-14."""
        Z = reference_law
        h = ttf._STEP_BUDGET / Z.uniformization_rate
        zs = [0.0, strides * h] if strides == 1.0 else [1.0, 1.0 + strides * h]
        dens, surv = pdf_grid(Z, zs)
        exact = exact_pdf_survival(4, 2, BC3, 0.7, Z.shock, zs)
        assert rel_gap(dens, np.array([float(d) for d, _ in exact])).max() <= 1e-14
        assert rel_gap(surv, np.array([float(s) for _, s in exact])).max() <= 1e-14

    @pytest.mark.parametrize("whole", [False, True])
    def test_point_chunk_moves_no_value(self, monkeypatch, whole):
        """Points read one at a time, or all in one chunk, give the same
        floats as _POINT_CHUNK's 6 chunks here: a point's sum over the
        terms is its own pairwise row."""
        Z = compound_ph(build_count_chain(SystemConfig(12, 4, 0.9, BC3)), ph_from_preset("HE"))
        zs = np.linspace(0.0, 10.0, 2001)
        want = pdf_grid(Z, zs)
        monkeypatch.setattr(ttf, "_POINT_CHUNK", zs.size * ttf._STRIDE_TERMS if whole else 1)
        for got, expected in zip(pdf_grid(Z, zs), want):
            assert np.array_equal(got, expected)

    def test_stride_cap(self, reference_law, monkeypatch):
        """z = 75 is three strides of 25 out under ER (rate 2); z = 76 takes
        a fourth, past a cap of three."""
        want = pdf_grid(reference_law, [75.0])
        monkeypatch.setattr(ttf, "_STRIDE_CAP", 3)
        for got, expected in zip(pdf_grid(reference_law, [75.0]), want):
            assert np.array_equal(got, expected)
        with pytest.raises(CapacityExceeded, match="more than 3 strides"):
            pdf_grid(reference_law, [76.0])

    def test_stride_cap_exits_4_with_empty_stdout(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 4, "k": 2, "r": 0.7, "bc": "BC3", "shock": {"preset": "ER"}}))
        monkeypatch.setattr(ttf, "_STRIDE_CAP", 3)
        assert main(["ttf", "--config", str(config), "--z-max", "1000"]) == 4
        assert capsys.readouterr().out == ""

    def test_law_over_the_term_budget_is_refused_before_any_term(self, monkeypatch):
        """246 519 phases would take 214 MB of terms per stride."""
        calls = count_applications(monkeypatch)
        Z = compound_ph(build_state_chain(SystemConfig(18, 2, 0.8, BC2)), ph_from_preset("EXP"))
        with pytest.raises(CapacityExceeded, match="law of 246519 phases"):
            pdf_grid(Z, [1.0])
        assert calls == []


# SHA-256 of run_ttf's CSV on the system-report workload's two systems,
# recorded while the series still kept its terms in a 16 KB batch
TTF_CSV_DIGESTS = [
    ((12, 4, BC3, 0.88, "HE"), "f250013757d4df72c68ee105faf147260b024083389b20435f336125db777390"),
    ((14, 4, BC2, 0.8, "ER"), "190eb08e6528f4446e225aafbbebb2b11afe5a6c53325be74c4817eb8073cd76"),
]


@pytest.mark.parametrize("system,digest", TTF_CSV_DIGESTS, ids=["n12-HE", "n14-ER"])
def test_ttf_csv_pinned(system, digest):
    n, k, bc, r, label = system
    spec = ExperimentSpec(n=(n,), k=(k,), r=(r,), bc=(bc,), shock=ph_from_preset(label))
    csv = rows_to_csv(run_ttf(spec)[0])
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


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
    dens, surv = pdf_grid(compound_ph(build_count_chain(SystemConfig(n, k, r, bc)), Y), zs)
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
    """MTTF and SCV by the random-sum identity of ``run_ttf``'s summary and
    of ``failure_time_moments``, and MTTF by ``raw_moment``'s block solve,
    against ``oracles.exact_failure_time_moments``.

    Worst relative errors measured over these systems and the three
    presets (summary / failure_time_moments / raw_moment): at r = 0.3 and
    0.9, MTTF 3.3e-16 / 3.3e-16 / 6.3e-16 and SCV 2.8e-15 / 2.8e-15; at
    r = 0.999, MTTF 1.5e-14 / 1.5e-14 / 2.3e-14 and SCV 4.1e-14 / 4.1e-14,
    where 1 - r^s keeps only a few digits of E[M].  Each bound is about 4x
    the worst route's worst.
    """
    Y = ph_from_preset(label)
    mttf_bound, scv_bound = MOMENT_BOUNDS[r]
    for n, k, bc in MOMENT_SYSTEMS:
        exact_mttf, exact_scv = exact_failure_time_moments(n, k, bc, r, Y)
        spec = ExperimentSpec(n=(n,), k=(k,), r=(r,), bc=(bc,), shock=Y, z_steps=1)
        summary = run_ttf(spec)[1]
        chain = build_count_chain(SystemConfig(n, k, r, bc))
        m1, m2 = failure_time_moments(chain, Y, 2)
        for mttf, value in ((summary["mttf"], summary["scv"]), (m1, m2 / m1**2 - 1.0)):
            assert abs(mttf - exact_mttf) <= mttf_bound * exact_mttf, (n, k, bc)
            assert abs(value - exact_scv) <= scv_bound * exact_scv, (n, k, bc)
        mttf = raw_moment(compound_ph(chain, Y))
        assert abs(mttf - exact_mttf) <= mttf_bound * exact_mttf, (n, k, bc)


# A 3-phase law that never starts in phase 2 and jumps between phases.
CYCLIC_PH = validate_ph(
    np.array([0.6, 0.0, 0.4]),
    np.array([[-3.0, 1.5, 0.5], [0.5, -2.0, 1.0], [1.0, 0.0, -4.0]]),
)
# q -> bound on the relative error of E[Z^q]
HIGHER_MOMENT_BOUNDS = {1: 5e-14, 2: 1e-13, 3: 1.5e-13, 4: 2e-13}


@pytest.mark.parametrize("n", [4, 7, 10, 12])
def test_higher_moments_against_exact_arithmetic(n):
    """E[Z^q], q = 1..4, from ``failure_time_moments`` against
    ``oracles.exact_compound_moments`` (mpmath, 40 digits) for every k,
    BC2 and BC3, r in {0.3, 0.9, 0.999} and the ER, HE and cyclic laws.

    Worst relative errors measured over the four n (450 laws), all at
    n=4 k=2 BC2 r=0.999, where 1 - r^s keeps only a few digits of the
    factorial moments: 1.45e-14, 2.51e-14, 3.56e-14 and 4.67e-14 for
    q = 1..4.  Each bound is 3.4-4.3x the worst.
    """
    laws = (ph_from_preset("ER"), ph_from_preset("HE"), CYCLIC_PH)
    failures = []
    for k, bc, r in itertools.product(range(2, n), (BC2, BC3), (0.3, 0.9, 0.999)):
        chain = build_count_chain(SystemConfig(n, k, r, bc))
        for Y in laws:
            got = failure_time_moments(chain, Y, 4)
            exact = exact_compound_moments(n, k, bc, r, Y, 4)
            for q, (value, want) in enumerate(zip(got, exact), 1):
                if abs(value - want) > HIGHER_MOMENT_BOUNDS[q] * want:
                    failures.append((k, bc.value, r, q, value, float(want)))
    assert failures == []


class TestMoments:
    def test_wald_identity(self, reference_config):
        dist = build_state_chain(reference_config)
        for label in ("ER", "EXP", "HE"):
            Y = ph_from_preset(label)
            Z = compound_ph(dist, Y)
            mean_y, _ = ph_mean_scv(Y)
            assert raw_moment(Z) == pytest.approx(mean_closed(dist) * mean_y, abs=1e-8)

    def test_against_dense_solves(self, reference_law):
        Z = reference_law
        want = dense_moments(Z, 3)
        assert raw_moment(Z) == pytest.approx(want[0], rel=1e-11)
        assert failure_time_moments(Z.chain, Z.shock, 3) == pytest.approx(want, rel=1e-11)

    def test_moment_argument_validation(self, reference_config):
        with pytest.raises(ValueError):
            failure_time_moments(build_state_chain(reference_config), reference_config.shock, 0)

    @pytest.mark.parametrize("rs", [[0.5, 0.7, 0.9], [0.5, 0.9]])
    def test_stacked_chain_is_refused(self, rs, monkeypatch):
        """The moments read one chain.  A stack's factorial moments would
        mix with each other (three members broadcast against p + 1 = 3
        series terms and give one member's E[Z] and another's E[Z^2]), so
        a stack raises before any solve.  So does the compound law, where
        raw_moment and pdf_grid failed inside numpy on the stack."""
        solves, moment = [], ttf.factorial_moment
        monkeypatch.setattr(ttf, "factorial_moment", lambda *args: solves.append(args) or moment(*args))
        (stack,) = build_count_chains(6, rs, count_profile(6, 2, BC3)[None])
        shape = rf"one chain expected, got a stack of shape \({len(rs)},\)"
        with pytest.raises(ValueError, match=shape):
            failure_time_moments(stack, ph_from_preset("HE"), 2)
        with pytest.raises(ValueError, match=shape):
            compound_ph(stack, ph_from_preset("ER"))
        assert solves == []

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
    def test_mean_inverts_each_layer_block_once(self, chain, monkeypatch):
        """raw_moment makes one block solve, which inverts each layer's
        K x K block once, as it reaches the layer."""
        inversions = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a.shape) or inv(a))
        config = SystemConfig(8, 3, 0.8, BalanceCondition.BC2)
        dist = build_count_chain(config) if chain == "count" else build_state_chain(config)
        assert raw_moment(compound_ph(dist, ph_from_preset("HE"))) > 0.0
        assert inversions == [(2, 2)] * len(dist.layers)

    @pytest.mark.parametrize("chain", ["count", "state"])
    def test_lower_orders_do_not_depend_on_p(self, chain):
        """E[Z^q] is the same float whichever p >= q is asked for, so the
        sweeps' p = 2 values are the first two of a p = 4 call."""
        config = SystemConfig(8, 3, 0.8, BalanceCondition.BC2)
        dist = build_count_chain(config) if chain == "count" else build_state_chain(config)
        for Y in (ph_from_preset("HE"), CYCLIC_PH):
            full = failure_time_moments(dist, Y, 4)
            for p in (1, 2, 3):
                assert failure_time_moments(dist, Y, p) == full[:p]

    def test_singular_layer_block_raises(self):
        # a layer that keeps its state at every shock: with exponential
        # inter-shock times its block -(T + 1 * exit alpha^T) is zero
        chain = CountChain(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        Z = CompoundPhaseType(chain, ph_from_preset("EXP"))
        with pytest.raises(SingularSystem):
            raw_moment(Z)

    def test_law_with_singular_generator_raises(self):
        # built by hand past validate_ph: phase 1 never exits, so -T is singular
        Y = ttf.ContinuousPhaseType(np.array([1.0, 0.0]), np.array([[-1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(SingularSystem):
            ph_mean_scv(Y)

    def test_scv_positive_for_degenerate_shock_count(self):
        dist = build_state_chain(SystemConfig(4, 4, 0.7))
        m1, m2 = failure_time_moments(dist, ph_from_preset("ER"), 2)
        assert m2 / m1**2 - 1.0 > 0.0


def test_density_peak_follows_base_distribution():
    # same system, smoother inter-shock law -> density peaks later
    dist = build_state_chain(SystemConfig(12, 6, 0.9, BC3))
    zs = np.linspace(0.0, 12.0, 161)
    dens_er, _ = pdf_grid(compound_ph(dist, ph_from_preset("ER")), zs)
    dens_he, _ = pdf_grid(compound_ph(dist, ph_from_preset("HE")), zs)
    assert zs[np.argmax(dens_er)] > zs[np.argmax(dens_he)]
