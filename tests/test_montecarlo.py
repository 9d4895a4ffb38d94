import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import walk_shock_counts
from scipy.stats import kstest

import ckngb.montecarlo as montecarlo
from ckngb import experiments
from ckngb.montecarlo import (
    SimulationResult,
    _draw,
    _sample_ph_batch,
    simulate_sntf,
    simulate_ttf,
)
from ckngb.sntf import mean_closed, sntf_distribution
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.tiesets import nonfailed_closure
from ckngb.ttf import (
    ContinuousPhaseType,
    InterShockSpec,
    compound_from_config,
    ph_from_preset,
    ph_mean_scv,
    raw_moment,
    validate_ph,
)

BC3 = BalanceCondition.BC3
REPS = 100_000


def _results_equal(a: SimulationResult, b: SimulationResult) -> bool:
    return (
        a.mean == b.mean
        and a.variance == b.variance
        and np.array_equal(a.hist_edges, b.hist_edges)
        and np.array_equal(a.hist_counts, b.hist_counts)
    )


class TestDeterminism:
    def test_sntf_reproducible(self, reference_config):
        a = simulate_sntf(reference_config, seed=42, reps=20_000)
        b = simulate_sntf(reference_config, seed=42, reps=20_000)
        assert _results_equal(a, b)

    def test_ttf_reproducible(self, reference_config):
        a = simulate_ttf(reference_config, seed=42, reps=20_000)
        b = simulate_ttf(reference_config, seed=42, reps=20_000)
        assert _results_equal(a, b)

    def test_seed_changes_output(self, reference_config):
        a = simulate_sntf(reference_config, seed=1, reps=20_000)
        b = simulate_sntf(reference_config, seed=2, reps=20_000)
        assert not _results_equal(a, b)

    def test_odd_replication_counts(self, reference_config):
        for reps in (1, 7, 8192, 8193):
            result = simulate_sntf(reference_config, seed=5, reps=reps)
            assert result.replications == reps


# A 3-phase law that never starts in phase 2 and jumps between phases.
CUSTOM_PH = validate_ph(
    np.array([0.6, 0.0, 0.4]),
    np.array([[-3.0, 1.5, 0.5], [0.5, -2.0, 1.0], [1.0, 0.0, -4.0]]),
)

# SHA-256 of the raw sample arrays (seed 7), recorded with numpy 2.4 from
# loop-based samplers (a stable argsort of the lifetimes and one
# searchsorted per phase).  numpy draws geometric variates by search for
# p = 1 - r >= 1/3 and by inversion below; r = 0.3 makes most lifetimes
# tie; 10 000 and 9 000 reps end on a partial batch.
STREAM_DIGESTS = [
    ((2, 2, 0.5, BC3, "EXP"), 10_000,
     "2a961424b36ae17be9b6310f4ffe74913525321cbf381952ec3ac81e399d5ef1",
     "77794cf57e91b65bcbc7b1617bb14b5f9e6b6eff4bfcc09bc61e6b2317c2aeed"),
    ((4, 2, 0.7, BC3, "ER"), 10_000,
     "c6224ba8e6435f539f016ae6a756903788b63eb446aa0848f3dfebe05e7d3eb8",
     "51fe60acf4d56f073e38fc8838d55429367536f56c3f92db840022a801d546c6"),
    ((6, 3, 0.3, BalanceCondition.BC2, "HE"), 10_000,
     "45341b0c118bd86217d02fec896395ac63381b46b4393864a19f332837f87ad0",
     "36b811ff7ef1b1f84b2f44cf40116aeb217527dce75f82ee2655f9cd5794db4f"),
    ((12, 4, 0.9, BC3, "HE"), 9_000,
     "5e107ca91dcdd0af876789fd11c71aec1446cafff1958703b70e4d6b31c6460f",
     "49bc639f31c54013c68390519fd02945d7ff767ccd2952e92a488fd2a121614d"),
    ((22, 2, 0.8, BalanceCondition.BC2, "ER"), 3_000,
     "edff3e42e1674ff12b2fc6e047f3e4c7feabca0e5e05f81616572b58e15a1f29",
     "8b42db13b3f0ed4fe2fbd460f42967bdb04c1aeb161b5125c94b4a3cfbdae5e5"),
    ((6, 2, 0.6, BalanceCondition.BC1, "custom"), 10_000,
     "b01c68ec03b1ae656d84dbd7e4a1442f6cd8c8bfb640f543c282ecdffc721c8d",
     "c6567f0a3d102b3831fb56869c6fedd1c6f5fb86c523033ae4284595ecc9205a"),
]


@pytest.mark.parametrize(
    "system,reps,sntf_digest,ttf_digest", STREAM_DIGESTS, ids=lambda v: str(v).replace(" ", "")
)
def test_random_stream_pinned(system, reps, sntf_digest, ttf_digest):
    """The samplers may be rewritten, but every draw keeps its place in the
    stream: the shock counts and failure times stay bit for bit the same."""
    n, k, r, bc, shock = system
    spec = InterShockSpec(custom=CUSTOM_PH) if shock == "custom" else InterShockSpec(preset=shock)
    config = SystemConfig(n, k, r, bc, spec)
    counts = _draw(config, 7, reps, times=False)[0]
    times = _draw(config, 7, reps, times=True)[1]
    assert counts.dtype == np.int64 and times.dtype == np.float64
    assert hashlib.sha256(counts.tobytes()).hexdigest() == sntf_digest
    assert hashlib.sha256(times.tobytes()).hexdigest() == ttf_digest


@pytest.mark.parametrize(
    "p",
    [0.01, 0.1, 0.3, 1.0 - 0.7, np.nextafter(1 / 3, 0.0), 1 / 3, np.nextafter(1 / 3, 1.0), 0.5, 0.999, 1.0],
)
def test_geometric_draws_match_numpy(p):
    """The lifetimes and the next draw after them are numpy's, on both
    sides of numpy's switch from inversion to search at p = 1/3."""
    for seed in range(5):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = np.empty((500, 7), dtype=np.int64)
        montecarlo._geometric(ours, float(p), drawn, np.empty((500, 7)))
        assert np.array_equal(drawn, numpys.geometric(p, size=(500, 7)))
        assert ours.random() == numpys.random()


@given(
    system=st.sampled_from(
        [(2, 2, BC3), (5, 3, BC3), (6, 2, BalanceCondition.BC1), (8, 3, BalanceCondition.BC2),
         (10, 4, BC3), (12, 2, BalanceCondition.BC2)]
    ),
    r=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_shock_counts_match_a_shock_by_shock_walk(system, r, seed):
    n, k, bc = system
    table = nonfailed_closure(n, k, bc)
    lifetimes = np.random.default_rng(seed).geometric(1.0 - r, size=(200, n))
    scratch = montecarlo._shock_scratch(n)
    counts = montecarlo._shock_counts(np.random.default_rng(seed), 200, SystemConfig(n, k, r, bc), table, scratch)
    assert np.array_equal(counts, walk_shock_counts(lifetimes, table))


@pytest.mark.parametrize("r", [0.5, 0.9])  # numpy's search and inversion draws
def test_shock_counts_do_not_depend_on_the_block_size(r, monkeypatch):
    """A batch is drawn in blocks of SHOCK_BLOCK replications, in the order
    of one (size, n) draw, so blocks of 100 (the last one partial) give
    the counts and the next draw of a single block."""
    config = SystemConfig(8, 3, r, BalanceCondition.BC2)
    table = nonfailed_closure(8, 3, BalanceCondition.BC2)
    results = []
    for block in (montecarlo.SHOCK_BLOCK, 100):
        monkeypatch.setattr(montecarlo, "SHOCK_BLOCK", block)
        rng = np.random.default_rng(5)
        counts = montecarlo._shock_counts(rng, 1050, config, table, montecarlo._shock_scratch(8))
        results.append((counts.tolist(), rng.random()))
    assert results[0] == results[1]


class TestShockCountOracle:
    def test_geometric_mean(self):
        config = SystemConfig(2, 2, 0.5)
        result = simulate_sntf(config, seed=11, reps=REPS)
        assert abs(result.mean - 4.0 / 3.0) <= 3.0 * result.half_width_95 / 1.96

    def test_reference_mean(self, reference_config):
        result = simulate_sntf(reference_config, seed=12, reps=REPS)
        analytic = mean_closed(sntf_distribution(reference_config))
        assert abs(result.mean - analytic) <= 3.0 * result.stderr

    def test_first_shock_probability(self, reference_config):
        result = simulate_sntf(reference_config, seed=13, reps=REPS)
        p_hat = result.hist_counts[0] / result.replications
        se = math.sqrt(0.2601 * 0.7399 / result.replications)
        assert abs(p_hat - 0.2601) <= 3.0 * se

    def test_histogram_accounts_for_all_replications(self, reference_config):
        result = simulate_sntf(reference_config, seed=14, reps=12_345)
        assert result.hist_counts.sum() == result.replications

    @pytest.mark.parametrize(
        "n,k,bc,r", [(6, 2, BalanceCondition.BC1, 0.9), (6, 3, BalanceCondition.BC2, 0.5)]
    )
    def test_other_balance_conditions(self, n, k, bc, r):
        config = SystemConfig(n, k, r, bc)
        result = simulate_sntf(config, seed=15, reps=REPS)
        analytic = mean_closed(sntf_distribution(config))
        assert abs(result.mean - analytic) <= 2.5758 * result.stderr


class TestPhaseSampling:
    def test_exponential_mean(self):
        rng = np.random.default_rng(21)
        draws = np.array([_sample_ph_batch(ph_from_preset("EXP"), 1, rng)[0] for _ in range(5_000)])
        assert abs(draws.mean() - 1.0) <= 3.0 * draws.std(ddof=1) / math.sqrt(draws.size)

    def test_erlang_scv(self):
        rng = np.random.default_rng(22)
        draws = _sample_ph_batch(ph_from_preset("ER"), 200_000, rng)
        scv_hat = draws.var(ddof=1) / draws.mean() ** 2
        assert abs(scv_hat - 0.5) < 0.02

    def test_hyperexponential_scv(self):
        rng = np.random.default_rng(23)
        draws = _sample_ph_batch(ph_from_preset("HE"), 200_000, rng)
        scv_hat = draws.var(ddof=1) / draws.mean() ** 2
        assert abs(scv_hat - 2.0) < 0.06

    def test_single_phase_goodness_of_fit(self):
        rate = 2.5
        Y = ContinuousPhaseType(np.array([1.0]), np.array([[-rate]]))
        rng = np.random.default_rng(24)
        draws = _sample_ph_batch(Y, 20_000, rng)
        stat = kstest(draws, "expon", args=(0.0, 1.0 / rate))
        assert stat.pvalue > 0.01


class TestFailureTimeOracle:
    def test_reference_mean(self, reference_config):
        result = simulate_ttf(reference_config, seed=31, reps=REPS)
        analytic = raw_moment(compound_from_config(reference_config), 1)
        assert abs(result.mean - analytic) <= 3.0 * result.stderr

    def test_exponential_survival_closed_form(self):
        r = 0.6
        rate = 1.0 - r**2
        config = SystemConfig(2, 2, r, BC3, InterShockSpec(preset="EXP"))
        samples = _draw(config, 32, REPS, times=True)[1]
        expected = math.exp(-rate)
        p_hat = float((samples > 1.0).mean())
        se = math.sqrt(expected * (1.0 - expected) / samples.size)
        assert abs(p_hat - expected) <= 3.0 * se

    def test_empirical_wald(self, reference_config):
        counts = simulate_sntf(reference_config, seed=33, reps=REPS)
        times = simulate_ttf(reference_config, seed=33, reps=REPS)
        mean_y, _ = ph_mean_scv(reference_config.shock.resolve())
        gap = abs(times.mean - counts.mean * mean_y)
        assert gap <= 3.0 * (times.stderr + counts.stderr * mean_y)

    def test_requires_shock_spec(self):
        with pytest.raises(ValueError):
            simulate_ttf(SystemConfig(4, 2, 0.7, BC3), seed=1, reps=10)


class TestSharedDraw:
    def test_ttf_carries_the_sntf_summary(self, reference_config):
        both = simulate_ttf(reference_config, seed=41, reps=20_000, with_sntf=True)
        assert _results_equal(both, simulate_ttf(reference_config, seed=41, reps=20_000))
        assert _results_equal(both.sntf, simulate_sntf(reference_config, seed=41, reps=20_000))
        assert simulate_ttf(reference_config, seed=41, reps=20_000).sntf is None

    def test_validate_draws_the_shock_counts_once(self, monkeypatch):
        doc = {"n": 4, "k": 2, "r": 0.7, "bc": "BC3", "shock": {"preset": "ER"},
               "reps": 20_000, "seed": 41}
        spec = experiments.parse_config(doc)
        batches = []
        original = montecarlo._shock_counts

        def counted(rng, size, *args):
            batches.append(size)
            return original(rng, size, *args)

        monkeypatch.setattr(montecarlo, "_shock_counts", counted)
        checks = {c["check"]: c["detail"] for c in experiments.run_validate(spec)}
        assert batches == [8192, 8192, 20_000 - 2 * 8192]

        config = spec.single()
        for check, sim in (
            ("monte_carlo_msntf", simulate_sntf(config, 41, 20_000)),
            ("monte_carlo_mttf", simulate_ttf(config, 41, 20_000)),
        ):
            assert checks[check].endswith(
                f"vs simulated {sim.mean:.6f} +/- {sim.half_width(0.99):.6f}"
            )


def test_replication_validation(reference_config):
    with pytest.raises(ValueError):
        simulate_sntf(reference_config, seed=1, reps=0)
