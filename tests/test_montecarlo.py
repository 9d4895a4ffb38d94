import hashlib
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from helpers import plane_table
from oracles import or_closure, walk_shock_counts
from scipy.stats import kstest

import ckngb.montecarlo as montecarlo
from ckngb import experiments
from ckngb.chain import build_count_chain, build_state_chain
from ckngb.errors import NoTieSets, OddNUnsupported
from ckngb.montecarlo import SimulationResult, _draw, _phase_sums, _routes, simulate_sntf, simulate_ttf
from ckngb.sntf import mean_closed
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.tiesets import _structure, count_profile
from ckngb.ttf import (
    compound_ph,
    pdf_grid,
    ph_from_preset,
    ph_mean_scv,
    raw_moment,
    validate_ph,
)

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3
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
        for reps in (2, 7, 8192, 8193):
            result = simulate_sntf(reference_config, seed=5, reps=reps)
            assert result.replications == reps


# A 3-phase law that never starts in phase 2 and jumps between phases.
CUSTOM_PH = validate_ph(
    np.array([0.6, 0.0, 0.4]),
    np.array([[-3.0, 1.5, 0.5], [0.5, -2.0, 1.0], [1.0, 0.0, -4.0]]),
)

# SHA-256 of the raw sample arrays (seed 7), recorded with numpy 2.4: the
# shock counts from a loop-based sampler (a stable argsort of the
# lifetimes), the failure times from the phase-visit sampler (binomial
# splits of each phase's tokens, one gamma per phase).  numpy draws
# geometric variates by search for p = 1 - r >= 1/3 and by inversion
# below; r = 0.3 makes most lifetimes tie; 10 000 and 9 000 reps end on a
# partial batch.  The cyclic custom law at r = 0.95 (E[M] = 19) runs many
# rounds in which most replications hold no token.
STREAM_DIGESTS = [
    ((2, 2, 0.5, BC3, "EXP"), 10_000,
     "2a961424b36ae17be9b6310f4ffe74913525321cbf381952ec3ac81e399d5ef1",
     "048f72150d955cae3dd7391c21314e3d1897a5bfdc09d686bf897b5573e348f2"),
    ((4, 2, 0.7, BC3, "ER"), 10_000,
     "c6224ba8e6435f539f016ae6a756903788b63eb446aa0848f3dfebe05e7d3eb8",
     "7525bffaf93579746e0a6fc4045ee6855296acff91280bfb3d4f68ffd459207e"),
    ((6, 3, 0.3, BalanceCondition.BC2, "HE"), 10_000,
     "45341b0c118bd86217d02fec896395ac63381b46b4393864a19f332837f87ad0",
     "a3b99396df767939934f72eaf6d4ad899e29528609ced94e101389557f3975b9"),
    ((12, 4, 0.9, BC3, "HE"), 9_000,
     "5e107ca91dcdd0af876789fd11c71aec1446cafff1958703b70e4d6b31c6460f",
     "0499ce2551ebc67468e975208771551ba8b50daabe53f271b5bafc792e75bb01"),
    ((22, 2, 0.8, BalanceCondition.BC2, "ER"), 3_000,
     "edff3e42e1674ff12b2fc6e047f3e4c7feabca0e5e05f81616572b58e15a1f29",
     "f5cdf706edc441b1efca7bed20d7d8f79f17b09a897a3befe4c34fa59238a426"),
    ((6, 2, 0.6, BalanceCondition.BC1, "custom"), 10_000,
     "b01c68ec03b1ae656d84dbd7e4a1442f6cd8c8bfb640f543c282ecdffc721c8d",
     "0789056696a98c8061d11cb9bfb4a860518e3db62697601a0092e75696706261"),
    ((6, 2, 0.95, BC3, "custom"), 9_000,
     "5199b3b3ffb5556d21a9eaa9ed4472b23f55dcdb56c5f273f9baec62548488ed",
     "f919aa161c5b7de02e20f2627e101aa64067a7f681d692cd76bed0788b7441c8"),
]


@pytest.mark.parametrize(
    "system,reps,sntf_digest,ttf_digest", STREAM_DIGESTS, ids=lambda v: str(v).replace(" ", "")
)
def test_random_stream_pinned(system, reps, sntf_digest, ttf_digest):
    """The samplers may be rewritten, but every draw keeps its place in the
    stream: the shock counts and failure times stay bit for bit the same.
    A new failure-time sampler is a new stream, with digests re-recorded
    and the shock-count digests kept."""
    n, k, r, bc, shock = system
    law = CUSTOM_PH if shock == "custom" else ph_from_preset(shock)
    config = SystemConfig(n, k, r, bc, law)
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
        [(2, 2, BC3), (4, 2, BC3), (5, 3, BC3), (6, 2, BalanceCondition.BC1), (8, 3, BalanceCondition.BC2),
         (10, 4, BC3), (12, 2, BalanceCondition.BC2), (14, 4, BalanceCondition.BC2), (16, 4, BC3)]
    ),
    r=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_shock_counts_match_a_shock_by_shock_walk(system, r, seed):
    """The band of undecided death positions (_band) has width 0 at n=2
    and n=5, 1 at n=4 and 5 or 6 at n = 12-16.  The counts read the closure
    plane; the walk reads the oracle's OR closure."""
    n, k, bc = system
    plane = _structure(n, k, bc)[1]
    lifetimes = np.random.default_rng(seed).geometric(1.0 - r, size=(200, n))
    config = SystemConfig(n, k, r, bc)
    scratch = montecarlo._shock_scratch(config)
    counts = montecarlo._shock_counts(np.random.default_rng(seed), 200, config, plane, scratch)
    assert np.array_equal(counts, walk_shock_counts(lifetimes, or_closure(n, k, bc)))


def test_band_holds_every_undecided_operating_count():
    """Every state of more than hi operating units is nonfailed and every
    state of fewer than lo is failed, and both bounds are tight: some state
    of hi units is failed and some state of lo units is nonfailed, in the
    closure plane as the shock counts read it."""
    for n in range(2, 17):
        pops = np.bitwise_count(np.arange(1 << n))
        for bc in BalanceCondition:
            for k in range(2, n + 1):
                try:
                    table = plane_table(n, k, bc)
                except (NoTieSets, OddNUnsupported):
                    continue
                t0, w = montecarlo._band(count_profile(n, k, bc))
                hi = n - 1 - t0
                lo = hi - w + 1
                assert table[pops > hi].all() and not table[pops < lo].any()
                assert not table[pops == hi].all() and table[pops == lo].any()


@pytest.mark.parametrize("r", [0.5, 0.9])  # numpy's search and inversion draws
def test_shock_counts_do_not_depend_on_the_block_size(r, monkeypatch):
    """A batch is drawn in blocks of SHOCK_BLOCK replications, in the order
    of one (size, n) draw, so blocks of 100 (the last one partial) give
    the counts and the next draw of a single block."""
    config = SystemConfig(8, 3, r, BalanceCondition.BC2)
    plane = _structure(8, 3, BalanceCondition.BC2)[1]
    results = []
    for block in (montecarlo.SHOCK_BLOCK, 100):
        monkeypatch.setattr(montecarlo, "SHOCK_BLOCK", block)
        rng = np.random.default_rng(5)
        counts = montecarlo._shock_counts(rng, 1050, config, plane, montecarlo._shock_scratch(config))
        results.append((counts.tolist(), rng.random()))
    assert results[0] == results[1]


@pytest.mark.parametrize("n", [12, 14, 16])
def test_shock_counts_order_with_the_nonfailed_set(n):
    """The lifetimes depend on the seed, n and r alone, so a smaller
    nonfailed set fails no later in every replication: M_BC1 <= M_BC2 <=
    M_BC3 (the balanced sets nest) and M_(k+1) <= M_k (the closures nest).
    An exact order, with no tolerance."""
    counts = {
        (k, bc): _draw(SystemConfig(n, k, 0.85, bc), 3, 20_000, times=False)[0]
        for k in range(3, 7)
        for bc in BalanceCondition
    }
    for k in range(3, 7):
        assert (counts[k, BC1] <= counts[k, BC2]).all() and (counts[k, BC2] <= counts[k, BC3]).all()
    for (k, bc), drawn in counts.items():
        if k > 3:
            assert (drawn <= counts[k - 1, bc]).all()
    assert (counts[6, BC1] < counts[3, BC3]).any()


def test_draw_holds_no_byte_per_mask(fresh_caches):
    """The shock counts read the closure plane's bits, 2**24 bits at n = 24,
    and form no array over all masks: the bool table they once read took
    2**24 bytes."""
    config = SystemConfig(24, 6, 0.8, BC3)
    _structure(24, 6, BC3)
    tracemalloc.start()
    try:
        counts = _draw(config, 1, 20_000, times=False)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.min() >= 1
    assert peak <= 0.25 * (1 << 24)


class TestHalfWidth:
    def test_levels(self):
        result = simulate_sntf(SystemConfig(2, 2, 0.5), seed=11, reps=1000)
        assert result.half_width(0.95) == montecarlo._Z95 * result.stderr
        assert result.half_width(0.99) == montecarlo._Z99 * result.stderr
        assert result.half_width() == result.half_width(0.95)
        with pytest.raises(ValueError, match="0.95 or 0.99"):
            result.half_width(0.9)

    def test_package_import_leaves_out_statistics(self):
        """Only the two tabulated quantiles are served, so the package
        does not import the statistics module."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import ckngb; "
            "print('statistics' in sys.modules)"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestShockCountOracle:
    def test_geometric_mean(self):
        config = SystemConfig(2, 2, 0.5)
        result = simulate_sntf(config, seed=11, reps=REPS)
        assert abs(result.mean - 4.0 / 3.0) <= 3.0 * result.half_width(0.95) / 1.96

    def test_reference_mean(self, reference_config):
        result = simulate_sntf(reference_config, seed=12, reps=REPS)
        analytic = mean_closed(build_state_chain(reference_config))
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
        analytic = mean_closed(build_state_chain(config))
        assert abs(result.mean - analytic) <= 2.5758 * result.stderr


class CountingRng:
    """A generator that counts the binomial and gamma calls made on it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = {"binomial": 0, "gamma": 0}

    def binomial(self, n, p):
        self.calls["binomial"] += 1
        return self.rng.binomial(n, p)

    def gamma(self, shape, scale):
        self.calls["gamma"] += 1
        return self.rng.gamma(shape, scale)


def phase_sums(rng, counts, Y):
    """Y's phase sums, with the routes ``_draw`` builds once per draw."""
    return _phase_sums(rng, counts, Y, _routes(Y))


class TestPhaseVisitSampler:
    @pytest.mark.parametrize("label,binomials,gammas", [("ER", 0, 2), ("EXP", 0, 1), ("HE", 1, 2)])
    def test_draws_per_batch(self, label, binomials, gammas):
        """A split with one destination takes no draw and one with two a
        binomial, so a batch costs the same few calls whatever its counts."""
        rng = CountingRng(20)
        counts = np.random.default_rng(20).geometric(0.01, size=500)
        phase_sums(rng, counts, ph_from_preset(label))
        assert rng.calls == {"binomial": binomials, "gamma": gammas}

    @pytest.mark.parametrize("shocks", [1, 5, 40])
    def test_fixed_count_sums(self, shocks):
        """With M fixed, EXP sums are Gamma(M, 1) and ER sums Gamma(2M, 1/2)."""
        counts = np.full(20_000, shocks)
        exp = phase_sums(np.random.default_rng(21), counts, ph_from_preset("EXP"))
        assert kstest(exp, "gamma", args=(shocks,)).pvalue > 0.01
        er = phase_sums(np.random.default_rng(22), counts, ph_from_preset("ER"))
        assert kstest(er, "gamma", args=(2 * shocks, 0.0, 0.5)).pvalue > 0.01

    @pytest.mark.parametrize("label", ["ER", "EXP", "HE", "custom"])
    def test_one_shock_mean_and_scv(self, label):
        """One-shock draws have Y's mean and SCV; the cyclic custom law
        ends only if the rounds stop once no phase holds a token."""
        Y = CUSTOM_PH if label == "custom" else ph_from_preset(label)
        draws = phase_sums(np.random.default_rng(23), np.ones(200_000, dtype=np.int64), Y)
        mean, scv = ph_mean_scv(Y)
        assert abs(draws.mean() - mean) <= 4.0 * draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.var(ddof=1) / draws.mean() ** 2 - scv) <= 0.03 * scv

    @pytest.mark.parametrize("label", ["ER", "EXP", "HE", "custom"])
    def test_failure_times_follow_the_compound_law(self, label, reference_config):
        """Kolmogorov-Smirnov test of simulated failure times against the
        survival that uniformization gives on the sorted samples."""
        law = CUSTOM_PH if label == "custom" else ph_from_preset(label)
        config = replace(reference_config, shock=law)
        times = np.sort(_draw(config, 24, 20_000, times=True)[1])
        survival = pdf_grid(compound_ph(build_count_chain(config), law), times)[1]

        def cdf(z):
            assert np.array_equal(z, times)
            return 1.0 - survival

        assert kstest(times, cdf).pvalue > 0.01


class TestFailureTimeOracle:
    def test_reference_mean(self, reference_config):
        result = simulate_ttf(reference_config, seed=31, reps=REPS)
        Z = compound_ph(build_state_chain(reference_config), reference_config.shock)
        analytic = raw_moment(Z)
        assert abs(result.mean - analytic) <= 3.0 * result.stderr

    def test_exponential_survival_closed_form(self):
        r = 0.6
        rate = 1.0 - r**2
        config = SystemConfig(2, 2, r, BC3, ph_from_preset("EXP"))
        samples = _draw(config, 32, REPS, times=True)[1]
        expected = math.exp(-rate)
        p_hat = float((samples > 1.0).mean())
        se = math.sqrt(expected * (1.0 - expected) / samples.size)
        assert abs(p_hat - expected) <= 3.0 * se

    def test_empirical_wald(self, reference_config):
        counts = simulate_sntf(reference_config, seed=33, reps=REPS)
        times = simulate_ttf(reference_config, seed=33, reps=REPS)
        mean_y, _ = ph_mean_scv(reference_config.shock)
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

    def test_routes_are_built_once_per_draw(self, reference_config, monkeypatch):
        calls = []
        original = montecarlo._routes
        monkeypatch.setattr(montecarlo, "_routes", lambda Y: calls.append(1) or original(Y))
        simulate_ttf(reference_config, seed=41, reps=20_000)  # three batches
        assert calls == [1]

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
    # one sample has no variance, so no confidence interval
    for reps in (0, 1):
        with pytest.raises(ValueError):
            simulate_sntf(reference_config, seed=1, reps=reps)
