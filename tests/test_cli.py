import copy
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ckngb.experiments as experiments
import ckngb.montecarlo as montecarlo
import ckngb.sntf as sntf
from ckngb.chain import MAX_STATE_UNITS, build_state_chain, state_chain
from ckngb.cli import main
from ckngb.errors import ConfigError, NoTieSets, NonConvergence
from ckngb.system import BalanceCondition
from ckngb.ttf import PRESET_LABELS, ph_from_preset, ph_mean_scv, validate_ph

BC3 = BalanceCondition.BC3

REFERENCE_DOC = {"n": 4, "k": 2, "r": 0.7, "bc": "BC3", "shock": {"preset": "ER"}}


def child_env():
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


def run_cli(*argv, timeout=60):
    """The CLI in a child process, so its exit code and stdout are the real
    process's and a hang fails the test instead of the suite."""
    return subprocess.run(
        [sys.executable, "-m", "ckngb.cli", *argv], env=child_env(), capture_output=True,
        text=True, timeout=timeout,
    )


@pytest.fixture
def config_file(tmp_path):
    def write(doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestLoadConfig:
    def test_reference_document(self, config_file):
        spec = experiments.load_config(config_file(REFERENCE_DOC))
        config = spec.single()
        assert (config.n, config.k, config.r, config.bc) == (4, 2, 0.7, BC3)
        er = ph_from_preset("ER")
        assert np.array_equal(config.shock.alpha, er.alpha) and np.array_equal(config.shock.T, er.T)

    def test_field_path_in_error(self, config_file):
        doc = dict(REFERENCE_DOC, k=5)
        with pytest.raises(ConfigError, match="k:"):
            experiments.load_config(config_file(doc)).single()

    def test_unknown_keys_rejected(self, config_file):
        doc = dict(REFERENCE_DOC, units=3)
        with pytest.raises(ConfigError, match="unknown keys"):
            experiments.load_config(config_file(doc))

    def test_tol_is_an_unknown_key(self, config_file):
        doc = dict(REFERENCE_DOC, tol=1e-12)
        with pytest.raises(ConfigError, match="unknown keys"):
            experiments.load_config(config_file(doc))

    def test_unknown_preset(self, config_file):
        doc = dict(REFERENCE_DOC, shock={"preset": "WEIBULL"})
        with pytest.raises(ConfigError, match="shock.preset"):
            experiments.load_config(config_file(doc))

    def test_custom_ph_accepted(self, config_file):
        doc = dict(REFERENCE_DOC, shock={"alpha": [0.5, 0.5], "T": [[-2.0, 1.0], [0.0, -3.0]]})
        spec = experiments.load_config(config_file(doc))
        assert spec.shock.K == 2

    @pytest.mark.parametrize(
        "shock",
        [
            "ER",
            {"preset": "ER", "alpha": [1.0]},
            {"preset": "ER", "T": [[-1.0]]},
            {"alpha": [1.0]},
            {"T": [[-1.0]]},
            {"preset": []},
            {},
        ],
        ids=["not-an-object", "preset-and-alpha", "preset-and-T", "alpha-alone", "T-alone",
             "empty-preset-list", "neither"],
    )
    def test_shock_refused(self, shock, config_file):
        """A shock is one preset label, a list of them, or a custom law
        with both alpha and T; anything else is refused by name."""
        with pytest.raises(ConfigError, match=r"^shock"):
            experiments.load_config(config_file(dict(REFERENCE_DOC, shock=shock)))

    def test_shock_refused_through_main(self, config_file, capsys):
        doc = dict(REFERENCE_DOC, shock={"preset": "ER", "alpha": [1.0]})
        assert main(["ttf", "--config", config_file(doc)]) == 2
        assert capsys.readouterr().out == ""

    def test_custom_ph_rejected(self, config_file):
        doc = dict(REFERENCE_DOC, shock={"alpha": [0.5, 0.6], "T": [[-2.0, 1.0], [0.0, -3.0]]})
        with pytest.raises(ConfigError, match="shock.alpha"):
            experiments.load_config(config_file(doc))

    def test_r_range_spec(self, config_file):
        doc = {"n": 6, "k": [2, 3], "r": {"start": 0.1, "stop": 0.3, "step": 0.1}}
        spec = experiments.load_config(config_file(doc))
        assert spec.r == (0.1, 0.2, 0.3)

    def test_default_r_grid(self, config_file):
        spec = experiments.load_config(config_file({"n": 6, "k": 2}))
        assert len(spec.r) == 19
        assert spec.r[0] == 0.05 and spec.r[-1] == 0.95

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            experiments.load_config(str(path))

    def test_grid_rejected_for_single_commands(self, config_file):
        doc = dict(REFERENCE_DOC, n=[4, 6])
        spec = experiments.load_config(config_file(doc))
        with pytest.raises(ConfigError, match="single value"):
            spec.single()


class TestExitCodes:
    def test_success(self, config_file, capsys):
        assert main(["tiesets", "--config", config_file(REFERENCE_DOC)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("count,2\n1,3\n2,4\n")

    def test_config_error(self, config_file, capsys):
        doc = dict(REFERENCE_DOC, k=9)
        assert main(["tiesets", "--config", config_file(doc)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bc1_odd_n_is_config_error(self, config_file):
        doc = {"n": 3, "k": 2, "r": 0.5, "bc": "BC1"}
        assert main(["tiesets", "--config", config_file(doc)]) == 2

    @pytest.mark.parametrize("out", [7, ["a"], True])
    def test_non_string_out_is_config_error(self, out, config_file):
        # an integer or boolean out would be opened as a file descriptor,
        # so the CLI runs in a child process
        done = run_cli("tiesets", "--config", config_file(dict(REFERENCE_DOC, out=out)))
        assert done.returncode == 2
        assert done.stdout == ""
        assert "out:" in done.stderr

    @pytest.mark.parametrize(
        "key,value",
        [("z_max", "nan"), ("z_max", "inf"), ("z_max", float("nan")), ("z_max", float("inf")),
         ("m_max", float("inf"))],
    )
    def test_non_finite_option_is_config_error(self, key, value, config_file, capsys):
        assert main(["ttf", "--config", config_file(dict(REFERENCE_DOC, **{key: value}))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key}:" in captured.err

    @pytest.mark.parametrize(
        "r_range",
        [{"start": 0.1, "stop": float("inf"), "step": 0.1},
         {"start": 0.1, "stop": 0.5, "step": float("nan")},
         {"start": 0.1, "stop": 0.5, "step": "fine"},
         {"start": "0.1", "stop": 0.5, "step": 0.1}],
    )
    def test_bad_r_range_is_config_error(self, r_range, config_file, capsys):
        doc = {"n": 4, "k": 2, "r": r_range}
        assert main(["sweep-msntf", "--config", config_file(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "r:" in captured.err

    @pytest.mark.parametrize(
        "flag,value",
        [("z-max", "nan"), ("z-max", "inf"), ("m-max", "0"), ("reps", "0"), ("reps", "1"),
         ("seed", "-1")],
    )
    def test_bad_flag_is_config_error(self, flag, value, config_file, capsys):
        assert main(["ttf", "--config", config_file(REFERENCE_DOC), f"--{flag}", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag.replace('-', '_')}:" in captured.err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_negative_seed_is_config_error(self, command, config_file, capsys):
        """numpy's SeedSequence takes no negative seed; 0 is a seed."""
        assert experiments.parse_config(dict(REFERENCE_DOC, seed=0)).seed == 0
        assert main([command, "--config", config_file(dict(REFERENCE_DOC, seed=-1))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed: must be nonnegative" in captured.err

    def test_huge_z_max_finishes(self, config_file, tmp_path):
        # the survival underflows to exactly zero long before z = 1e300
        out = tmp_path / "ttf.csv"
        done = run_cli(
            "ttf", "--config", config_file(REFERENCE_DOC), "--z-max", "1e300", "--out", str(out),
            timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert out.read_text().splitlines()[-1] == "1e+300,0,0"

    def test_infeasible_maps_to_three(self, config_file, monkeypatch):
        def explode(spec):
            raise NoTieSets("forced")

        monkeypatch.setattr(experiments, "run_tiesets", explode)
        assert main(["tiesets", "--config", config_file(REFERENCE_DOC)]) == 3

    def test_numerical_failure_maps_to_four(self, config_file, monkeypatch):
        def explode(spec):
            raise NonConvergence("forced")

        monkeypatch.setattr(experiments, "run_ttf", explode)
        assert main(["ttf", "--config", config_file(REFERENCE_DOC)]) == 4

    def test_validate_failure_maps_to_one(self, config_file, monkeypatch):
        def fake(spec):
            return [{"check": "stub", "result": "fail", "detail": "forced"}]

        monkeypatch.setattr(experiments, "run_validate", fake)
        assert main(["validate", "--config", config_file(REFERENCE_DOC)]) == 1


class TestChainCap:
    """A chain over its cap is refused fast, before any output and before
    anything of its size is allocated, with exit 4: the chain dump above
    MAX_CHAIN_STATES states, the state chain above MAX_STATE_UNITS
    units."""

    DUMP_DOC = {"n": 16, "k": 4, "r": 0.8, "bc": "BC3", "shock": {"preset": "HE"}}
    STATE_DOC = {"n": MAX_STATE_UNITS + 2, "k": 6, "r": 0.8, "bc": "BC3", "shock": {"preset": "HE"}}

    @pytest.mark.parametrize(
        "argv,doc,message",
        [
            (["sntf-pmf", "--matrix"], STATE_DOC, f"n <= {MAX_STATE_UNITS}"),
            (["sntf-pmf", "--dump-chain", "chain.csv"], DUMP_DOC, "41479"),
            (["validate"], STATE_DOC, f"n <= {MAX_STATE_UNITS}"),
        ],
        ids=["matrix", "dump-chain", "validate"],
    )
    def test_refused_before_any_output(self, argv, doc, message, config_file, tmp_path, capsys):
        argv = [str(tmp_path / a) if a == "chain.csv" else a for a in argv]
        cfg = config_file(doc)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            rc = main(argv + ["--config", cfg])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 4
        assert elapsed < 2.0
        assert peak < 4 << 20  # a 2**24 closure alone is 16 MB
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not (tmp_path / "chain.csv").exists()

    def test_state_chain_runs_beyond_the_dense_cap(self, config_file, capsys):
        # n=16 k=4 BC3 has 41 479 nonfailed states, over the dump's cap
        cfg = config_file(dict(self.DUMP_DOC, reps=4000))
        assert main(["validate", "--config", cfg]) == 0
        assert main(["sntf-pmf", "--matrix", "--config", cfg, "--m-max", "3"]) == 0
        assert main(["sntf-pmf", "--config", cfg, "--m-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "consolidation_fidelity,pass" in out
        matrix, direct = out.split("m,pmf,survival\n")[1:]
        for a, b in zip(matrix.splitlines(), direct.splitlines()):
            assert [float(x) for x in a.split(",")] == pytest.approx(
                [float(x) for x in b.split(",")], rel=1e-11
            )


class TestUnwritablePath:
    """An output path that cannot be opened is a configuration error, as an
    unreadable config file is: exit 2, one line on stderr, and no pmf row
    written to stdout or to the other output."""

    @pytest.mark.parametrize("flag", ["--out", "--dump-chain"])
    def test_exits_2_before_any_output(self, flag, config_file, tmp_path):
        missing = str(tmp_path / "missing" / "x.csv")
        argv = ["sntf-pmf", "--config", config_file(REFERENCE_DOC), "--m-max", "2", flag, missing]
        done = run_cli(*argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith(f"config error: {flag[2:]}: cannot write {missing}: ")
        assert done.stderr.count("\n") == 1
        if flag == "--dump-chain":  # the dump is opened before the pmf is written
            pmf = tmp_path / "pmf.csv"
            assert run_cli(*argv, "--out", str(pmf)).returncode == 2
            assert not pmf.exists()


class TestSimulationEnvelope:
    """Simulations whose histogram grows past the Monte Carlo bound as
    r -> 1 exit 4 before any draw: with default reps, n=6 k=2 BC3 ER ran
    for minutes, was OOM-killed or died with a traceback at these r."""

    DOC = {"n": 6, "k": 2, "bc": "BC3", "shock": {"preset": "ER"}}

    @pytest.mark.parametrize(
        "target,r,message",
        [
            ("ttf", 0.999999, "mean shock count"),
            ("sntf", 0.999999999, "mean shock count"),
            ("sntf", 1.0 - 2.0**-53, "mean shock count"),
        ],
    )
    def test_refused_before_any_draw(self, target, r, message, config_file, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew lifetimes past the admission check")

        monkeypatch.setattr(montecarlo, "_shock_counts", no_draw)
        cfg = config_file(dict(self.DOC, r=r))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            rc = main(["simulate", "--target", target, "--config", cfg])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert message in captured.err
        assert elapsed < 2.0
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "doc",
        [dict(REFERENCE_DOC, r=0.999), dict(DOC, r=0.9999), dict(DOC, r=0.99999)],
        ids=["n4-r0.999", "n6-r0.9999", "n6-r0.99999"],
    )
    def test_failure_times_past_the_old_draw_bound(self, doc, config_file, capsys):
        """10^5 replications of 750 to 95 000 shocks each were refused (exit
        4) for holding over 2^25 inter-shock times; the failure times now
        cost a few draws per replication whatever the shock count, and the
        simulated MTTF lies inside its 99 % interval."""
        cfg = config_file(dict(doc, reps=100_000))
        assert main(["ttf", "--config", cfg]) == 0
        mttf = float(capsys.readouterr().out.splitlines()[-1].split(",")[0].split("=")[1])
        start = time.perf_counter()
        assert main(["simulate", "--target", "ttf", "--config", cfg]) == 0
        assert time.perf_counter() - start < 5.0
        summary = dict(item.split("=") for item in capsys.readouterr().out.splitlines()[-1].split())
        assert summary["reps"] == "100000"
        half_99 = float(summary["half_width_95"]) * 2.5758293035489004 / 1.959963984540054
        assert abs(float(summary["mean"]) - mttf) <= half_99


class TestOptionBounds:
    """Integer options past their upper bounds exit 4 before any work, from
    the config and from the flags alike.  Before the bounds, m_max = 1e30
    made sntf-pmf run with no output until killed, and z_steps and reps of
    1e30 died with tracebacks (exit 1)."""

    @pytest.mark.parametrize(
        "argv,doc,name",
        [
            (["sntf-pmf"], {"m_max": 1e30}, "m_max"),
            (["sntf-pmf", "--m-max", str(experiments.MAX_TABLE_ROWS + 1)], {}, "m_max"),
            (["validate"], {"m_max": experiments.MAX_TABLE_ROWS + 1}, "m_max"),
            (["ttf"], {"z_steps": 1e30}, "z_steps"),
            (["ttf"], {"z_steps": 1e9}, "z_steps"),
            (["simulate"], {"reps": 1e30}, "reps"),
            (["simulate", "--target", "ttf", "--reps", str(10**30)], {}, "reps"),
            (["validate", "--reps", str(experiments.MAX_REPS + 1)], {}, "reps"),
        ],
    )
    def test_refused_before_any_work(self, argv, doc, name, config_file):
        start = time.perf_counter()
        done = run_cli(*argv, "--config", config_file(dict(REFERENCE_DOC, **doc)), timeout=30)
        assert done.returncode == 4
        assert done.stdout == ""
        assert f"{name}: " in done.stderr and "exceeds the bound" in done.stderr
        assert time.perf_counter() - start < 10.0

    def test_bounds_admitted(self, config_file):
        doc = dict(
            REFERENCE_DOC,
            m_max=experiments.MAX_TABLE_ROWS,
            z_steps=experiments.MAX_TABLE_ROWS,
            reps=experiments.MAX_REPS,
        )
        spec = experiments.load_config(config_file(doc))
        assert (spec.m_max, spec.z_steps, spec.reps) == (
            experiments.MAX_TABLE_ROWS, experiments.MAX_TABLE_ROWS, experiments.MAX_REPS
        )


class TestOptionTypes:
    """A numeric option takes a JSON number, and an integer option one with
    no fractional part, as n and k do: each of these configs used to run,
    cast by int() or float() (one pmf row for true, 2 replications for
    2.9, seed 0 for 0.5)."""

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("sntf-pmf", "m_max", True),
            ("sntf-pmf", "m_max", "7"),
            ("simulate", "reps", 2.9),
            ("simulate", "seed", 0.5),
            ("ttf", "z_max", "3"),
            ("ttf", "z_steps", 12.5),
            ("sweep-msntf", "threads", False),
        ],
    )
    def test_exits_2_naming_the_key(self, command, key, value, config_file, capsys):
        assert main([command, "--config", config_file(dict(REFERENCE_DOC, **{key: value}))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {key}: expected" in captured.err

    @pytest.mark.parametrize("key,path", [("r", "r[0]"), ("z_max", "z_max")])
    def test_int_past_the_largest_float(self, key, path, config_file, capsys):
        """10**400 has no float: r used to die with an OverflowError."""
        doc = dict(REFERENCE_DOC, **{key: 10**400})
        assert main(["ttf", "--config", config_file(doc)]) == 2
        assert f"config error: {path}: must be finite" in capsys.readouterr().err

    def test_integral_floats_admitted(self):
        doc = dict(REFERENCE_DOC, n=4.0, m_max=30.0, reps=2000.0, seed=0.0, z_max=3)
        spec = experiments.parse_config(doc)
        values = (spec.n, spec.m_max, spec.reps, spec.seed, spec.z_max)
        assert values == ((4,), 30, 2000, 0, 3.0)
        assert [type(v) for v in values[1:]] == [int, int, int, float]


class TestSpecOptions:
    """An ExperimentSpec built in Python, as the scripts and the benchmark
    build theirs, checks its options as a config does.  Before, only the
    config parser checked them: m_max=0 died in rows_to_csv with an
    IndexError, m_max=2.5 in run_sntf_pmf with a TypeError, seed=-1 in
    numpy, z_max=-1.0 in the grid check, and z_max=0.0 and threads=0 ran."""

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("m_max", 0, "m_max: must be positive"),
            ("m_max", 2.5, "m_max: expected an integer"),
            ("seed", -1, "seed: must be nonnegative"),
            ("z_max", -1.0, "z_max: must be positive"),
            ("z_max", 0.0, "z_max: must be positive"),
            ("z_max", float("inf"), "z_max: must be finite"),
            ("threads", 0, "threads: must be positive"),
            ("reps", True, "reps: expected an integer"),
        ],
    )
    def test_refused_where_made(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            experiments.ExperimentSpec(n=(4,), k=(2,), r=(0.7,), bc=(BC3,), **{key: value})

    def test_replace_checks(self):
        spec = experiments.parse_config(REFERENCE_DOC)
        with pytest.raises(ConfigError, match="threads: must be positive"):
            replace(spec, threads=0)

    def test_refusal_comes_before_bound(self, config_file, capsys):
        """A bad option exits 2 even beside an option past its bound."""
        over = experiments.MAX_TABLE_ROWS + 1
        with pytest.raises(ConfigError, match="seed: must be nonnegative"):
            experiments.ExperimentSpec(n=(4,), k=(2,), r=(0.7,), bc=(BC3,), m_max=over, seed=-1)
        doc = dict(REFERENCE_DOC, m_max=over, seed=-1)
        assert main(["sntf-pmf", "--config", config_file(doc)]) == 2
        assert "seed: must be nonnegative" in capsys.readouterr().err


class TestSingleSystemPresets:
    """A single-system command refuses a list of presets, as it refuses a
    list of n, k, r or bc.  validate used to drop its failure-time checks
    and exit 0, and simulate --target ttf said "shock: required"."""

    @pytest.mark.parametrize(
        "argv",
        [["tiesets"], ["sntf-pmf"], ["sntf-moments"], ["ttf"], ["simulate"],
         ["simulate", "--target", "ttf"], ["validate"]],
        ids=lambda argv: "-".join(argv),
    )
    def test_exits_2(self, argv, config_file, capsys):
        doc = dict(REFERENCE_DOC, shock={"preset": ["ER", "HE"]}, reps=100)
        assert main([*argv, "--config", config_file(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: shock.preset: this command needs a single value, got 2" in (
            captured.err
        )

    def test_one_listed_preset_is_that_preset(self, config_file):
        doc = dict(REFERENCE_DOC, shock={"preset": ["HE"]})
        law = experiments.load_config(config_file(doc)).single().shock
        assert np.array_equal(law.T, ph_from_preset("HE").T)


class TestSweepGridBound:
    """A sweep of more than MAX_TABLE_ROWS points, or an r range of more
    values, exits 4 before the grid is formed.  Before the bound, an r
    range with step 1e-9 built an 8e8-value tuple and ran for 20 s without
    exiting under a 2 GB address-space limit."""

    FINE_R = {"start": 0.0001, "stop": 0.9999, "step": 0.0001}  # 9999 values

    @pytest.mark.parametrize(
        "command,doc,message",
        [
            ("sweep-msntf", {"n": [12], "k": [2], "r": {"start": 0.1, "stop": 0.9, "step": 1e-9}},
             "r: the range holds more than 100000 values"),
            ("sweep-scv", {"n": [12], "k": [2], "r": {"start": 0.1, "stop": 0.9, "step": 1e-300},
                           "shock": {"preset": ["ER"]}},
             "r: the range holds more than 100000 values"),
            ("sweep-msntf", {"n": [12], "k": list(range(2, 13)), "r": FINE_R},
             "grid: 109989 points exceed the sweep bound 100000"),
            ("sweep-scv", {"n": list(range(3, 13)), "k": list(range(2, 12)),
                           "r": {"start": 0.001, "stop": 0.999, "step": 0.001},
                           "shock": {"preset": ["ER", "EXP", "HE"]}},
             "grid: 299700 points exceed the sweep bound 100000"),
        ],
    )
    def test_refused_before_any_work(self, command, doc, message, config_file):
        start = time.perf_counter()
        done = run_cli(command, "--config", config_file(dict(doc, bc="BC3")), timeout=30)
        assert done.returncode == 4
        assert done.stdout == ""
        assert message in done.stderr
        assert time.perf_counter() - start < 10.0

    def test_bounds_admitted(self):
        spec = experiments.parse_config(
            {"n": [12], "k": list(range(2, 12)), "r": {"start": 0.0001, "stop": 1.0, "step": 0.0001}}
        )
        assert len(spec.r) == 10**4
        assert len(experiments._sweep_points(spec, ["BC3"])) == experiments.MAX_TABLE_ROWS
        ranged = experiments.parse_config(
            {"n": 4, "k": 2, "r": {"start": 1, "stop": experiments.MAX_TABLE_ROWS, "step": 1}}
        )
        assert len(ranged.r) == experiments.MAX_TABLE_ROWS


class TestPhaseThatNeverExits:
    """A custom law with phases that never reach an exit is a config error.
    Before, `simulate --target ttf` drew forever from those phases, and
    `ttf` and `validate` exited 4 on a singular matrix."""

    DOC = dict(
        REFERENCE_DOC,
        shock={"alpha": [0.5, 0, 0.5], "T": [[-1, 1, 0], [1, -1, 0], [0, 0, -1]]},
    )

    @pytest.mark.parametrize("argv", [["ttf"], ["validate"], ["simulate", "--target", "ttf"]])
    def test_exits_2(self, argv, config_file):
        done = run_cli(*argv, "--config", config_file(self.DOC), timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "phases [0, 1] never reach a phase that can exit" in done.stderr


class TestNonFiniteLaw:
    """A custom law with an infinite rate is a config error.  Before,
    `ttf` never finished (a uniformization rate of inf gives strides of
    length 0) and `simulate --target ttf` exited 1 with an IndexError."""

    DOC = dict(
        REFERENCE_DOC, n=6, r=0.8, shock={"alpha": [0.5, 0.5], "T": [[-2, 1], [0, float("-inf")]]}
    )

    @pytest.mark.parametrize("argv", [["ttf"], ["simulate", "--target", "ttf"]])
    def test_exits_2(self, argv, config_file):
        done = run_cli(*argv, "--config", config_file(self.DOC), timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "shock: alpha and T must be finite" in done.stderr


class TestMalformedLaw:
    """A custom law with a non-numeric entry or a ragged T is a config error.
    Before, `ttf` exited 1 with numpy's ValueError traceback."""

    @pytest.mark.parametrize(
        "shock",
        [{"alpha": ["a", 1], "T": [[-2, 1], [0, -3]]}, {"alpha": [0.5, 0.5], "T": [[-1, 0], [0]]}],
        ids=["non-numeric-alpha", "ragged-T"],
    )
    def test_exits_2(self, shock, config_file, capsys):
        doc = dict(REFERENCE_DOC, n=6, r=0.8, shock=shock)
        assert main(["ttf", "--config", config_file(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: shock:")


class TestLawMomentsOutOfRange:
    """A custom law whose mean, mean squared or second moment is not a
    positive normal float is a config error.  Before, T = [[-1e200]] made
    `ttf` exit 1 with a ZeroDivisionError (the mean squared underflows),
    T = [[-1e308]] made `simulate --target ttf` exit 0 with a subnormal
    histogram, and a mean near 1e300 raised OverflowError when squared."""

    @pytest.mark.parametrize(
        "shock",
        [
            {"alpha": [1.0], "T": [[-1e200]]},
            {"alpha": [1.0], "T": [[-1e308]]},
            # phase 0 leaves at rate 1e-300 for phase 1, which exits at rate 1
            {"alpha": [1.0, 0.0], "T": [[-1e-300, 1e-300], [0.0, -1.0]]},
        ],
        ids=["mean-underflows", "mean-subnormal", "mean-squared-overflows"],
    )
    @pytest.mark.parametrize("argv", [["ttf"], ["simulate", "--target", "ttf"]])
    def test_exits_2(self, argv, shock, config_file, capsys):
        doc = dict(REFERENCE_DOC, n=6, r=0.8, shock=shock)
        assert main([*argv, "--config", config_file(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: shock: the law's mean")

    @pytest.mark.parametrize("label", PRESET_LABELS)
    def test_presets_pass(self, label):
        law = ph_from_preset(label)
        assert ph_mean_scv(validate_ph(law.alpha, law.T)) == ph_mean_scv(law)


def test_experiments_import_loads_no_thread_pool():
    code = "import sys, ckngb.experiments; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    code = "import sys, ckngb.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestCommands:
    def test_sntf_pmf_csv(self, config_file, tmp_path):
        out = tmp_path / "pmf.csv"
        rc = main(
            ["sntf-pmf", "--config", config_file(REFERENCE_DOC), "--m-max", "5", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,pmf,survival"
        assert lines[1].startswith("1,0.2601,0.7399")
        assert len(lines) == 6

    def test_sntf_pmf_matrix_flag_agrees(self, config_file, tmp_path):
        direct = tmp_path / "direct.csv"
        matrix = tmp_path / "matrix.csv"
        cfg = config_file(REFERENCE_DOC)
        main(["sntf-pmf", "--config", cfg, "--m-max", "20", "--out", str(direct)])
        main(["sntf-pmf", "--config", cfg, "--m-max", "20", "--matrix", "--out", str(matrix)])
        for da, db in zip(direct.read_text().splitlines()[1:], matrix.read_text().splitlines()[1:]):
            va = [float(x) for x in da.split(",")]
            vb = [float(x) for x in db.split(",")]
            assert va == pytest.approx(vb, abs=1e-12)

    def test_dump_chain(self, config_file, tmp_path):
        dump = tmp_path / "chain.csv"
        rc = main(
            [
                "sntf-pmf",
                "--config",
                config_file(REFERENCE_DOC),
                "--m-max",
                "2",
                "--out",
                str(tmp_path / "pmf.csv"),
                "--dump-chain",
                str(dump),
            ]
        )
        assert rc == 0
        header = dump.read_text().splitlines()[0]
        assert header == "state,1111,1110,1101,1011,1010,0111,0101,absorbed"

    def test_sntf_moments(self, config_file, tmp_path):
        out = tmp_path / "moments.csv"
        assert main(["sntf-moments", "--config", config_file(REFERENCE_DOC), "--out", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "n,k,r,bc,msntf,second_moment,variance"
        msntf = float(row.split(",")[4])
        assert msntf == pytest.approx(2.6056060007895767, abs=1e-9)

    def test_ttf_summary_line(self, config_file, tmp_path, capsys):
        out = tmp_path / "ttf.csv"
        rc = main(
            ["ttf", "--config", config_file(REFERENCE_DOC), "--z-max", "4", "--out", str(out)]
        )
        assert rc == 0
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("mttf=")
        assert "scv=" in summary and "mttf_wald=" in summary
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "z,pdf,survival"
        assert lines[1] == "0,0,1"

    def test_simulate_histogram(self, config_file, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        rc = main(
            [
                "simulate",
                "--config",
                config_file(REFERENCE_DOC),
                "--reps",
                "5000",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 5000
        assert "mean=" in capsys.readouterr().out

    def test_simulate_ttf_target(self, config_file, tmp_path):
        rc = main(
            [
                "simulate",
                "--config",
                config_file(REFERENCE_DOC),
                "--target",
                "ttf",
                "--reps",
                "2000",
                "--out",
                str(tmp_path / "h.csv"),
            ]
        )
        assert rc == 0

    def test_tables_take_one_direct_call_each(self, monkeypatch):
        """sntf-pmf forms its table in one pmf_direct and one survival_direct
        call, and validate makes at most three direct-law calls itself (the
        moment series it runs is not counted), whatever m_max is."""
        calls = Counter()

        def counted(name):
            real = getattr(sntf, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        routes = {name: counted(name) for name in ("pmf_direct", "survival_direct")}
        monkeypatch.setattr(experiments, "sntf", SimpleNamespace(**{**vars(sntf), **routes}))
        spec = experiments.parse_config(dict(REFERENCE_DOC, reps=2000))
        experiments.run_sntf_pmf(spec)
        assert calls == Counter(pmf_direct=1, survival_direct=1)
        calls.clear()
        experiments.run_validate(spec)
        assert 1 <= sum(calls.values()) <= 3

    def test_validate_passes_on_reference(self, config_file, tmp_path):
        out = tmp_path / "checks.csv"
        rc = main(
            [
                "validate",
                "--config",
                config_file(REFERENCE_DOC),
                "--reps",
                "40000",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "check,result,detail"
        assert all(",pass," in line for line in lines[1:])


class TestSweeps:
    def test_msntf_rows_and_order(self, config_file, tmp_path):
        doc = {"n": [6, 7], "k": [2, 5, 6], "r": [0.5], "bc": ["BC3", "BC1"]}
        out = tmp_path / "sweep.csv"
        assert main(["sweep-msntf", "--config", config_file(doc), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bc,n,k,r,msntf"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(r[0], int(r[1]), int(r[2]), float(r[3])) for r in rows]
        assert keys == sorted(keys)
        # k <= n-1 filter: k=6 only admitted for n=7
        assert all(k <= n - 1 for _, n, k, _ in keys)
        # BC1 on odd n is infeasible, not fatal
        bc1_odd = [r for r in rows if r[0] == "BC1" and r[1] == "7"]
        assert bc1_odd and all(r[4] == "infeasible" for r in bc1_odd)
        bc3 = [r for r in rows if r[0] == "BC3"]
        assert all(r[4] != "infeasible" for r in bc3)

    def test_threads_flag_is_gone(self, config_file):
        doc = {"n": [6], "k": [2, 3], "r": [0.3], "bc": ["BC3"]}
        done = run_cli("sweep-msntf", "--config", config_file(doc), "--threads", "2")
        assert done.returncode == 2
        assert done.stdout == ""

    @pytest.mark.parametrize("command", ["sweep-msntf", "sweep-scv"])
    def test_threads_key_has_no_effect(self, command, config_file, capsys):
        """The threads key is still accepted as a positive integer, and a
        sweep prints the same bytes whatever its value."""
        doc = {"n": [6, 8], "k": [2, 3, 4, 5], "r": [0.3, 0.6], "bc": ["BC2", "BC3"],
               "shock": {"preset": ["ER", "HE"]}}
        outputs = []
        for extra in ({}, {"threads": 1}, {"threads": 4}):
            assert main([command, "--config", config_file(dict(doc, **extra))]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[1:] == outputs[:1] * 2
        assert main([command, "--config", config_file(dict(doc, threads=0))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threads: must be positive" in captured.err

    def test_scv_refuses_custom_law(self, config_file, capsys):
        doc = {"n": [6], "k": [2], "r": [0.8], "bc": ["BC3"],
               "shock": {"alpha": [0.5, 0.5], "T": [[-2, 1], [0, -3]]}}
        assert main(["sweep-scv", "--config", config_file(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: shock: sweep-scv needs preset labels" in captured.err
        assert "shock.preset" not in captured.err

    def test_scv_sweep(self, config_file, tmp_path):
        doc = {
            "n": [6],
            "k": [3, 4],
            "r": [0.9],
            "bc": ["BC3"],
            "shock": {"preset": ["ER", "EXP", "HE"]},
        }
        out = tmp_path / "scv.csv"
        assert main(["sweep-scv", "--config", config_file(doc), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bc,preset,n,k,r,mttf,mttf_wald,scv"
        assert len(lines) == 7
        by_key = {}
        for line in lines[1:]:
            parts = line.split(",")
            by_key[(parts[1], int(parts[3]))] = float(parts[7])
        for k in (3, 4):
            assert by_key[("HE", k)] > by_key[("EXP", k)] > by_key[("ER", k)]

    @pytest.mark.parametrize("command", ["sweep-msntf", "sweep-scv"])
    @pytest.mark.parametrize(
        "grid,message",
        [({"n": [6], "r": [0.5, 1.5]}, "r: must lie strictly inside (0, 1), got 1.5"),
         ({"n": [6, 31], "r": [0.5, 1.5]}, "r: must lie strictly inside (0, 1), got 1.5"),
         ({"n": [6, 31], "r": [0.5]}, "n: must satisfy 2 <= n <= 30, got 31")],
    )
    def test_system_out_of_range_is_config_error(self, command, grid, message, config_file, capsys):
        """A grid system the single-system commands refuse fails the sweep
        with exit 2 and that system's message: the first such system in row
        order, where n is checked before r."""
        doc = dict(grid, k=[2], bc=["BC1", "BC3"], shock={"preset": ["ER"]})
        assert main([command, "--config", config_file(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_empty_grid_is_config_error(self, config_file):
        doc = {"n": [4], "k": [4], "r": [0.5], "bc": ["BC3"]}  # k > n-1 everywhere
        assert main(["sweep-msntf", "--config", config_file(doc)]) == 2

    def test_msntf_monotone_in_r_and_k(self, config_file, tmp_path):
        doc = {"n": [10], "k": [3, 5, 7], "r": [0.3, 0.6, 0.9], "bc": ["BC3"]}
        out = tmp_path / "mono.csv"
        assert main(["sweep-msntf", "--config", config_file(doc), "--out", str(out)]) == 0
        table = {}
        for line in out.read_text().strip().splitlines()[1:]:
            bc, n, k, r, msntf = line.split(",")
            table[(int(k), float(r))] = float(msntf)
        for k in (3, 5, 7):
            assert table[(k, 0.3)] < table[(k, 0.6)] < table[(k, 0.9)]
        for r in (0.3, 0.6, 0.9):
            assert table[(3, r)] >= table[(5, r)] >= table[(7, r)]


class TestByteStability:
    def test_repeated_runs_identical(self, config_file, tmp_path):
        doc = {"n": [6], "k": [2, 3], "r": [0.25, 0.75], "bc": ["BC3", "BC2"]}
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["sweep-msntf", "--config", config_file(doc), "--out", str(a)])
        main(["sweep-msntf", "--config", config_file(doc), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_stable(self, config_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cfg = config_file(REFERENCE_DOC)
        main(["simulate", "--config", cfg, "--reps", "3000", "--seed", "4", "--out", str(a)])
        main(["simulate", "--config", cfg, "--reps", "3000", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestValidateNegativeControl:
    def test_corrupted_chain_fails_row_check(self, config_file):
        spec = experiments.parse_config(REFERENCE_DOC)
        chain = build_state_chain(4, 2, BC3, 0.7)
        corrupted = copy.copy(chain)
        object.__setattr__(corrupted, "absorb", chain.absorb + 0.05)
        checks = experiments.run_validate(spec, chain_override=corrupted)
        by_name = {c["check"]: c["result"] for c in checks}
        assert by_name["row_stochasticity"] == "fail"

    def test_closure_not_an_up_set_fails_row_check(self):
        # 1110 dropped while its subset 1010 stays nonfailed.  The chain is
        # built from the masks as given, so every row still sums to one
        spec = experiments.parse_config(REFERENCE_DOC)
        masks = build_state_chain(4, 2, BC3, 0.7).masks
        corrupted = state_chain(masks[masks != 0b1110], 4, 0.7)
        checks = experiments.run_validate(spec, chain_override=corrupted)
        by_name = {c["check"]: c for c in checks}
        assert by_name["row_stochasticity"]["result"] == "fail"
        assert float(by_name["row_stochasticity"]["detail"].split()[-1]) <= 1e-12

    def test_validate_when_one_shock_almost_never_fails(self, config_file, capsys):
        # 1 - P{M > 1} rounds to 0 here; the series must still converge
        doc = {"n": 12, "k": 2, "r": 0.999, "bc": "BC3", "reps": 2000}
        assert main(["validate", "--config", config_file(doc)]) == 0
        assert "mean_closed_vs_series,pass" in capsys.readouterr().out

    def test_larger_system_consolidation_check(self):
        spec = experiments.parse_config({"n": 8, "k": 3, "r": 0.7, "bc": "BC3", "reps": 20000})
        checks = experiments.run_validate(spec)
        by_name = {c["check"]: c["result"] for c in checks}
        assert by_name["consolidation_fidelity"] == "pass"
        assert all(result == "pass" for result in by_name.values())
