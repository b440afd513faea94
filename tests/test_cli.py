"""Config validation, pipeline runs, output files, exit codes."""

import importlib.util
import json
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from eqmeas import caratheodory, catalog, cli, core, equilibrium


def _write(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text("[run]\n" + body)
    return str(p)


BASE = "schema_version = 1\nsystem = cat\n"


class TestLoadConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = cli.load_config(_write(tmp_path, BASE))
        assert cfg["potential"] == "zero"
        assert cfg["grid"] == [32, 32]
        assert cfg["base_x"] == [0.2, 0.7]
        assert cfg["n_lo"] == 6 and cfg["n_hi"] == 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.load_config(str(tmp_path / "absent.ini"))

    def test_future_schema_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(_write(tmp_path, "schema_version = 2\nsystem = cat\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.load_config(_write(tmp_path, BASE + "fancy = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "s.ini"
        p.write_text("[run]\n" + BASE + "[extra]\nx = 1\n")
        with pytest.raises(cli.ConfigError, match="unexpected sections"):
            cli.load_config(str(p))

    def test_radius_out_of_range(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="out of range"):
            cli.load_config(_write(tmp_path, BASE + "r = 0.9\n"))

    def test_unknown_system(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(_write(tmp_path, "schema_version = 1\nsystem = nope\n"))

    def test_base_point_dimension_checked(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="coordinates"):
            cli.load_config(_write(tmp_path, BASE + "base_x = 0.1, 0.2, 0.3\n"))

    def test_window_ordering_checked(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="lo < hi"):
            cli.load_config(_write(tmp_path, BASE + "n_lo = 8\nn_hi = 8\n"))

    def test_scalar_grid_broadcasts(self, tmp_path):
        cfg = cli.load_config(_write(tmp_path, BASE + "grid = 16\n"))
        assert cfg["grid"] == [16, 16]

    def test_grid_cell_count_capped(self, tmp_path):
        body = "schema_version = 1\nsystem = slowprod\n"
        cfg = cli.load_config(_write(tmp_path, body + "grid = 16\n"))
        assert cfg["grid"] == [16] * 4
        with pytest.raises(cli.ConfigError, match="cells"):
            cli.load_config(_write(tmp_path, body + "grid = 17\n"))


class TestMain:
    def test_config_error_exits_1(self, tmp_path, capsys):
        path = _write(tmp_path, BASE + "fancy = 1\n")
        code = cli.main(["press", "--config", path])
        assert code == 1
        assert "config error" in capsys.readouterr().out

    @pytest.mark.parametrize("body,match", [
        ("[run]\n" + BASE + "system = skew\n", "option 'system' in section 'run' already exists"),
        (BASE, "File contains no section headers")])
    def test_malformed_ini_exits_1(self, tmp_path, capsys, body, match):
        # configparser's own errors: a repeated key, no section header
        path = tmp_path / "bad.ini"
        path.write_text(body)
        assert cli.main(["press", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("config error: ") and out.count("\n") == 1
        assert match in out
        assert not (tmp_path / "o").exists()

    def test_unknown_pipeline_rejected_by_argparse(self, tmp_path):
        path = _write(tmp_path, BASE)
        with pytest.raises(SystemExit):
            cli.main(["warp", "--config", path])

    def test_press_writes_csv_and_summary(self, tmp_path, capsys):
        path = _write(tmp_path, BASE)
        out = tmp_path / "out"
        code = cli.main(["press", "--config", path, "--out", str(out)])
        assert code == 0
        assert "pressure_radius_spread: ok" in capsys.readouterr().out

        lines = (out / "press.csv").read_text().splitlines()
        assert lines[0].startswith("# pipeline=press schema_version=1 cols=")
        assert "n,r,count,log_z" in lines[0]
        assert len(lines) == 1 + 21      # 7 orders, 3 radii

        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["pipelines"]["press"]["pressure"] == pytest.approx(
            0.9624, abs=0.05)
        assert all(c["passed"] for c in summary["checks"])

    def test_builds_the_system_once(self, tmp_path, monkeypatch):
        # the config is checked against the system the run then uses
        get_system, built = catalog.get_system, []

        def counted(key):
            built.append(key)
            return get_system(key)

        monkeypatch.setattr(catalog, "get_system", counted)
        path = _write(tmp_path, "schema_version = 1\nsystem = skew\n")
        assert cli.main(["press", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert built == ["skew"]

    def test_constant_press_at_the_largest_order(self, tmp_path):
        # the finest net at n = 20 would hold 7.0e8 atoms (5.6 GB of parameters); counting needs none
        path = _write(tmp_path, BASE + "potential = zero\nn_hi = 20\n")
        out = tmp_path / "out"
        assert cli.main(["press", "--config", path, "--out", str(out)]) == 0
        lines = (out / "press.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 15
        assert lines[-1].startswith("20,0.025,699230425,")

    def test_evolve_check_flags_short_runs(self, tmp_path, capsys):
        path = _write(tmp_path, BASE + "steps = 2\n")
        out = tmp_path / "out"
        code = cli.main(["evolve", "--config", path, "--out", str(out),
                         "--check"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        # same run without --check still reports but exits clean
        code = cli.main(["evolve", "--config", path, "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        flags = {c["name"]: c["passed"] for c in summary["checks"]}
        assert not flags["tv_to_uniform"]
        assert summary["pipelines"]["evolve"]["steps"] == 2

    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(run):
            raise ArithmeticError("empty net")
        monkeypatch.setitem(cli._RUNNERS, "press", boom)
        path = _write(tmp_path, BASE)
        code = cli.main(["press", "--config", path,
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().out

    def test_shared_stage_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise ArithmeticError("empty net")
        monkeypatch.setattr(cli, "estimate_pressure", boom)
        path = _write(tmp_path, BASE)
        code = cli.main(["gibbs", "--config", path,
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().out

    def test_probe_rows_are_quantity_value_pairs(self, tmp_path):
        path = _write(tmp_path, BASE + ("steps = 8\ngrid = 16, 16\n"
                                        "birkhoff_steps = 2000\n"
                                        "n_samples = 50\nseed = 3\n"))
        out = tmp_path / "out"
        assert cli.main(["probe", "--config", path, "--out", str(out)]) == 0
        lines = (out / "probe.csv").read_text().splitlines()
        assert lines[0].startswith("# pipeline=probe")
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert "transit_k" in names and "dispersion" in names

    def test_probe_rows_and_summary_keys(self, tmp_path):
        for system in ("cat", "skew"):  # (C1) and transitive: the Birkhoff probe applies
            path = _write(tmp_path, f"schema_version = 1\nsystem = {system}\n"
                          "birkhoff_steps = 20\nn_samples = 5\n")
            out = tmp_path / system
            assert cli.main(["probe", "--config", path, "--out", str(out)]) == 0
            lines = (out / "probe.csv").read_text().splitlines()
            assert lines[0].endswith(" cols=quantity,value")
            assert [ln.split(",")[0] for ln in lines[1:]] == ["transit_k", "dispersion"]
            summary = json.loads((out / "summary.json").read_text())
            assert sorted(summary["pipelines"]["probe"]) == ["dispersion", "transit_k"]

    def test_seed_flag_overrides_config(self, tmp_path):
        path = _write(tmp_path, BASE + ("steps = 8\ngrid = 16, 16\n"
                                        "birkhoff_steps = 2000\n"
                                        "n_samples = 50\nseed = 3\n"))
        out = tmp_path / "s"
        assert cli.main(["probe", "--config", path, "--out", str(out),
                         "--seed", "11"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 11

    def test_cdim_non_constant_potential_checks(self, tmp_path, capsys):
        path = _write(tmp_path, BASE + "potential = cos\n")
        out = tmp_path / "out"
        assert cli.main(["cdim", "--config", path, "--out", str(out),
                         "--check"]) == 0
        assert "dim_matches_pressure: ok" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pipelines"]["cdim"]["gap"] < 0.07

    def test_cdim_cover_size_limit_exits_3(self, tmp_path, capsys):
        path = _write(tmp_path, BASE + "potential = cos\nr = 0.0001\n")
        code = cli.main(["cdim", "--config", path, "--out", str(tmp_path / "o"),
                         "--check"])
        assert code == 3
        text = capsys.readouterr().out
        assert ("numeric failure: cover of order 10 needs 5778000 centers "
                "(limit 4194304)") in text

    def test_press_net_size_limit_exits_3(self, tmp_path, capsys):
        # the finest net at n = 20 would hold 699,230,425 atoms; order 15 is the first over
        path = _write(tmp_path, BASE + "potential = cos\nn_hi = 20\n")
        code = cli.main(["press", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert ("numeric failure: net of order 15 needs 5685176 atoms "
                "(limit 4194304)") in capsys.readouterr().out

    def test_evolve_net_size_limit_exits_3(self, tmp_path, monkeypatch, capsys):
        # 148,839,840 atoms and their leaf sums; the limit exits before any net is built
        def refuse(*args, **kwargs):
            raise AssertionError("net built over the limit")

        monkeypatch.setattr(caratheodory, "separated_net", refuse)
        path = _write(tmp_path, BASE + "potential = cos\nevolve_order = 16\n"
                      "evolve_leaf_radius = 2\n")
        code = cli.main(["evolve", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert ("numeric failure: net of order 16 needs 148839840 atoms "
                "(limit 4194304)") in capsys.readouterr().out

    def test_probe_work_limit_exits_3(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("probe sampled over the limit")

        monkeypatch.setattr(equilibrium.PhaseMeasure, "sample", refuse)
        path = _write(tmp_path, BASE + "birkhoff_steps = 1000000\nn_samples = 10000\n")
        code = cli.main(["probe", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert ("numeric failure: probe of birkhoff_steps 1000000 and n_samples 10000 "
                "needs 10000000000 point-steps (limit 268435456)") in capsys.readouterr().out

    def test_transitivity_window_limit_exits_3(self, tmp_path, capsys):
        # 4.8e9 deck translations at k_max: refused before the search allocates any
        path = _write(tmp_path, BASE + "delta = 1e-8\nk_max = 64\n")
        tracemalloc.start()
        try:
            code = cli.main(["probe", "--config", path, "--out", str(tmp_path / "o")])
            peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak_mb < 1
        assert ("numeric failure: transitivity window of delta 1e-08 and k_max 64 needs "
                "4800000003 deck translations (limit 4194304)") in capsys.readouterr().out

    def test_cdim_cover_size_limit_skips_pressure(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "estimate_pressure",
                            lambda *a, **k: calls.append(1))
        path = _write(tmp_path, BASE + "potential = cos\nr = 0.0001\n")
        assert cli.main(["cdim", "--config", path, "--out", str(tmp_path / "o"),
                         "--check"]) == 3
        assert calls == []

    def test_slowprod_fullsuite_checks(self, tmp_path, capsys, monkeypatch):
        probes = []
        monkeypatch.setattr(cli, "birkhoff_probe", lambda *a, **k: probes.append(1))
        path = _write(tmp_path, "schema_version = 1\nsystem = slowprod\n"
                      "n_centers = 4\nn_mc = 256\ngibbs_n_lo = 1\ngibbs_n_hi = 5\n"
                      "birkhoff_steps = 10\nn_samples = 64\n")
        out = tmp_path / "o"
        assert cli.main(["fullsuite", "--config", path, "--out", str(out),
                         "--check", "--seed", "0"]) == 2
        assert probes == []
        assert sorted(f.name for f in out.glob("*.csv")) == sorted(
            f"{name}.csv" for name in cli.PIPELINES if name != "fullsuite")
        summary = json.loads((out / "summary.json").read_text())
        failed = [(c["pipeline"], c["name"]) for c in summary["checks"]
                  if not c["passed"]]
        assert failed == [("probe", "transitivity")]
        assert "[probe] transitivity: FAIL (no k)" in capsys.readouterr().out

    def test_slowprod_default_probe_steps_no_fiber_orbits(self, tmp_path, capsys,
                                                          monkeypatch):
        # slowprod's probe runs no Birkhoff probe, so nothing evolves: the slowed
        # flow is called only by the transitivity search, once a step k = 1..k_max
        calls = []
        flow = catalog.flow_time_one

        def counted(*args, **kwargs):
            calls.append(1)
            return flow(*args, **kwargs)

        monkeypatch.setattr(catalog, "flow_time_one", counted)
        path = _write(tmp_path, "schema_version = 1\nsystem = slowprod\n")
        assert cli.main(["probe", "--config", path, "--out", str(tmp_path / "o"),
                         "--check"]) == 2
        assert "[probe] transitivity: FAIL (no k)" in capsys.readouterr().out
        assert len(calls) == cli._SCHEMA["k_max"][2]

    def test_slowprod_probe_skips_birkhoff_and_evolve(self, tmp_path, monkeypatch):
        # birkhoff_dispersion does not apply off (C1), so neither it nor the
        # evolved measure it reads is computed, and probe reports transit_k alone
        calls = []
        for name in ("evolve_average", "birkhoff_probe"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        path = _write(tmp_path, "schema_version = 1\nsystem = slowprod\n"
                      "birkhoff_steps = 10\nn_samples = 64\n")
        out = tmp_path / "o"
        assert cli.main(["probe", "--config", path, "--out", str(out), "--check"]) == 2
        assert calls == []
        lines = (out / "probe.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["transit_k"]
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary["pipelines"]["probe"]) == ["transit_k"]
        assert [c["name"] for c in summary["checks"]] == ["transitivity"]

    @pytest.mark.parametrize("seed", [-1, 2**31])
    def test_seed_flag_out_of_range_exits_1(self, tmp_path, capsys, seed):
        path = _write(tmp_path, BASE)
        out = tmp_path / "s"
        code = cli.main(["gibbs", "--config", path, "--out", str(out),
                         "--seed", str(seed)])
        assert code == 1
        assert "config error" in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.csv"))


SMALL = BASE + ("steps = 8\ngrid = 16\nbirkhoff_steps = 2000\n"
                "n_samples = 50\n")
SHARED = ("evolve", "gibbs", "disintegrate", "probe")


class TestSharedStages:
    def test_fullsuite_matches_pipelines_run_alone(self, tmp_path):
        path = _write(tmp_path, SMALL)
        full = tmp_path / "full"
        assert cli.main(["fullsuite", "--config", path, "--out", str(full)]) == 0
        for name in SHARED:
            alone = tmp_path / name
            assert cli.main([name, "--config", path, "--out", str(alone)]) == 0
            assert ((full / f"{name}.csv").read_text()
                    == (alone / f"{name}.csv").read_text()), name

    def test_fullsuite_computes_each_stage_once(self, tmp_path, monkeypatch):
        calls = {}

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)

        spy("evolve_average", cli.evolve_average)
        spy("estimate_pressure", cli.estimate_pressure)
        path = _write(tmp_path, SMALL)
        assert cli.main(["fullsuite", "--config", path,
                         "--out", str(tmp_path / "o")]) == 0
        assert calls == {"evolve_average": 1, "estimate_pressure": 1}

    @pytest.mark.parametrize("pipeline,marks", [("gibbs", []), ("probe", []),
                                                ("evolve", [2, 4, 8]), ("fullsuite", [2, 4, 8])])
    def test_checkpoints_only_for_evolve(self, tmp_path, monkeypatch, pipeline, marks):
        # the snapshots serve only run_evolve's convergence profile
        runs = []

        class Spy(cli.Run):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(self)

        monkeypatch.setattr(cli, "Run", Spy)
        path = _write(tmp_path, SMALL)
        assert cli.main([pipeline, "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert sorted(runs[0].evolved.snapshots) == marks


ROOT = pathlib.Path(__file__).parents[1]


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _load_bench("workloads")
TRACER = _load_bench("tracer")


class TestSeededVerdicts:
    """The benchmark's recorded per-seed verdicts, rerun through the CLI.

    A fullsuite call is rerun as the one pipeline that owns the check;
    every check that pipeline reports must give the verdict the benchmark
    expects at that seed.
    """

    @pytest.mark.parametrize("key", sorted(WORKLOADS.SEED_VERDICTS),
                             ids=lambda k: f"{k[1]}-seed{k[0]}")
    def test_recorded_verdict(self, tmp_path, key):
        seed, label, pipeline, check = key
        call = next(c for calls in WORKLOADS.WORKLOADS.values() for c in calls
                    if c.label == label)
        path = tmp_path / "run.ini"
        path.write_text(call.ini())
        out = tmp_path / "o"
        code = cli.main([pipeline, "--config", str(path), "--out", str(out),
                         "--check", "--seed", str(seed)])
        summary = json.loads((out / "summary.json").read_text())
        got = {(c["pipeline"], c["name"]): c["passed"] for c in summary["checks"]}
        want = {k: v for k, v in WORKLOADS.expected(call, seed).items()
                if k[0] == pipeline}
        assert got == want
        assert got[(pipeline, check)] is WORKLOADS.SEED_VERDICTS[key]
        assert code == (0 if all(got.values()) else 2)


class TestBlockSizes:
    """Output bytes do not depend on evolve's atom blocks, on
    how many Gibbs centres are stepped together, on how many subcells
    disintegrate makes at once, or on the probe's steps per block."""

    @pytest.mark.parametrize("label", ["cat.fullsuite", "skew.cos.fullsuite",
                                       "slowprod.gibbs", "slowprod.probe"])
    def test_outputs_do_not_depend_on_block_sizes(self, tmp_path, capsys,
                                                  monkeypatch, label):
        calls = [c for calls in WORKLOADS.WORKLOADS.values() for c in calls]
        calls.append(WORKLOADS.Call("skew.cos.fullsuite", "fullsuite", "skew",
                                    {"potential": "cos"}, ()))
        call = next(c for c in calls if c.label == label)
        path = tmp_path / "run.ini"
        path.write_text(call.ini())
        runs = []
        # small: ragged evolve blocks of 1,000 atoms; one
        # cat or skew centre, or 3 + 1 slowprod centres, per group; 12 cat, 3
        # skew or 1 slowprod bin of subcells at a time; probe blocks of 5 steps
        # (200 samples) or one of 10 (slowprod's 64 samples and 10 steps)
        sizes = ((core, "BLOCK"), (equilibrium, "GIBBS_POINTS"),
                 (equilibrium, "SUBCELL_POINTS"))
        for values in ([getattr(mod, name) for mod, name in sizes], (1000, 3 * 256, 200)):
            for (mod, name), value in zip(sizes, values):
                monkeypatch.setattr(mod, name, value)
            out = tmp_path / str(values[0])
            code = cli.main([call.pipeline, "--config", str(path), "--out", str(out),
                             "--check", "--seed", "0"])
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            runs.append((code, capsys.readouterr().out, files))
        assert "summary.json" in runs[0][2] and len(runs[0][2]) > 1
        assert runs[0] == runs[1]


TINY = ("n_centers = 4\nn_mc = 256\nbirkhoff_steps = 10\n"
        "n_samples = 16\n")
ALL_CHECKS = [("press", "pressure_radius_spread"), ("cdim", "bracket_width"),
              ("cdim", "dim_matches_pressure"), ("refmeas", "mass_ratio"),
              ("refmeas", "mass_slope"), ("evolve", "tv_to_uniform"),
              ("gibbs", "qhat_bounded"), ("gibbs", "qhat_flat"),
              ("gibbs", "qhat_blows_up"), ("holonomy", "jacobian_window"),
              ("disintegrate", "conditional_constant"), ("disintegrate", "product_tv"),
              ("probe", "transitivity"), ("probe", "birkhoff_dispersion")]


class TestCheckMap:
    """Which checks fullsuite reports, in order, for each pair of hypotheses:
    without (C1) the Gibbs bound is expected to blow up, and checks of
    convergence and mixing need (C1) and transitivity."""

    def _reported(self, tmp_path, system):
        path = _write(tmp_path, f"schema_version = 1\nsystem = {system}\n" + TINY)
        assert cli.main(["fullsuite", "--config", path, "--out", str(tmp_path / "o"),
                         "--check"]) in (0, 2)
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        return [(c["pipeline"], c["name"]) for c in summary["checks"]]

    @pytest.mark.parametrize("system,skipped", [
        ("cat", {"qhat_blows_up"}), ("skew", {"qhat_blows_up"}),
        ("slowprod", {"tv_to_uniform", "qhat_bounded", "qhat_flat",
                      "birkhoff_dispersion"})])
    def test_catalog_systems(self, tmp_path, system, skipped):
        assert self._reported(tmp_path, system) == [
            c for c in ALL_CHECKS if c[1] not in skipped]

    def test_non_transitive_system(self, tmp_path, monkeypatch):
        resonant = catalog.make_skew_product(rotation=0.25, allow_resonant=True)
        assert resonant.satisfies_c1 and not resonant.transitive
        monkeypatch.setattr(catalog, "get_system",
                            lambda key: catalog.CatalogEntry(key, resonant))
        skipped = {"qhat_blows_up", "tv_to_uniform", "transitivity", "birkhoff_dispersion"}
        assert self._reported(tmp_path, "skew") == [
            c for c in ALL_CHECKS if c[1] not in skipped]


def traced_layer_metrics():
    """The per-layer metrics BENCHMARK.json declares that the tracer computes
    (bench/worker.py and bench/run.py add the others)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    added = {"trace.layer_coverage", "trace.overhead_s", "trace.untraced_wall_s", "trace.wall_s"}
    return {m["name"] for m in bench["per_layer"]} - added


class TestTracedRun:
    """The benchmark's traced mode: the same output bytes, every per-layer
    metric, and every patched name restored afterwards."""

    def test_traced_fullsuite(self, tmp_path, capsys):
        import eqmeas

        path = _write(tmp_path, "schema_version = 1\nsystem = skew\n" + TINY)
        argv = ["fullsuite", "--config", path, "--check", "--seed", "0", "--out"]
        code = cli.main(argv + [str(tmp_path / "plain")])
        plain_out = capsys.readouterr().out
        spaces = [eqmeas] + [importlib.import_module(f"eqmeas.{m}") for m in TRACER.MODULES]
        before = [dict(vars(ns)) for ns in spaces]
        runners = dict(cli._RUNNERS)
        tracer = TRACER.Tracer()
        tracer.install()
        try:
            assert cli.main(argv + [str(tmp_path / "traced")]) == code
            skew = catalog.get_system("skew").system
            eqmeas.cover_cost(skew, core.zero_potential(), np.array([0.2, 0.7, 0.37]),
                              (-0.1, 0.1), 1.0, 4)
        finally:
            tracer.uninstall()
        assert capsys.readouterr().out == plain_out
        plain, traced = ({f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}
                         for name in ("plain", "traced"))
        assert "summary.json" in plain and len(plain) == 9
        assert traced == plain

        metrics = tracer.per_run()[0]
        assert traced_layer_metrics() <= metrics.keys()
        assert metrics["caratheodory.cover_cost.calls"] == 1
        for ns, old in zip(spaces, before):
            assert all(getattr(ns, attr) is value for attr, value in old.items()), ns
        assert all(cli._RUNNERS[k] is fn for k, fn in runners.items())

    @pytest.mark.parametrize("call", [c for calls in WORKLOADS.WORKLOADS.values() for c in calls],
                             ids=lambda c: c.label)
    def test_traced_benchmark_call(self, tmp_path, capsys, call):
        # each benchmark call at its own config, set up as bench/worker.py sets
        # it up: traced, the same exit code, stdout and output bytes as plain,
        # and every per-layer metric the benchmark declares
        path = tmp_path / "run.ini"
        path.write_text(call.ini())
        catalog.get_system(cli.load_config(str(path))["system"])
        argv = [call.pipeline, "--config", str(path), "--check", "--seed", "0", "--out"]
        code = cli.main(argv + [str(tmp_path / "plain")])
        plain_out = capsys.readouterr().out
        tracer = TRACER.Tracer()
        tracer.install()
        try:
            assert cli.main(argv + [str(tmp_path / "traced")]) == code
        finally:
            tracer.uninstall()
        assert capsys.readouterr().out == plain_out
        plain, traced = ({f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}
                         for name in ("plain", "traced"))
        assert "summary.json" in plain and traced == plain
        assert traced_layer_metrics() <= TRACER.median_metrics(tracer.per_run()).keys()
