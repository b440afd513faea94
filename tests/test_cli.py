"""Config validation, pipeline runs, output files, exit codes."""

import json

import pytest

from eqmeas import cli


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

    def test_bad_jobs_exits_1(self, tmp_path):
        path = _write(tmp_path, BASE)
        assert cli.main(["press", "--config", path, "--jobs", "0"]) == 1

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

    def test_jobs_do_not_change_output(self, tmp_path):
        path = _write(tmp_path, BASE)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["press", "--config", path, "--out", str(a)]) == 0
        assert cli.main(["press", "--config", path, "--out", str(b),
                         "--jobs", "4"]) == 0
        assert (a / "press.csv").read_text() == (b / "press.csv").read_text()

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
