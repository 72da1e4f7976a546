import json
import os

import pytest

from geodlab import cli
from geodlab import fuchsian as fu
from geodlab import jacobi as ja


@pytest.fixture()
def workdir(tmp_path):
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    out.mkdir()
    cache.mkdir()
    return out, cache


# the values each command reads, beside the paths --config, --out, --cache-dir
READS = {"spectrum": {"radius"}, "count": {"radius", "t", "epsilon"},
         "density": {"radius"}, "mme": {"radius", "samples", "seed", "box"},
         "cube": {"radius", "t", "samples", "seed", "box"},
         "rank": {"seed"}, "verify-all": {"seed"}}


@pytest.fixture()
def no_work(monkeypatch):
    """Make any ball, table or rank suite fail: checks must come first."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the configuration was checked")

    for mod, name in ((fu, "enumerate_ball"), (fu, "build_spectrum"),
                      (ja, "rank_suite")):
        monkeypatch.setattr(mod, name, fail)


def run(args):
    return cli.main([str(a) for a in args])


def spectrum_args(out, cache, radius="6.5"):
    return ["spectrum", "--radius", radius, "--out", out,
            "--cache-dir", cache]


class TestConfig:
    def test_config_file_values(self, tmp_path, workdir):
        out, cache = workdir
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("radius = 6.5   # spectrum cutoff\n"
                        "t = 5.0, 6.0\n"
                        "seed = 3\n")
        rc = run(["count", "--config", cfgf, "--epsilon", "0.5",
                  "--out", out, "--cache-dir", cache])
        assert rc == 0
        rep = json.loads((out / "count_report.json").read_text())
        assert [row[0] for row in rep["cumulative"]] == [5.0, 6.0]

    def test_flags_override_file(self, tmp_path, workdir):
        out, cache = workdir
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("radius = 10.0\n")
        rc = run(spectrum_args(out, cache) + ["--config", cfgf])
        assert rc == 0
        rep = json.loads((out / "spectrum_report.json").read_text())
        assert rep["cutoff"] == 6.5

    def test_malformed_line_is_config_error(self, tmp_path, workdir):
        out, cache = workdir
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("radius 6.5\n")
        assert run(["spectrum", "--config", cfgf, "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG

    def test_unknown_key_is_config_error(self, tmp_path, workdir):
        out, cache = workdir
        cfgf = tmp_path / "run.cfg"
        for line in ("cutoff = 6.5\n", "tolerance_profile = quick\n"):
            cfgf.write_text(line)
            assert run(["spectrum", "--config", cfgf, "--out", out,
                        "--cache-dir", cache]) == cli.EXIT_CONFIG

    def test_missing_config_file(self, workdir):
        out, cache = workdir
        assert run(["spectrum", "--config", out / "absent.cfg",
                    "--out", out, "--cache-dir", cache]) == cli.EXIT_CONFIG

    def test_invalid_values_rejected(self, workdir, capsys):
        out, cache = workdir
        assert run(["spectrum", "--radius", "-1", "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG
        assert run(["count", "--radius", "6.5", "--t", "8.0",
                    "--epsilon", "0.5", "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG
        assert run(["mme", "--box", "0.1,0.2,0.3", "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG
        # an empty t grid, from a flag or from the config file
        for cmd in ("count", "cube"):
            assert run([cmd, "--t", ",", "--radius", "6.5", "--out", out,
                        "--cache-dir", cache]) == cli.EXIT_CONFIG
        cfgf = out / "empty_t.cfg"
        cfgf.write_text("t =\n")
        assert run(["count", "--config", cfgf, "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG
        # there is one surface, so no --surface flag
        for name in ("foo", "bolza"):
            assert run(["spectrum", "--surface", name, "--out", out,
                        "--cache-dir", cache]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err.strip().splitlines()
            assert "--surface" in json.loads(err[-1])["message"]
        # non-finite and non-numeric values, from a flag or from the file
        assert run(["spectrum", "--radius", "nan", "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG
        assert run(["count", "--radius", "6.5", "--t", "5.0", "--epsilon",
                    "nan", "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG
        for cmd, line in (("spectrum", "radius = abc"),
                          ("spectrum", "samples = 1e5"),
                          ("cube", "box = 0,0,0,nan,0.5")):
            cfgf.write_text(f"radius = 6.5\nt = 6.0\n{line}\n")
            assert run([cmd, "--config", cfgf, "--out", out,
                        "--cache-dir", cache]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1])["error"] == "config"

    @pytest.mark.parametrize("cmd", ["cube", "mme"])
    @pytest.mark.parametrize("box", ["0,0,0,-1,0.5", "0,0,0,0.3,4"],
                             ids=["radius", "halfwidth"])
    def test_out_of_range_box_is_config_error(self, cmd, box, workdir,
                                              no_work):
        # the box is checked with the rest of the configuration, before
        # any ball is enumerated or table built
        out, cache = workdir
        t = ["--t", "6.0"] if cmd == "cube" else []
        assert run([cmd, "--radius", "6.5", *t, "--box", box,
                    "--out", out, "--cache-dir", cache]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("cmd,flag", [
        (cmd, flag) for cmd, reads in READS.items() for flag in
        ("radius", "t", "epsilon", "samples", "seed", "box")
        if flag not in reads])
    def test_unread_flag_is_config_error(self, cmd, flag, workdir, no_work,
                                         capsys):
        # a flag the command would ignore is rejected before any work
        value = {"radius": "6.5", "t": "6.0", "epsilon": "0.5",
                 "samples": "20000", "seed": "1", "box": "0,0,0,0.3,0.5"}
        out, cache = workdir
        assert run([cmd, f"--{flag}", value[flag], "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and f"--{flag}" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--radius", "abc"], ["spectrum", "--radius"],
        ["spectrum", "--bogus", "1"], ["bogus"], []])
    def test_usage_error_is_json_config_error(self, argv, capsys):
        assert run(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "config"
        assert captured.out == ""

    def test_cube_reads_one_t(self, workdir, no_work):
        out, cache = workdir
        for t in ("6,8", "5,6,6.5"):
            assert run(["cube", "--radius", "6.5", "--t", t, "--out", out,
                        "--cache-dir", cache]) == cli.EXIT_CONFIG

    def test_mme_writes_its_report(self, workdir):
        out, cache = workdir
        rc = run(["mme", "--samples", "20000", "--out", out,
                  "--cache-dir", cache])
        rep = json.loads((out / "mme_report.json").read_text())
        assert isinstance(rep["passed"], bool)
        assert rc == (0 if rep["passed"] else cli.EXIT_ACCEPTANCE)

    def test_cache_env_variable(self, workdir, monkeypatch):
        out, cache = workdir
        monkeypatch.setenv(cli.CACHE_ENV, str(cache))
        rc = run(["spectrum", "--radius", "6.5", "--out", out])
        assert rc == 0
        assert any(f.startswith("spectrum_") for f in os.listdir(cache))


class TestSpectrumCache:
    def test_miss_then_hit_same_hash(self, workdir):
        out, cache = workdir
        assert run(spectrum_args(out, cache)) == 0
        first = json.loads((out / "spectrum_report.json").read_text())
        assert first["cache_hit"] is False
        assert run(spectrum_args(out, cache)) == 0
        second = json.loads((out / "spectrum_report.json").read_text())
        assert second["cache_hit"] is True
        assert second["csv_sha256"] == first["csv_sha256"]
        assert second["classes"] == first["classes"]

    def test_corrupted_entry_is_rebuilt(self, workdir):
        out, cache = workdir
        assert run(spectrum_args(out, cache)) == 0
        rep = json.loads((out / "spectrum_report.json").read_text())
        with open(rep["csv"], "a") as f:
            f.write("tampered\n")
        assert run(spectrum_args(out, cache)) == 0
        rep2 = json.loads((out / "spectrum_report.json").read_text())
        assert rep2["cache_hit"] is False
        assert rep2["csv_sha256"] == rep["csv_sha256"]  # rebuilt identically
        # sidecar matches the rebuilt file again
        with open(rep2["csv"] + ".sha256") as f:
            assert f.read().strip() == rep2["csv_sha256"]

    def test_stale_lock_and_truncated_csv_are_rebuilt(self, workdir):
        out, cache = workdir
        assert run(spectrum_args(out, cache)) == 0
        rep = json.loads((out / "spectrum_report.json").read_text())
        with open(rep["csv"], "r+") as f:
            f.truncate(100)
        with open(rep["csv"] + ".lock", "w"):
            pass
        assert run(spectrum_args(out, cache)) == 0
        rep2 = json.loads((out / "spectrum_report.json").read_text())
        assert rep2["cache_hit"] is False
        assert rep2["csv_sha256"] == rep["csv_sha256"]

    def test_meta_with_other_parameters_is_rebuilt(self, workdir):
        out, cache = workdir
        assert run(spectrum_args(out, cache)) == 0
        rep = json.loads((out / "spectrum_report.json").read_text())
        meta_path = rep["csv"].replace(".csv", ".json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta["margin"] = meta["margin"] + 1.0
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        assert run(spectrum_args(out, cache)) == 0
        rep2 = json.loads((out / "spectrum_report.json").read_text())
        assert rep2["cache_hit"] is False
        assert rep2["csv"] == rep["csv"]
        with open(meta_path) as f:
            assert json.load(f)["margin"] == fu.SPECTRUM_MARGIN

    def test_no_temporary_files_remain(self, workdir):
        out, cache = workdir
        assert run(spectrum_args(out, cache)) == 0
        rep = json.loads((out / "spectrum_report.json").read_text())
        name = os.path.basename(rep["csv"])
        assert sorted(os.listdir(cache)) == sorted(
            [name, name + ".sha256", name.replace(".csv", ".json")])

    def test_loaded_table_matches_built(self, workdir):
        out, cache = workdir
        assert run(spectrum_args(out, cache)) == 0
        rep = json.loads((out / "spectrum_report.json").read_text())
        table = fu.SpectrumTable.load(rep["csv"],
                                      rep["csv"].replace(".csv", ".json"))
        assert len(table.classes) == rep["classes"]
        assert abs(table.systole() - rep["systole"]) < 1e-12


    def test_radius_below_the_systole_gives_an_empty_table(self, workdir,
                                                           capsys):
        # no class is shorter than the systole 3.06; JSON has no Infinity
        def strict(name):
            raise ValueError(f"{name} in a JSON report")

        out, cache = workdir
        for hit in (False, True):
            assert run(spectrum_args(out, cache, radius="2")) == 0
            printed = json.loads(capsys.readouterr().out,
                                 parse_constant=strict)
            rep = json.loads((out / "spectrum_report.json").read_text(),
                             parse_constant=strict)
            assert rep == printed
            assert rep["cache_hit"] is hit
            assert rep["classes"] == 0 and rep["systole"] is None


class TestCount:
    def test_csv_outputs(self, workdir):
        import csv

        out, cache = workdir
        rc = run(["count", "--radius", "6.5", "--t", "5.0,6.0",
                  "--epsilon", "0.5", "--out", out, "--cache-dir", cache])
        assert rc == 0
        with open(out / "count_cumulative.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "P_t", "predicted", "ratio"]
        assert len(rows) == 3
        with open(out / "count_window.csv", newline="") as f:
            wrows = list(csv.reader(f))
        assert wrows[0] == ["t", "P_t_eps", "predicted", "ratio"]
        # the cumulative counts are integers observed from the table
        assert float(rows[1][1]).is_integer()

    def test_byte_identical_reruns(self, workdir):
        out, cache = workdir
        args = ["count", "--radius", "6.5", "--t", "5.0,6.0",
                "--epsilon", "0.5", "--out", out, "--cache-dir", cache]
        assert run(args) == 0
        blobs = {n: (out / n).read_bytes()
                 for n in ("count_report.json", "count_cumulative.csv",
                           "count_window.csv")}
        assert run(args) == 0
        for n, blob in blobs.items():
            assert (out / n).read_bytes() == blob

    def test_slope_without_two_counts_is_null(self, workdir):
        # P_t = 0 below the systole (3.06); JSON has no NaN
        def no_nan(name):
            raise ValueError(f"{name} in a JSON report")

        out, cache = workdir
        for grid, finite in (("1,2,6", False), ("6", False), ("1,5,6", True)):
            assert run(["count", "--radius", "6.5", "--t", grid, "--out", out,
                        "--cache-dir", cache]) == 0
            rep = json.loads((out / "count_report.json").read_text(),
                             parse_constant=no_nan)
            assert (rep["empirical_slope"] is not None) == finite


class TestExitCodes:
    def test_numerical_failure_is_exit_3(self, workdir):
        out, cache = workdir
        # equivariance ball at radius - 2 is empty: numerical degeneracy
        assert run(["density", "--radius", "5", "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_NUMERIC

    def test_domain_failure_is_exit_1(self, workdir):
        out, cache = workdir
        # no closed geodesics below t = 1: a domain (acceptance) error
        assert run(["cube", "--radius", "6.5", "--t", "1.0",
                    "--samples", "5000", "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_ACCEPTANCE

    @pytest.mark.parametrize("cmd,radius", [
        ("spectrum", "15"), ("count", "15"), ("density", "17"),
        ("mme", "17"), ("cube", "16")])
    def test_radius_beyond_the_hard_cap_is_config_error(self, cmd, radius,
                                                        workdir, capsys):
        # the hard cap is a range check on the configuration, and its
        # message names the radius given
        out, cache = workdir
        assert run([cmd, "--radius", radius, "--out", out,
                    "--cache-dir", cache]) == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert f"R = {float(radius)} exceeds" in err["message"]

    def test_default_t_grid_fits_the_default_radius(self, workdir):
        out, cache = workdir
        assert run(["count", "--out", out, "--cache-dir", cache]) == 0
        assert run(["cube", "--samples", "20000", "--out", out,
                    "--cache-dir", cache]) == 0
        # cube's t defaults to the largest t of the default grid
        assert json.loads((out / "cube_report.json").read_text())["t"] == 9.0

    def test_passing_command_is_exit_0(self, workdir):
        out, cache = workdir
        assert run(["density", "--radius", "7", "--out", out,
                    "--cache-dir", cache]) == 0
        rep = json.loads((out / "density_report.json").read_text())
        assert rep["transformation"]["passed"] is True


class TestCube:
    def test_report_fields(self, workdir):
        out, cache = workdir
        rc = run(["cube", "--radius", "6.5", "--t", "6.0",
                  "--samples", "20000", "--seed", "2", "--out", out,
                  "--cache-dir", cache])
        assert rc == 0
        rep = json.loads((out / "cube_report.json").read_text())
        assert rep["t"] == 6.0
        assert 0.0 < rep["mu_t_box1"] < 1.0
        assert rep["mixing_target"] > 0.0
        assert set(rep["box1"]) == {"x", "y", "theta", "position_radius",
                                    "angle_halfwidth"}

    def test_box_flag_sets_box1(self, workdir):
        out, cache = workdir
        rc = run(["cube", "--radius", "6.5", "--t", "6.0", "--samples", "20000",
                  "--box", "0.1,-0.05,0.3,0.4,0.6", "--out", out,
                  "--cache-dir", cache])
        assert rc == 0
        rep = json.loads((out / "cube_report.json").read_text())
        assert rep["box1"] == {"x": 0.1, "y": -0.05, "theta": 0.3,
                               "position_radius": 0.4, "angle_halfwidth": 0.6}

    def test_cold_and_warm_reports_identical(self, workdir):
        # a cached table equals a cold build, so the report does not
        # depend on the state of the cache
        out, cache = workdir
        args = ["cube", "--radius", "6.5", "--t", "6.0", "--samples", "20000",
                "--out", out, "--cache-dir", cache]
        assert run(args) == 0
        cold = (out / "cube_report.json").read_bytes()
        assert run(args) == 0
        assert (out / "cube_report.json").read_bytes() == cold
