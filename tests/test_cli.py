"""CLI parsing, outputs, determinism, and exit-code contracts."""

import hashlib
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from fracplate import cli, fractional_calculus
from fracplate.cli import RunConfig, main, parse_config
from fracplate.fractional_calculus import TimeGrid, default_grading
from fracplate.hidden_regularity import direct_inequality_probe
from fracplate.report import canonical_json
from fracplate.solver import (
    SpectralSolution,
    apriori_estimate_check,
    solve,
    weak_form_residual,
)
from fracplate.spectral_domain import Interval, parse_domain


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParseConfig:
    def test_valid_solve(self):
        cfg = parse_config(
            ["solve", "--alpha", "1.5", "--domain", "interval:pi", "--modes", "8"]
        )
        assert cfg.subcommand == "solve"
        assert cfg.options["alpha"] == 1.5
        assert cfg.options["modes"] == 8

    def test_alpha_outside_range_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["solve", "--alpha", "2.5", "--domain", "interval:pi"])

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"alpha": 1.3, "modes": 4}))
        cfg = parse_config(
            ["--config", str(cfg_file), "solve", "--alpha", "1.7"]
        )
        assert cfg.options["alpha"] == 1.7  # flag wins
        assert cfg.options["modes"] == 4  # file fills the rest

    def test_missing_required_options_rejected(self):
        with pytest.raises(SystemExit, match="missing required options"):
            parse_config(["ml", "--alpha", "1.5"])

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"bogus_key": 1}))
        with pytest.raises(SystemExit, match="bogus_key"):
            parse_config(["--config", str(cfg_file), "solve"])

    def test_canonical_round_trip(self):
        cfg = parse_config(["probe", "--modes", "8,16", "--seed", "7"])
        text = cfg.to_canonical_json()
        decoded = json.loads(text)
        again = RunConfig(decoded["subcommand"], decoded["options"])
        assert again.to_canonical_json() == text


def _config(tmp_path, options):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(options))
    return ["--config", str(path)]


class TestConfigValuesObeyFlagRules:
    @pytest.mark.parametrize(
        "sub,options,name",
        [
            ("report", {"profile": "quik"}, "profile"),
            ("modes", {"count": 2.7}, "count"),
            ("modes", {"count": True}, "count"),
            ("solve", {"modes": "abc"}, "modes"),
            ("solve", {"nodes": [512, 1024]}, "nodes"),
            ("solve", {"alpha": "x"}, "alpha"),
            ("identities", {"nodes": "512,abc"}, "nodes"),
            ("fracops", {"nodes": [512, 2.5]}, "nodes"),
            ("probe", {"modes": ""}, "modes"),
            ("modes", {"domain": "disk:1"}, "domain"),
            ("probe", {"family": "gauss"}, "family"),
        ],
    )
    def test_refused_value_names_the_option(self, sub, options, name, tmp_path):
        with pytest.raises(SystemExit, match=f"{sub} option '{name}'"):
            parse_config(_config(tmp_path, options) + [sub])

    @pytest.mark.parametrize("sub", ["identities", "fracops"])
    def test_nodes_take_a_json_list(self, sub, tmp_path):
        cfg = parse_config(_config(tmp_path, {"nodes": [512, 1024]}) + [sub])
        assert cfg.options["nodes"] == [512, 1024]
        assert parse_config([sub, "--nodes", "512,1024"]).options["nodes"] == [512, 1024]

    def test_probe_modes_take_a_json_list(self, tmp_path):
        cfg = parse_config(_config(tmp_path, {"modes": [8, 16], "seed": "7"}) + ["probe"])
        assert cfg.options["modes"] == [8, 16]
        assert cfg.options["seed"] == 7

    def test_defaults_are_typed(self):
        opt = parse_config(["probe"]).options
        assert opt["modes"] == [16, 32, 64]
        assert isinstance(opt["horizon"], float) and opt["horizon"] == 1.0
        assert opt["family"] == "decay:1.5" and opt["domain"] == "interval:pi"

    def test_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["solve", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--csv-out" in text and "default: 'interval:pi'" in text
        with pytest.raises(SystemExit):
            parse_config(["ml", "--help"])
        assert "required" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["modes", "--domain", "disk:1"],
            ["modes", "--domain", "rectangle:1"],
            ["probe", "--family", "gauss"],
            ["modes", "--count", "2.7"],
            ["report", "--profile", "quik"],
            ["probe", "--family", "decay:nan"],
            ["probe", "--family", "decay:-inf"],
            ["modes", "--domain", "rectangle:infx1"],
            ["solve", "--domain", "interval:inf"],
        ],
    )
    def test_bad_flag_is_an_argparse_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ml", "eval", "--alpha", "1", "--beta", "1", "--z", "1"],
            ["fracops", "power-rule", "--nodes", "64,128"],
        ],
    )
    def test_action_word_is_refused(self, argv, capsys):
        # a subcommand takes options only: a word that changes nothing is
        # not accepted
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="missing.json"):
            main(["solve", "--modes", "2", "--data", str(path)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", [None, "{", "[1, 2]"], ids=["missing", "bad", "list"])
    def test_unusable_config_file(self, text, tmp_path):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit, match="config file"):
            parse_config(["--config", str(path), "modes"])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["modes", "--count", "0"], "--count >= 1"),
            (["solve", "--modes", "0"], "--modes >= 1"),
            (["identities", "--modes", "0"], "--modes >= 1"),
            (["fracops", "--nodes", "0"], "--nodes >= 1"),
            (["identities", "--nodes", "512,0"], "--nodes >= 1"),
            (["probe", "--modes", "8,0"], "--modes >= 1"),
            (["probe", "--time-nodes", "0"], "--time-nodes >= 1"),
            (["probe", "--horizon", "0"], "--horizon > 0"),
            (["solve", "--horizon", "-1"], "--horizon > 0"),
            (["identities", "--horizon", "0"], "--horizon > 0"),
            (["ml", "--alpha", "0", "--beta", "1", "--z", "1"], r"--alpha in \(0, 2\]"),
            (["ml", "--alpha", "2.5", "--beta", "1", "--z", "1"], r"--alpha in \(0, 2\]"),
            (["ml", "--alpha", "1", "--beta", "0", "--z", "1"], "--beta > 0"),
            (["ml", "--alpha", "1", "--beta", "inf", "--z", "1"], "a finite --beta"),
            (["ml", "--alpha", "1", "--beta", "1", "--z=nan"], "a finite --z"),
            (["probe", "--horizon", "inf"], "a finite --horizon"),
            (["identities", "--beta", "1.5"], r"--beta in \(0, 1\)"),
            (["identities", "--beta", "0"], r"--beta in \(0, 1\)"),
            (["fracops", "--beta", "1.5"], r"--beta in \(0, 1\]"),
            (["fracops", "--grading", "0.5"], "--grading >= 1"),
            (["fracops", "--gamma", "-1.5"], "--gamma >= 0"),
            (["fracops", "--gamma", "-0.5"], "--gamma >= 0"),
            (["fracops", "--gamma", "nan"], "a finite --gamma"),
            (["fracops", "--gamma", "200", "--nodes", "64"], "--gamma <= 169"),
            (["fracops", "--gamma", "169.5", "--beta", "1"], "--gamma <= 169"),
            (["modes", "--domain", "interval:1e-300", "--count", "3"],
             "first 3 eigenvalues are finite and positive"),
            (["modes", "--domain", "rectangle:1e-160x1", "--count", "3"],
             "first 3 eigenvalues are finite and positive"),
            (["solve", "--domain", "interval:1e300", "--modes", "2"],
             "first 2 eigenvalues are finite and positive"),
            (["identities", "--domain", "rectangle:1e200x1e200", "--modes", "2"],
             "first 2 eigenvalues are finite and positive"),
            (["probe", "--domain", "interval:1e-80", "--modes", "16,32"],
             "first 32 eigenvalues are finite and positive"),
        ],
    )
    def test_nonpositive_size_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit, match=message):
            main(argv)
        assert capsys.readouterr().out == ""

    def test_range_checks_run_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr(cli, "solve", refuse)
        with pytest.raises(SystemExit, match="512"):
            main(["solve", "--nodes", "511"])
        with pytest.raises(SystemExit, match="eigenvalues"):
            main(["solve", "--domain", "interval:1e300", "--modes", "2"])

    def test_repeated_probe_modes_are_refused_before_any_work(
        self, monkeypatch, tmp_path, capsys
    ):
        # per_N has one entry per N: a repeated N would print a schedule
        # longer than its results
        def refuse(*args, **kwargs):
            raise AssertionError("the probe ran")

        monkeypatch.setattr(cli, "direct_inequality_probe", refuse)
        with pytest.raises(SystemExit, match="distinct --modes"):
            main(["probe", "--modes", "16,16"])
        with pytest.raises(SystemExit, match="distinct --modes"):
            main(_config(tmp_path, {"modes": [16, 32, 16]}) + ["probe"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "sub,runner,argv,config",
        [
            ("fracops", "rl_integral_matrix", ["--nodes", "64,64"],
             {"nodes": [64, 128, 64]}),
            ("identities", "solve",
             ["--modes", "4", "--nodes", "512,512"], {"nodes": [512, 1024, 512]}),
        ],
    )
    def test_repeated_refinement_nodes_are_refused_before_any_work(
        self, sub, runner, argv, config, monkeypatch, tmp_path, capsys
    ):
        # a refinement row repeated would be compared with itself
        def refuse(*args, **kwargs):
            raise AssertionError(f"{sub} ran")

        monkeypatch.setattr(cli, runner, refuse)
        with pytest.raises(SystemExit, match="distinct --nodes"):
            main([sub] + argv)
        with pytest.raises(SystemExit, match="distinct --nodes"):
            main(_config(tmp_path, config) + [sub])
        assert capsys.readouterr().out == ""

    def test_gamma_refusal_runs_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the weights were built")

        monkeypatch.setattr(cli, "rl_integral_matrix", refuse)
        with pytest.raises(SystemExit, match="--gamma <= 169"):
            main(["fracops", "--gamma", "200", "--nodes", "64"])

    def test_largest_gamma_runs(self, capsys):
        # Gamma(171) is the largest the exact value needs, at beta = 1
        code, out = _run(
            ["fracops", "--gamma", "169", "--beta", "1", "--nodes", "64,128"], capsys
        )
        errors = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(errors) == 2 and all(map(math.isfinite, errors))
        assert code == 0


class _Recording(dict):
    """An option map that records the keys a runner reads."""

    def __init__(self, options):
        super().__init__(options)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


_SMALL = {
    "ml": ["--alpha", "1.5", "--beta", "1", "--z", "0"],
    "modes": ["--count", "3"],
    "fracops": ["--nodes", "64,128"],
    "solve": ["--modes", "2"],
    "identities": ["--modes", "2", "--nodes", "64,128"],
    "probe": ["--modes", "4,8", "--members", "2", "--time-nodes", "32"],
    "report": ["--profile", "quick"],
}


@pytest.mark.parametrize("sub", sorted(_SMALL))
def test_every_option_is_read(sub, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda quick, seed: [])
    options = parse_config([sub] + _SMALL[sub]).options
    for name in ("out", "csv_out"):
        if name in options:
            options[name] = str(tmp_path / name)
    recorded = _Recording(options)
    cli.run(RunConfig(sub, recorded))
    assert recorded.read == set(cli._OPTIONS[sub])


def test_readme_examples_parse():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in commands if line.startswith("fracplate ")]
    assert len(examples) >= 7
    for argv in examples:
        assert set(parse_config(argv).options) == set(cli._OPTIONS[argv[0]])


class TestRefines:
    def test_rise_above_round_off_is_refused(self):
        # filtered_identity2 of identities on rectangle:pixpi, 16 modes,
        # 512 to 4096 cells: the first step rises, so the column is refused
        assert not cli._refines([7.93e-08, 1.40e-07, 6.71e-08, 2.34e-08])

    def test_rise_at_round_off_is_accepted(self):
        assert cli._refines([3e-14, 1e-13, 5e-14])
        assert cli._refines([0.0, 1e-13])

    def test_monotone_decay_is_accepted(self):
        assert cli._refines([1e-3, 2.5e-4, 6.3e-5, 1.6e-5])
        assert cli._refines([1e-3, 1e-3])

    def test_non_finite_value_is_refused(self):
        # fracops --gamma -0.5 and nan once printed these and exited 0
        assert not cli._refines([math.inf, math.inf, math.inf])
        assert not cli._refines([math.nan, math.nan])
        assert not cli._refines([1e-3, 2.5e-4, math.nan])
        assert not cli._refines([math.inf])


class TestMLCommand:
    def test_value_at_zero(self, capsys):
        code, out = _run(["ml", "--alpha", "1.5", "--beta", "1", "--z", "0"], capsys)
        assert code == 0
        value, err, method = out.strip().split(",")
        assert abs(float(value) - 1.0) < 1e-12
        assert float(err) < 1e-12
        assert method == "TaylorSeries"

    def test_value_at_one(self, capsys):
        code, out = _run(["ml", "--alpha", "1", "--beta", "1", "--z", "1"], capsys)
        assert code == 0
        assert abs(float(out.split(",")[0]) - math.e) < 1e-12


class TestModesCommand:
    def test_interval_csv(self, capsys):
        code, out = _run(["modes", "--domain", "interval:pi", "--count", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,mu,lambda"
        assert lines[1] == "1,1,1"
        assert lines[2].startswith("2,4,16")

    def test_rectangle_indices(self, capsys):
        code, out = _run(
            ["modes", "--domain", "rectangle:pixpi", "--count", "4"], capsys
        )
        assert code == 0
        assert out.splitlines()[1].startswith("1-1,")

    @pytest.mark.parametrize(
        "domain,count,digest",
        [
            ("rectangle:pixpi", "256",
             "0eebf64c69a90922f09b63eeb288137c166a656abe6c366b0dfc8b76fede0f95"),
            ("rectangle:1.3x0.7", "300",
             "8ef7fc1ba29c36304a47e11ce59847978bd02aacc606c4297bf585b41dd6dd20"),
            ("interval:pi", "1024",
             "69088daf4776413bb9d801d1c976e8ed7fead9fcf8ab466cfa342abd5fb9e9f7"),
        ],
    )
    def test_output_bytes_pinned(self, domain, count, digest, capsys):
        code, out = _run(["modes", "--domain", domain, "--count", count], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFracopsCommand:
    def test_error_column_decreases(self, capsys):
        code, out = _run(
            ["fracops", "--beta", "0.5", "--gamma", "2", "--nodes", "128,256,512"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_refinement_output_bytes_pinned(self, capsys):
        code, out = _run(
            ["fracops", "--beta", "0.5", "--gamma", "2", "--grading", "3",
             "--nodes", "1024,2048,4096"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f57f41356992fb6b6bbbb5c204fe2d7a66da9891ceac00e6d285bd51566163e6"
        )


class TestSolveCommand:
    def test_json_report_with_data_file(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"u0": [1, 0, 0, 0], "u1": [0, 0.5, 0, 0]}))
        out_file = tmp_path / "report.json"
        code, _ = _run(
            ["solve", "--domain", "interval:pi", "--alpha", "1.5", "--modes", "4",
             "--data", str(data), "--horizon", "1.0", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert set(doc["norm_tables"]) == {"u0", "u1"}
        assert doc["truncation_tail"] == {"u0": 0.0, "u1": 0.0}
        assert doc["residuals"]["mode_1_scaled"] < 5e-3
        assert doc["norm_tables"]["u0"]["theta=0.25"] == pytest.approx(1.0)

    def test_csv_norm_sweep(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"u0": [1, 0], "u1": [0, 0]}))
        csv_file = tmp_path / "norms.csv"
        code, _ = _run(
            ["solve", "--domain", "interval:pi", "--alpha", "1.5", "--modes", "2",
             "--data", str(data), "--csv-out", str(csv_file)],
            capsys,
        )
        assert code == 0
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0] == "t,norm_l2,norm_h10,norm_lap,norm_gradlap"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == pytest.approx(1.0)

    def test_rectangle_domain(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _ = _run(
            ["solve", "--domain", "rectangle:pixpi", "--alpha", "1.5",
             "--modes", "6", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        residuals = json.loads(out_file.read_text())["residuals"]
        for n in (1, 2, 3):
            assert 0.0 < residuals[f"mode_{n}_scaled"] < 5e-3

    def test_insufficient_data_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"u0": [1.0], "u1": [0.0]}))
        with pytest.raises(SystemExit):
            _run(
                ["solve", "--domain", "interval:pi", "--alpha", "1.5",
                 "--modes", "4", "--data", str(data)],
                capsys,
            )

    @pytest.mark.parametrize(
        "text",
        [
            '{"u0": [NaN, 0.1, 0.1, 0.1], "u1": [0.0, 0.0, 0.0, 0.0]}',
            '{"u0": [1.0, 0.1, 0.1, 0.1], "u1": [0.0, Infinity, 0.0, 0.0]}',
            '[[1.0, 0.1, 0.1, 0.1], [0.0, 0.0, 0.0, 0.0]]',
            '{"u0": [[1.0, 0.1], [0.1, 0.1]], "u1": [0.0, 0.0, 0.0, 0.0]}',
            '{"u0": ["one", 0.1, 0.1, 0.1], "u1": [0.0, 0.0, 0.0, 0.0]}',
            '{"u0": [1.0, 0.1, 0.1, 0.1], "u1": [0.0, 0.0',
        ],
        ids=["nan", "inf", "list", "nested", "string", "truncated"],
    )
    def test_malformed_data_rejected(self, text, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(text)
        with pytest.raises(SystemExit, match="data.json"):
            _run(["solve", "--modes", "4", "--data", str(data)], capsys)
        assert capsys.readouterr().out == ""

    def test_extra_coefficients_count_toward_the_tail(self, tmp_path, capsys):
        # interval:pi has lam_n = n^4; the tail is sum_{n > 8} of lam_n u0_n^2
        # and of u1_n^2
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"u0": [1.0] * 16, "u1": [0.5] * 16}))
        code, out = _run(["solve", "--modes", "8", "--data", str(data)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["truncation_tail"] == {"u0": 235076.0, "u1": 2.0}
        assert doc["norm_tables"]["u1"]["theta=0.0"] == pytest.approx(math.sqrt(2.0))

    def test_output_bytes_pinned(self, tmp_path, capsys):
        csv_file = tmp_path / "norms.csv"
        code, out = _run(
            ["solve", "--domain", "interval:pi", "--modes", "8", "--nodes", "512",
             "--csv-out", str(csv_file)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f7987e92bb8dd46d32ae5f35e72146eeb88f6beecabf0ae2f04574f8b9b7e80e"
        )
        assert hashlib.sha256(csv_file.read_bytes()).hexdigest() == (
            "5ebbe3bcbf14592a7ad7f8e08ffcb34a59c8caef131d7355359620b19b33c8e5"
        )

    def test_apriori_is_the_library_dict(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"u0": [0.5, -0.2, 0.1], "u1": [0.0, 0.3, 0.0]}))
        code, out = _run(["solve", "--modes", "3", "--data", str(data)], capsys)
        assert code == 0
        s = solve(Interval(math.pi), 3, 1.5, [0.5, -0.2, 0.1], [0.0, 0.3, 0.0], 1.0)
        grid = TimeGrid.graded(1.0, 512, default_grading(1.5))
        C = s.coefficients(grid.nodes)
        assert json.loads(out)["apriori"] == apriori_estimate_check(s, grid, C)

    @pytest.mark.parametrize("nodes", ["100", "300", "511"])
    def test_nodes_below_512_rejected(self, nodes, capsys):
        with pytest.raises(SystemExit, match="512"):
            _run(["solve", "--nodes", nodes], capsys)

    def test_one_caputo_block(self, tmp_path, monkeypatch, capsys):
        calls = []
        inner = fractional_calculus.rl_integral

        def counting(*args, **kwargs):
            calls.append(args[2])  # the order 2 - alpha
            return inner(*args, **kwargs)

        monkeypatch.setattr(fractional_calculus, "rl_integral", counting)
        out_file = tmp_path / "report.json"
        code, _ = _run(["solve", "--modes", "8", "--out", str(out_file)], capsys)
        assert code == 0
        assert len(calls) == 1
        # the weak-form defect against e_1 is read from mode 1's column
        residuals = json.loads(out_file.read_text())["residuals"]
        u0 = np.arange(1, 9, dtype=float) ** -2.0
        s = solve(Interval(math.pi), 8, 1.5, u0, np.zeros(8), 1.0)
        grid = TimeGrid.graded(1.0, 512, default_grading(1.5))
        e1 = np.eye(8)[0]
        assert residuals["weak_form_e1"] == pytest.approx(
            weak_form_residual(s, e1, grid, s.coefficients(grid.nodes)), rel=1e-9
        )


    def test_one_coefficient_table_per_solution(self, tmp_path, monkeypatch, capsys):
        # the residual scales, the Caputo block and apriori share the
        # solution's one table on the grid
        tables = []
        coefficients = SpectralSolution.coefficients

        def counting(self, times):
            tables.append((len(self.modes), len(times)))
            return coefficients(self, times)

        monkeypatch.setattr(SpectralSolution, "coefficients", counting)
        out_file = tmp_path / "report.json"
        code, _ = _run(["solve", "--modes", "8", "--out", str(out_file)], capsys)
        assert code == 0
        assert tables == [(8, 513)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("horizon, code", [("1e-100", 1), ("1e-30", 0)])
    def test_non_finite_residual_fails(self, horizon, code, tmp_path):
        # at T = 1e-100 the Caputo pipeline's grid spacing underflows and
        # every residual is NaN: the document is still written, and the exit
        # code reports it
        out_file = tmp_path / "report.json"
        argv = ["solve", "--horizon", horizon, "--modes", "3", "--nodes", "512",
                "--out", str(out_file)]
        assert main(argv) == code
        residuals = json.loads(out_file.read_text())["residuals"]
        assert len(residuals) == 4
        # the encoder writes a NaN as the string "nan"
        finite = [not isinstance(r, str) and math.isfinite(r)
                  for r in residuals.values()]
        assert finite == [code == 0] * 4


class TestIdentitiesCommand:
    def test_output_bytes_pinned(self, capsys):
        code, out = _run(["identities", "--nodes", "512,1024,2048"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bd2107938fa1d21603681c2eefbec1310a055ae636a3d6cf175f3c487e8db3f8"
        )

    def test_residuals_decrease(self, capsys):
        code, out = _run(
            ["identities", "--beta", "0.25", "--modes", "4",
             "--nodes", "512,1024,2048"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        col1 = [float(r[1]) for r in rows]
        col2 = [float(r[2]) for r in rows]
        assert col1[0] > col1[1] > col1[2]
        assert col2[0] > col2[1] > col2[2]


class TestProbeCommand:
    def test_deterministic_json(self, tmp_path, capsys):
        argv = ["probe", "--domain", "interval:pi", "--alpha", "1.5",
                "--horizon", "1", "--family", "decay:1.5", "--modes", "8,16",
                "--seed", "42", "--members", "3", "--time-nodes", "128"]
        code1, out1 = _run(argv, capsys)
        code2, out2 = _run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        doc = json.loads(out1)
        assert set(doc["per_N"]) == {"8", "16"}

    @pytest.mark.parametrize(
        "domain,digest",
        [
            ("interval:pi",
             "0d8e16d7f4466bd8faa0a93e5df3ef6cc6ade2a1f263de519a47562a01dd7e5f"),
            ("rectangle:pixpi",
             "ca384887cb53248fe9603b24286a3767e8cd8c5193f84f4b688e6a8d3dc6db3a"),
        ],
    )
    def test_output_bytes_pinned(self, domain, digest, capsys):
        code, out = _run(
            ["probe", "--domain", domain, "--modes", "16,32,64", "--members", "3",
             "--time-nodes", "128"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "domain,modes,digest",
        [
            ("rectangle:pixpi", "256,512,1024,2048,4096",
             "addb73d7e1f93a68e9646d0e5bde44fdd728a6817131b1b9eda2807c67ac5a9b"),
            ("interval:pi", "1024,2048,4096,8192",
             "64c8db29fc9c3e8da9c421bc6fc59ccd3aa596ba986f4554cee75850706b7af4"),
        ],
    )
    def test_large_probe_bytes_pinned(self, domain, modes, digest, capsys):
        # most of these kernel tables lie above the staircase, in the far form
        code, out = _run(
            ["probe", "--domain", domain, "--modes", modes, "--alpha", "1.5",
             "--members", "8", "--time-nodes", "512", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("domain", ["interval:pi", "rectangle:pixpi"])
    def test_prints_the_probe_document(self, domain, capsys):
        code, out = _run(
            ["probe", "--domain", domain, "--modes", "8,16,32", "--members", "2",
             "--time-nodes", "64", "--seed", "5"],
            capsys,
        )
        assert code == 0
        probe = direct_inequality_probe(
            parse_domain(domain), 1.5, 1.0, "decay:1.5", [8, 16, 32], seed=5,
            members=2, time_nodes=64,
        )
        assert out == canonical_json(probe) + "\n"

    def test_growth_factors_agree_with_their_max(self, capsys):
        # 16 -> 32 is the schedule's only doubling, though not consecutive
        code, out = _run(
            ["probe", "--modes", "16,24,32", "--time-nodes", "64", "--members", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        growth = doc["growth_factors"]
        assert list(growth) == ["16->32"]
        assert growth["16->32"] == doc["per_N"]["32"]["R"] / doc["per_N"]["16"]["R"]
        assert doc["growth_factor_max"] == growth["16->32"] < 1.0

    def test_single_family_ignores_members(self, capsys):
        outs = []
        for members in ("1", "5"):
            code, out = _run(
                ["probe", "--family", "single-u0", "--modes", "8,16",
                 "--members", members, "--time-nodes", "64"],
                capsys,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["inputs"]["members"] == 16

    @pytest.mark.parametrize("members", ["0", "-2"])
    def test_empty_family_rejected(self, members, capsys):
        with pytest.raises(SystemExit, match="members"):
            _run(["probe", "--modes", "8,16", "--members", members], capsys)


class TestReportCommand:
    def test_quick_report_passes_and_repeats_identically(self, tmp_path):
        # run through a subprocess so the entry point is exercised end to end
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            proc = subprocess.run(
                [sys.executable, "-m", "fracplate.cli", "report",
                 "--profile", "quick", "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=900,
            )
            assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 6

    def test_quick_report_bytes_pinned(self, capsys):
        # criteria 3-5 call the time, spectral and probe layers directly
        code, out = _run(["report", "--profile", "quick"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7d2e85766ea2a3ca4d47562887ae511fb23d96a1b44354fe93eeb50f218a1bd8"
        )

    def test_seed_reaches_criterion_6(self, capsys):
        docs = []
        for seed in ("1", "2"):
            code, out = _run(["report", "--profile", "quick", "--seed", seed], capsys)
            assert code == 0
            docs.append(json.loads(out)["criteria"])
        assert docs[0][:5] == docs[1][:5]
        c6 = [crit[5] for crit in docs]
        assert [c["inputs"]["seed"] for c in c6] == [1, 2]
        assert c6[0]["metrics"]["growth_factor_max"] != c6[1]["metrics"]["growth_factor_max"]


def test_canonical_json_formatting():
    text = canonical_json({"b": 0.1, "a": [1, 2.5, None, True]})
    assert text == '{"a":[1,2.5,null,true],"b":0.10000000000000001}'


class TestExitCodeContract:
    def test_tolerance_failure_is_nonzero(self, monkeypatch, capsys):
        from fracplate import cli
        from fracplate.report import VerificationReport

        failing = VerificationReport(
            name="stub", metrics={"m": 2.0}, tolerances={"m": 1.0}
        )
        failing.evaluate()
        monkeypatch.setattr(cli, "run_all", lambda quick, seed: [failing])
        code, out = _run(["report", "--profile", "quick"], capsys)
        assert code == 1
        assert json.loads(out)["all_passed"] is False
