"""Config parsing, dataset determinism, figure recipes, CLI exit codes."""

import json
import os

import numpy as np
import pytest

from latticeccr import ConfigError, emit_dataset, parse_config, run_experiment
from latticeccr.cli import main


def test_minimal_fig4_defaults():
    cfg = parse_config('{"experiment": "fig4"}')
    assert cfg.experiment == "fig4"
    assert cfg.params["lattice"]["a"] == 1.0
    assert cfg.params["F"] == 0.4
    assert cfg.params["b"] == [0.2, 0.02]
    assert cfg.params["time"]["dt"] == pytest.approx(0.125)
    assert cfg.params["time"]["t_max"] == pytest.approx(2 * 2 * np.pi / 0.4)
    assert cfg.params["output"]["path"] == "fig4.csv"


def test_negative_spacing_names_key():
    with pytest.raises(ConfigError, match="lattice.a"):
        parse_config('{"experiment": "spectrum", "lattice": {"a": -1.0}}')


def test_unknown_keys_rejected_with_name():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config('{"experiment": "fig1", "bogus": 3}')
    with pytest.raises(ConfigError, match="lattice.bogus"):
        parse_config('{"experiment": "fig1", "lattice": {"bogus": 3}}')


def test_syntax_error_reports_position():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{invalid json}")


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config('{"experiment": "fig9"}')
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("{}")


def test_fig1_default_grid():
    cfg = parse_config('{"experiment": "fig1", "c": 0.01}')
    assert cfg.params["c"] == 0.01
    assert cfg.params["grid"] == {"x_min": 0.1, "x_max": 3.0, "points": 25}


def test_grid_sanity_check():
    with pytest.raises(ConfigError, match="x_max"):
        parse_config('{"experiment": "sweep", "grid": {"x_min": 2.0, "x_max": 1.0}}')


def test_config_round_trip():
    for text in (
        '{"experiment": "fig4"}',
        '{"experiment": "fig5", "c": 0.04}',
        '{"experiment": "dynamics", "potential": {"kind": "harmonic", "c": 0.02}}',
        '{"experiment": "ccr-check", "packet": {"n0": 3}}',
    ):
        cfg = parse_config(text)
        assert parse_config(json.dumps({"experiment": cfg.experiment, **cfg.params})) == cfg


def test_emit_dataset_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_dataset([], ["alpha", "beta"], path)
    assert open(path, "rb").read() == b"alpha,beta\n"


def test_emit_dataset_row_shape_check(tmp_path):
    with pytest.raises(ValueError):
        emit_dataset([[1, 2, 3]], ["a", "b"], str(tmp_path / "x.csv"))


def test_emit_dataset_formatting(tmp_path):
    path = str(tmp_path / "fmt.csv")
    emit_dataset([[1, -0.0, np.pi, "even"]], ["i", "z", "x", "p"], path)
    line = open(path).read().splitlines()[1]
    assert line == "1,0.00000000000e+00,3.14159265359e+00,even"


def test_emit_dataset_json_round_trip(tmp_path):
    path = str(tmp_path / "d.json")
    emit_dataset([[1, 0.5], [2, 0.25]], ["n", "v"], path, fmt="json")
    body = json.load(open(path))
    assert body["columns"] == ["n", "v"]
    assert body["rows"] == [[1, 0.5], [2, 0.25]]


def test_ccr_check_run_reports_delta_defect(tmp_path):
    cfg = parse_config('{"experiment": "ccr-check", "lattice": {"M": 40}}')
    columns, rows, manifest = run_experiment(cfg, out_dir=str(tmp_path))
    assert manifest.derived["s_abs"] == pytest.approx(1.0, abs=1e-10)
    assert manifest.derived["max_defect"] == pytest.approx(1.0, abs=1e-10)
    assert manifest.derived["truncation_tail"] < 1e-12
    assert columns == ["m", "defect_re", "defect_im", "ratio_re", "ratio_im"]
    assert os.path.exists(tmp_path / "ccr-check.csv")
    assert os.path.exists(tmp_path / "ccr-check_manifest.json")


def test_dataset_determinism(tmp_path):
    cfg = parse_config('{"experiment": "spectrum", "lattice": {"M": 25}}')
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir(), dir_b.mkdir()
    run_experiment(cfg, out_dir=str(dir_a))
    run_experiment(cfg, out_dir=str(dir_b))
    assert (dir_a / "spectrum.csv").read_bytes() == (dir_b / "spectrum.csv").read_bytes()
    man_a = json.loads((dir_a / "spectrum_manifest.json").read_text())
    man_b = json.loads((dir_b / "spectrum_manifest.json").read_text())
    man_a.pop("timestamp"), man_b.pop("timestamp")
    assert man_a == man_b


def test_fig2_three_series(tmp_path):
    cfg = parse_config('{"experiment": "fig2", "lattice": {"M": 60}, "n_cut": 20}')
    columns, rows, _ = run_experiment(cfg, out_dir=str(tmp_path))
    assert columns == ["c", "n", "s_n"]
    assert sorted({row[0] for row in rows}) == [0.01, 0.1, 1.0]


def test_fig3_state_near_target(tmp_path):
    cfg = parse_config('{"experiment": "fig3", "lattice": {"M": 60}}')
    columns, rows, manifest = run_experiment(cfg, out_dir=str(tmp_path))
    assert columns == ["m", "ws_amp_sqrt2", "harmonic_amp"]
    assert abs(manifest.derived["ws_center"] - (-41)) < 1.0
    assert manifest.derived["ladder_mean_spacing"] == pytest.approx(0.4, abs=1e-6)
    assert len(rows) == 121
    lobe = max(rows, key=lambda row: abs(row[2]))[0]
    assert abs(abs(lobe) - 41) <= 1


def test_fig4_schema_and_oracle(tmp_path):
    cfg = parse_config(
        '{"experiment": "fig4", "lattice": {"M": 160}, '
        '"time": {"t_max": 16.0}, "tolerances": {"leak_fail": 1e-5}}'
    )
    columns, rows, manifest = run_experiment(cfg, out_dir=str(tmp_path))
    assert columns == [
        "t",
        "x_mean_b0.2",
        "x_mean_b0.02",
        "x_ccr",
        "x_exact",
        "s_abs_b0.2",
        "s_abs_b0.02",
    ]
    data = np.array(rows, dtype=float)
    assert np.abs(data[:, 2] - data[:, 4]).max() < 1e-6  # propagation vs oracle
    assert manifest.derived["bloch_period"] == pytest.approx(15.70796, abs=1e-5)


def test_fig5_schema(tmp_path):
    cfg = parse_config(
        '{"experiment": "fig5", "lattice": {"M": 96}, "n0": [10, 20], "nn_n0": 10, '
        '"time": {"t_max": 30.0}, "tolerances": {"leak_fail": 1e-4}}'
    )
    columns, rows, manifest = run_experiment(cfg, out_dir=str(tmp_path))
    assert columns == ["t", "sqrt_c_t", "x_mean_n10", "x_mean_n20", "x_ccr_n10", "x_mean_nn10"]
    assert manifest.derived["threshold_estimate"] == pytest.approx(30.0)
    first = np.array(rows[0], dtype=float)
    assert first[2] == pytest.approx(-10.0, abs=1e-6)
    assert first[3] == pytest.approx(-20.0, abs=1e-6)


def test_cli_spectrum_and_overrides(tmp_path, capsys):
    code = main(["spectrum", "--out", str(tmp_path), "--set", "lattice.M=20"])
    assert code == 0
    header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
    assert header == "n,energy,parity,s_n,center"
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["config"]["lattice"]["M"] == 20
    assert manifest["error"] is None


@pytest.mark.parametrize(
    "experiment, assignments, key",
    [
        ("spectrum", ["lattice.M=-3"], "lattice.M"),
        ("dynamics", ["potential.kind=linear", "potential.F=NaN"], "potential.F"),
        ("dynamics", ["potential.c=Infinity"], "potential.c"),
        ("sweep", ["c=Infinity"], "c"),
        ("spectrum", ["potential.c=1" + "0" * 400], "potential.c"),
        ("fig1", ["nn_pair=[-1,2]"], "nn_pair"),
        ("fig4", ["b=[0.2]"], "oracle_b"),
        ("spectrum", ["tolerances.leak_fail=1e-3"], "tolerances.leak_fail"),
        ("spectrum", ["experiment=ccr-check"], "experiment"),
    ],
    ids=[
        "lattice.M",
        "potential.F-nan",
        "potential.c-inf",
        "c-inf",
        "potential.c-int-overflow",
        "nn_pair",
        "oracle_b",
        "tolerances.leak_fail",
        "experiment",
    ],
)
def test_cli_config_error_exit_code(experiment, assignments, key, tmp_path, capsys):
    overrides = [arg for assignment in assignments for arg in ("--set", assignment)]
    code = main([experiment, "--out", str(tmp_path), *overrides])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    manifest = json.loads((tmp_path / f"{experiment}_manifest.json").read_text())
    assert manifest["error"]["exit_code"] == 2


@pytest.mark.parametrize(
    "experiment, assignments",
    [
        ("spectrum", ["hopping.kind=cosine", "lattice.a=1e-200", "lattice.M=3"]),
        ("dynamics", ["hopping.kind=cosine", "lattice.a=1e-170", "lattice.M=24"]),
        ("spectrum", ["lattice.a=1e200", "lattice.M=3"]),
        ("spectrum", ["lattice.a=1e-200", "lattice.M=3"]),
    ],
    ids=["cosine-tiny", "cosine-dynamics", "quadratic-huge", "quadratic-tiny"],
)
def test_cli_extreme_spacing_exit_code(experiment, assignments, tmp_path, capsys):
    # a^2 or 1/a^2 under- or overflows: a clean exit 2, not an arithmetic traceback
    overrides = [arg for assignment in assignments for arg in ("--set", assignment)]
    assert main([experiment, "--out", str(tmp_path), *overrides]) == 2
    assert "spacing" in capsys.readouterr().err
    manifest = json.loads((tmp_path / f"{experiment}_manifest.json").read_text())
    assert manifest["error"]["exit_code"] == 2
    assert "spacing" in manifest["error"]["reason"]


def test_cli_unknown_key_exit_code(tmp_path, capsys):
    assert main(["fig1", "--out", str(tmp_path), "--set", "nope=1"]) == 2


@pytest.mark.parametrize(
    "experiment, assignments",
    [
        ("spectrum", ["lattice.M=20", "tolerances.eigensolve=1e-18"]),
        ("sweep", ["tolerances.eigensolve=1e-30"]),
        ("fig1", ["tolerances.eigensolve=1e-30"]),
        ("dynamics", ["tolerances.eigensolve=1e-30"]),
    ],
    ids=["spectrum", "sweep", "fig1", "dynamics"],
)
def test_cli_tolerance_exit_code(experiment, assignments, tmp_path, capsys):
    overrides = [arg for assignment in assignments for arg in ("--set", assignment)]
    assert main([experiment, "--out", str(tmp_path), *overrides]) == 3


def test_cli_leakage_exit_code(tmp_path, capsys):
    code = main(
        [
            "dynamics",
            "--out",
            str(tmp_path),
            "--set",
            "lattice.M=24",
            "--set",
            "packet.b=0.005",
        ]
    )
    assert code == 4
    manifest = json.loads((tmp_path / "dynamics_manifest.json").read_text())
    assert manifest["error"]["exit_code"] == 4
    # the warning raised before the failure survives it
    raised = "initial packet has boundary amplitude"
    assert any(w.startswith(raised) for w in manifest["warnings"])
    assert f"warning: {raised}" in capsys.readouterr().err


def test_cli_free_cosine_run(tmp_path, capsys):
    args = ["--set", "potential.kind=linear", "--set", "potential.F=0", "--set", "hopping.kind=cosine"]
    assert main(["dynamics", "--out", str(tmp_path), *args]) == 0
    data = np.genfromtxt(tmp_path / "dynamics.csv", delimiter=",", names=True)
    assert np.all(np.isfinite(data["x_exact"]))
    assert np.array_equal(data["x_exact"], data["x_ccr"])


def test_cli_failure_manifest_beside_configured_dataset(tmp_path, capsys):
    args = ["dynamics", "--out", str(tmp_path), "--set", "output.path=foo.csv"]
    assert main(args) == 0
    assert main([*args, "--set", "lattice.M=24", "--set", "packet.b=0.005"]) == 4
    manifest = json.loads((tmp_path / "foo_manifest.json").read_text())
    assert manifest["error"]["exit_code"] == 4
    assert manifest["config"]["lattice"]["M"] == 24
    assert manifest["config"]["output"]["path"] == "foo.csv"
    assert manifest["config"]["time"]["dt"] == pytest.approx(1.0)
    assert not (tmp_path / "dynamics_manifest.json").exists()


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3", "fig4", "fig5", "dynamics", "ccr-check"])
def test_every_figure_runs_on_defaults(figure, tmp_path, capsys):
    assert main([figure, "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"{figure}.csv").exists()
    manifest = json.loads((tmp_path / f"{figure}_manifest.json").read_text())
    assert manifest["error"] is None


def test_cli_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"lattice": {"M": 15}, "n_cut": 10}')
    code = main(["fig2", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fig2.csv").exists()


def test_cli_bad_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{]")
    assert main(["fig2", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert main(["fig2", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
