"""Config parsing, dataset determinism, figure recipes, CLI exit codes."""

import json
import os

import numpy as np
import pytest

from latticeccr import (
    ConfigError,
    GaussianPacket,
    LatticeSpec,
    ccr_defect,
    emit_dataset,
    make_gaussian,
    parse_config,
    run_experiment,
)
from latticeccr import experiments
from latticeccr.cli import main
from latticeccr.experiments import _time_points


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


def test_time_grid_matches_arange_bit_for_bit():
    # the integer grid k * dt against the float-stepped arange it replaced, on
    # random pairs and on t_max = n * dt, where the 1e-12 slack decides the length
    rng = np.random.default_rng(11)
    dts = 10.0 ** rng.uniform(-4, 1, 2000)
    counts = np.round(10.0 ** rng.uniform(0, 3.5, 2000))
    t_maxs = np.where(np.arange(2000) % 2, counts * dts, counts * dts * rng.uniform(0.5, 1.5, 2000))
    for t_max, dt in zip(t_maxs.tolist(), dts.tolist()):
        ref = np.arange(0.0, t_max + 1e-12, dt)
        points = _time_points({"t_max": t_max, "dt": dt})
        assert np.array_equal(np.arange(int(points)) * dt, ref)


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
        ("spectrum", ["potential.c=1e305"], "potential.c"),
        ("dynamics", ["potential.kind=linear", "potential.F=1e305"], "potential.F"),
        ("fig3", ["c=1e305"], "c"),
        ("fig2", ["c_values=[0.01,1e305]"], "c_values"),
        ("sweep", ["grid.x_max=1e200"], "grid.x_max"),
        ("fig1", ["grid.x_min=1e-200"], "grid.x_min"),
        ("spectrum", ["lattice.M=1000000000000"], "lattice.M"),
        ("fig4", ["lattice.a=1e-200", "F=1e-200"], "lattice.a"),
        ("fig4", ["lattice.a=1e-150", "F=1e-200"], "F"),
        ("dynamics", ["potential.kind=linear", "potential.F=1e-320"], "potential.F"),
        ("dynamics", ["time.dt=1e-300"], "time.dt"),
        ("fig5", ["time.t_max=1e300"], "time.t_max"),
        ("ccr-check", ["margin=500"], "margin"),
        ("ccr-check", ["lattice.M=3"], "lattice.M"),
        ("ccr-check", ["packet.n0=90"], "packet.n0"),
        ("ccr-check", ["packet.n0=100"], "packet.n0"),
        ("dynamics", ["packet.n0=200"], "packet.n0"),
        ("fig4", ["n0=400"], "n0"),
        ("fig5", ["n0=[20,300]"], "n0"),
        ("fig5", ["nn_n0=300"], "nn_n0"),
        ("spectrum", ["potential.kind=custom", "potential.values=[1,2]"], "potential.values"),
        ("sweep", ["hopping.kind=custom", "hopping.t_n=[1,2,3,4,5]", "lattice.M=2"], "hopping.t_n"),
        ("fig1", ["nn_pair=[1,500]"], "nn_pair"),
        ("sweep", ["grid.points=10000000000000000000"], "grid.points"),
        ("dynamics", ["packet.k0=1e308", "lattice.a=10", "lattice.M=40", "packet.n0=0", "packet.b=5"], "packet.k0"),
        ("ccr-check", ["packet.k0=1e308", "lattice.a=10", "lattice.M=40", "packet.n0=0", "packet.b=5"], "packet.k0"),
        ("fig3", ["target_site=-1000", "lattice.M=40"], "target_site"),
        ("fig4", ["b=[0.2,0.2000001]", "oracle_b=0.2"], "b"),
        ("fig5", ["n0=[20,20]", "lattice.M=80"], "n0"),
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
        "potential.c-overflow",
        "potential.F-time-grid",
        "fig3-c-overflow",
        "c_values-overflow",
        "grid.x_max-spacing",
        "grid.x_min-spacing",
        "lattice.M-too-large",
        "fig4-spacing",
        "fig4-force-underflow",
        "potential.F-period-overflow",
        "time.dt-grid",
        "time.t_max-grid",
        "margin-too-large",
        "default-margin-zero",
        "ccr-check-support",
        "ccr-check-center",
        "dynamics-center",
        "fig4-center",
        "fig5-center",
        "fig5-nn-center",
        "potential.values-length",
        "hopping.t_n-range",
        "nn_pair-past-window",
        "grid.points-too-many",
        "dynamics-kick-overflow",
        "ccr-check-kick-overflow",
        "fig3-target-site",
        "fig4-b-column-tags",
        "fig5-n0-column-tags",
    ],
)
def test_cli_config_error_exit_code(experiment, assignments, key, tmp_path, capsys):
    overrides = [arg for assignment in assignments for arg in ("--set", assignment)]
    code = main([experiment, "--out", str(tmp_path), *overrides])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    manifest = json.loads((tmp_path / f"{experiment}_manifest.json").read_text())
    assert manifest["error"]["exit_code"] == 2
    assert manifest["config"] is None  # refused while parsing, before anything is built


def test_kick_check_matches_make_gaussian():
    # k0 a M reaches the float range between these two kicks; parsing accepts exactly
    # the kicks make_gaussian turns into finite amplitudes
    spec = LatticeSpec(40, 10.0)
    for k0 in (4.4e305, 4.5e305, 1e308):
        cfg = {"experiment": "dynamics", "lattice": {"M": 40, "a": 10.0}}
        try:
            parse_config(json.dumps({**cfg, "packet": {"n0": 0, "b": 5.0, "k0": k0}}))
            parsed = True
        except ConfigError:
            parsed = False
        with np.errstate(all="ignore"):
            try:
                make_gaussian(spec, GaussianPacket(0, 5.0, k0))
                finite = True
            except ValueError:
                finite = False
        assert parsed == finite == (k0 < 4.5e305), k0


@pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB for an array"])
def test_cli_memory_error_exit_code(message, tmp_path, capsys, monkeypatch):
    def exhausted(params):
        raise MemoryError(message)

    monkeypatch.setitem(experiments._RUNNERS, "sweep", exhausted)
    assert main(["sweep", "--out", str(tmp_path)]) == 2
    assert "out of memory" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert manifest["error"]["exit_code"] == 2
    assert manifest["error"]["reason"].startswith("out of memory")
    assert message in manifest["error"]["reason"]
    assert manifest["config"]["experiment"] == "sweep"


def test_ccr_check_support_check_matches_ccr_defect():
    # the parse-time support check accepts exactly the packets ccr_defect accepts
    for half, margin, b, k0 in [(8, None, 0.05, 0.0), (40, 10, 0.5, 1.3), (101, 5, 5.0, -0.4)]:
        spec = LatticeSpec(half, 1.0)
        for n0 in range(-half + 1, half):
            packet = {"n0": n0, "b": b, "k0": k0}
            cfg = {"experiment": "ccr-check", "lattice": {"M": half}, "packet": packet}
            try:
                parse_config(json.dumps({**cfg, "margin": margin}))
                parsed = True
            except ConfigError:
                parsed = False
            try:
                ccr_defect(make_gaussian(spec, GaussianPacket(n0, b, k0)), spec, margin)
                measured = True
            except ValueError:
                measured = False
            assert parsed == measured, (half, margin, b, n0)


def test_sweep_manifest_lists_every_spacing(tmp_path, capsys):
    # a 3-site window has 3 states per point, fewer than states_per_point = 20
    args = ["sweep", "--out", str(tmp_path), "--set", "lattice.M=1", "--set", "grid.points=5"]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert manifest["derived"]["a_values"] == (np.linspace(0.1, 3.0, 5) / 0.01**0.25).tolist()
    rows = np.genfromtxt(tmp_path / "sweep.csv", delimiter=",", names=True)
    assert len(rows) == 5 * 3


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
