"""Config parsing, dataset determinism, figure recipes, CLI exit codes."""

import dataclasses
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from latticeccr import (
    ConfigError,
    GaussianPacket,
    LatticeSpec,
    alternating_overlap,
    emit_dataset,
    TimeSeries,
    make_gaussian,
    parse_config,
    run_experiment,
    run_timeseries,
)
from latticeccr import experiments, lattice, spectral
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


def test_emit_dataset_bool_cells(tmp_path):
    # a bool is written true/false in both formats, not as the integer it subclasses
    row, csv_path, json_path = [True, np.bool_(False)], tmp_path / "b.csv", tmp_path / "b.json"
    emit_dataset([row], ["yes", "no"], str(csv_path))
    emit_dataset([row], ["yes", "no"], str(json_path), fmt="json")
    assert csv_path.read_text() == "yes,no\ntrue,false\n"
    (cells,) = json.loads(json_path.read_text())["rows"]
    assert cells == [True, False] and all(type(cell) is bool for cell in cells)


# Every kind of cell: str, bool and np.bool_, int and np.int64, float and np.float64 with
# NaN, +-inf and -0.0; a column mixing int and float; 9.9999999999995, whose 12 digits
# round up to 1.00000000000e+01; 5e-324, the smallest subnormal. The bytes are those of
# the per-cell emitter that json.dumps(indent=2) wrote before cells went column by column.
LITERAL_ROWS = [
    ["even", True, 1, 2, 9.9999999999995],
    ["odd", np.bool_(False), np.int64(-3), 0.5, -0.0],
    ['q"uote', False, 0, np.int64(7), np.float64(np.nan)],
    ["", np.True_, 12345678901234567890, 1e16, np.inf],
    ["z", True, -1, np.float64(2.5e-7), -np.inf],
    ["sub", False, 2, 5e-324, np.float64(-123456.7890123456)],
]
LITERAL_CSV = (
    b"label,flag,n,mixed,x\n"
    b"even,true,1,2,1.00000000000e+01\n"
    b"odd,false,-3,5.00000000000e-01,0.00000000000e+00\n"
    b'q"uote,false,0,7,nan\n'
    b",true,12345678901234567890,1.00000000000e+16,inf\n"
    b"z,true,-1,2.50000000000e-07,-inf\n"
    b"sub,false,2,4.94065645841e-324,-1.23456789012e+05\n"
)
LITERAL_JSON = (
    b'{\n'
    b'  "columns": [\n'
    b'    "label",\n'
    b'    "flag",\n'
    b'    "n",\n'
    b'    "mixed",\n'
    b'    "x"\n'
    b'  ],\n'
    b'  "rows": [\n'
    b'    [\n'
    b'      "even",\n'
    b'      true,\n'
    b'      1,\n'
    b'      2,\n'
    b'      10.0\n'
    b'    ],\n'
    b'    [\n'
    b'      "odd",\n'
    b'      false,\n'
    b'      -3,\n'
    b'      0.5,\n'
    b'      0.0\n'
    b'    ],\n'
    b'    [\n'
    b'      "q\\"uote",\n'
    b'      false,\n'
    b'      0,\n'
    b'      7,\n'
    b'      NaN\n'
    b'    ],\n'
    b'    [\n'
    b'      "",\n'
    b'      true,\n'
    b'      12345678901234567890,\n'
    b'      1e+16,\n'
    b'      Infinity\n'
    b'    ],\n'
    b'    [\n'
    b'      "z",\n'
    b'      true,\n'
    b'      -1,\n'
    b'      2.5e-07,\n'
    b'      -Infinity\n'
    b'    ],\n'
    b'    [\n'
    b'      "sub",\n'
    b'      false,\n'
    b'      2,\n'
    b'      5e-324,\n'
    b'      -123456.789012\n'
    b'    ]\n'
    b'  ]\n'
    b'}\n'
)


def test_emit_dataset_literal_bytes(tmp_path):
    columns = ["label", "flag", "n", "mixed", "x"]
    emit_dataset(LITERAL_ROWS, columns, str(tmp_path / "d.csv"))
    assert (tmp_path / "d.csv").read_bytes() == LITERAL_CSV
    emit_dataset(LITERAL_ROWS, columns, str(tmp_path / "d.json"), fmt="json")
    assert (tmp_path / "d.json").read_bytes() == LITERAL_JSON
    # no rows, and rows without cells
    emit_dataset([], ["a", "b"], str(tmp_path / "e.json"), fmt="json")
    want = b'{\n  "columns": [\n    "a",\n    "b"\n  ],\n  "rows": []\n}\n'
    assert (tmp_path / "e.json").read_bytes() == want
    emit_dataset([[], []], [], str(tmp_path / "z.json"), fmt="json")
    want = b'{\n  "columns": [],\n  "rows": [\n    [],\n    []\n  ]\n}\n'
    assert (tmp_path / "z.json").read_bytes() == want
    emit_dataset([[], []], [], str(tmp_path / "z.csv"))
    assert (tmp_path / "z.csv").read_bytes() == b"\n\n\n"


def test_emit_dataset_json_round_trip(tmp_path):
    path = str(tmp_path / "d.json")
    emit_dataset([[1, 0.5], [2, 0.25]], ["n", "v"], path, fmt="json")
    body = json.load(open(path))
    assert body["columns"] == ["n", "v"]
    assert body["rows"] == [[1, 0.5], [2, 0.25]]


def per_cell_json(value) -> str:
    """A float cell's JSON text as the per-cell emitter wrote it: the shortest text of its
    12-digit rounding, repr(float("%.11e" % v)), negative zero as zero and NaN and inf
    spelt as json spells them."""
    text = repr(float("%.11e" % (float(value) + 0.0)))
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


def test_json_float_cells_match_the_per_cell_repr():
    # one "%.12g" pass with its fix-ups gives the per-cell text, byte for byte: random bit
    # patterns (NaN payloads included), subnormals, +-0, NaN and +-inf, every power of 2
    # and of 10 with its nextafter neighbours, and the 12-digit rounding boundaries
    # 9.99999999999500 * 10^k, where %g's exponent steps
    rng = np.random.default_rng(25)
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64)
    subnormal = rng.integers(1, 2**52, 2_000, dtype=np.uint64)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    edges = 9.999999999995 * 10.0 ** np.arange(-323, 308)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308])
    values = np.concatenate([bits.view(np.float64), subnormal.view(np.float64), special])
    values = np.concatenate([values, -values])
    for base in (powers, edges):
        near = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)])
        values = np.concatenate([values, near, -near])
    values = values.tolist()
    conversion, texts = experiments._converted(values, "float", "json")
    assert conversion == "%s"
    want = [per_cell_json(v) for v in values]
    bad = [(v, got, ref) for v, got, ref in zip(values, texts, want) if got != ref]
    assert not bad, bad[:5]


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


def test_fig3_reduces_its_centers_once(tmp_path, monkeypatch):
    # the ladder statistics read the site centers fig3 picks its Wannier-Stark state by
    calls, centers = [], spectral._centers

    def counting(vecs, weights):
        calls.append(vecs.shape)
        return centers(vecs, weights)

    for module in (experiments, spectral):
        monkeypatch.setattr(module, "_centers", counting)
    cfg = parse_config('{"experiment": "fig3", "lattice": {"M": 60}}')
    run_experiment(cfg, out_dir=str(tmp_path))
    assert calls == [(121, 121)]


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


@pytest.mark.parametrize("figure", ["fig4", "fig5"])
def test_packets_propagate_together_bit_for_bit(figure):
    # each eigenbasis's default packets, propagated together, give the TimeSeries and the
    # warnings of run_timeseries on each packet in turn, each with its own models
    plan = experiments._plan(figure, parse_config(json.dumps({"experiment": figure})).params)
    tgrid = np.arange(plan.points) * plan.params["time"]["dt"]
    leak = plan.params["tolerances"]["leak_warn"], plan.params["tolerances"]["leak_fail"]
    packets = [packet for _, packet in plan.packets]
    groups = [packets] if figure == "fig4" else [packets[:-1], packets[-1:]]  # fig5: nn last
    compared = 0
    for (_, hop, pot), group in zip(plan.solves, groups, strict=True):
        sr = experiments._solve(plan, hop, pot)
        with warnings.catch_warnings(record=True) as alone_warned:
            warnings.simplefilter("always")
            alone = [run_timeseries(plan.spec, hop, pot, [p], tgrid, sr, *leak)[0] for p in group]
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            runs = run_timeseries(plan.spec, hop, pot, group, tgrid, sr, *leak)
        assert [str(w.message) for w in warned] == [str(w.message) for w in alone_warned]
        compared += len(warned)
        for i, (got, want) in enumerate(zip(runs, alone, strict=True)):
            assert got.x_ccr is not None  # fig4's and fig5's potentials have a CCR model
            for field in dataclasses.fields(TimeSeries):
                value, expected = getattr(got, field.name), getattr(want, field.name)
                if expected is None:
                    assert value is None, (i, field.name)
                else:
                    assert np.array_equal(value, expected), (i, field.name)
    assert compared > 0  # the default runs warn of their boundary amplitudes


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
        ("spectrum", ["potential.kind=constant", "potential.V0=1e308", "lattice.M=5"], "potential.V0"),
        ("spectrum", ["lattice.a=1e-154", "lattice.M=5"], "lattice.a"),
        ("spectrum", ["potential.F=0.9"], "potential.F"),
        ("dynamics", ["potential.kind=linear", "potential.values=[1]"], "potential.values"),
        ("spectrum", ["hopping.t0=5"], "hopping.t0"),
        ("sweep", ["hopping.kind=cosine", "hopping.t_n=[1,2]"], "hopping.t_n"),
        ("spectrum", ["lattice=3", "lattice.M=4"], "lattice.M"),
        ("spectrum", ["output.path=3"], "output.path"),
        ("fig4", ["output.path="], "output.path"),
        ("fig4", ["output.path=."], "output.path"),
        ("fig4", ["output.path=.."], "output.path"),
        ("fig4", ["output.path=sub/"], "output.path"),
        ("sweep", ["lattice.a=2"], "lattice.a"),
        ("fig1", ["lattice.a=1e-300"], "lattice.a"),
        ("sweep", ["grid.points=1000000000000"], "grid.points"),
        ("dynamics", ["time.dt=1e-9"], "time.dt"),
        ("spectrum", ["lattice.M=1000000"], "lattice.M"),
        ("ccr-check", ["lattice.M=1000000"], "lattice.M"),
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
        "potential.V0-diagonal-overflow",
        "lattice.a-diagonal-overflow",
        "potential.F-unread",
        "potential.values-unread",
        "hopping.t0-unread",
        "hopping.t_n-unread",
        "set-through-non-object",
        "output.path-not-string",
        "output.path-empty",
        "output.path-dot",
        "output.path-dot-dot",
        "output.path-directory",
        "sweep-lattice.a",
        "fig1-lattice.a",
        "grid.points-memory",
        "time.dt-memory",
        "lattice.M-memory",
        "ccr-check-work",
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


def test_ccr_check_runs_a_full_support_packet(tmp_path, capsys):
    # a packet centred 10 sites from the edge of M = 100, with amplitude far above 1e-12
    # beyond the default rows |m| <= 75: the defect is -i (-1)^m S for a state of any support,
    # so the run reports it, and every ratio is S
    assert main(["ccr-check", "--out", str(tmp_path), "--set", "packet.n0=90"]) == 0
    rows = np.genfromtxt(tmp_path / "ccr-check.csv", delimiter=",", names=True)
    spec = LatticeSpec(100, 1.0)
    psi = make_gaussian(spec, GaussianPacket(90, 50.0))
    assert np.abs(psi.amplitudes[~spec.interior_sites(25)]).max() > 0.5
    assert np.array_equal(rows["m"], np.arange(-75, 76))
    overlap = alternating_overlap(psi)
    ratio = rows["ratio_re"] + 1j * rows["ratio_im"]
    assert np.abs(ratio - overlap).max() <= 1e-12


def test_ccr_check_work_limit_refuses_before_building_the_window():
    # ccr-check holds no N x N matrix, so the size rule would pass M = 10^6; the limit on
    # the convolution's N (4M + 1) products refuses it from O(1) objects
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"'lattice.M': ccr-check's 8.00e\+12 complex products"):
            parse_config('{"experiment": "ccr-check", "lattice": {"M": 1000000}}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the largest window under the limit parses
    parse_config('{"experiment": "ccr-check", "lattice": {"M": 11179}}')
    with pytest.raises(ConfigError, match="'lattice.M'"):
        parse_config('{"experiment": "ccr-check", "lattice": {"M": 11180}}')


def test_fig3_lobes_keep_the_first_index_tie_rule(tmp_path, monkeypatch):
    # an even state whose largest |v| ties at m = 0 and m = -5 has its lobe at |m| = 5, the
    # first largest entry of the full vector (m = -M first), so it matches target_site -5
    # ahead of a state with its lobe at |m| = 3; its column is embedded with v_m = v_-m
    half = np.zeros((41, 2), order="F")
    half[[0, 5], 0] = 0.5
    half[3, 1] = 1.0
    even = (np.array([4, 7]), np.zeros(2), half)
    monkeypatch.setattr(experiments, "_even_states", lambda ham, tol: even)
    cfg = parse_config('{"experiment": "fig3", "lattice": {"M": 40}, "target_site": -5}')
    _, rows, manifest = run_experiment(cfg, out_dir=str(tmp_path))
    assert manifest.derived["harmonic_state_index"] == 4
    assert [row[2] for row in rows] == [*half[::-1, 0], *half[1:, 0]]


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
        ("fig2", ["tolerances.eigensolve=1e-30"]),
        ("fig3", ["tolerances.eigensolve=1e-30"]),
    ],
    ids=["spectrum", "sweep", "fig1", "dynamics", "fig2", "fig3"],
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
    manifest = json.loads((tmp_path / "dynamics_manifest.json").read_text())
    assert "bloch_period" not in manifest["derived"]  # free motion has none


def test_cli_linear_run_reports_bloch_period(tmp_path, capsys):
    a, force = 2.0, -0.3
    args = ["--set", "potential.kind=linear", "--set", f"potential.F={force}"]
    args += ["--set", "hopping.kind=cosine", "--set", f"lattice.a={a}", "--set", "lattice.M=64"]
    assert main(["dynamics", "--out", str(tmp_path), *args]) == 0
    manifest = json.loads((tmp_path / "dynamics_manifest.json").read_text())
    assert manifest["derived"]["bloch_period"] == 2 * np.pi / (a * abs(force))


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


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
def test_parse_checks_every_hamiltonian_the_run_solves(experiment, tmp_path, monkeypatch):
    # every (hopping, potential) pair a run builds had its diagonal range-checked while
    # parsing, fig1's and fig5's nearest-neighbour Hamiltonians included
    checked, solved = set(), set()

    def recording(seen, build):
        def wrapped(spec, hop, pot):
            seen.add((hop, pot))
            return build(spec, hop, pot)

        return wrapped

    diagonal = recording(checked, lattice._hamiltonian_diagonal)
    monkeypatch.setattr(experiments, "_hamiltonian_diagonal", diagonal)
    cfg = parse_config(json.dumps({"experiment": experiment}))
    monkeypatch.setattr(experiments, "_hamiltonian_diagonal", lattice._hamiltonian_diagonal)
    for module in (experiments, spectral):  # spectral's binding serves harmonic_sweep
        monkeypatch.setattr(module, "build_hamiltonian", recording(solved, lattice.build_hamiltonian))
    run_experiment(cfg, out_dir=str(tmp_path))
    assert solved or experiment == "ccr-check"
    assert solved <= checked, solved - checked


def _schema_reads(schema, params, prefix=""):
    """Dotted paths of the schema's leaves, less those another block kind reads."""
    paths = set()
    for key, entry in schema.items():
        if isinstance(entry, dict):
            paths |= _schema_reads(entry, params[key], f"{prefix}{key}.")
        elif entry[2:] in ((), (params.get("kind"),)):
            paths.add(prefix + key)
    return paths


class _Recording(dict):
    """A params tree that adds the dotted path of every leaf read from it to seen."""

    def __init__(self, tree, seen, prefix=""):
        super().__init__(tree)
        self.seen, self.prefix = seen, prefix

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if isinstance(value, dict):
            return _Recording(value, self.seen, f"{self.prefix}{key}.")
        self.seen.add(self.prefix + key)
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


SMALL = {"lattice": {"M": 5}}
# every experiment at its defaults, and spectrum with each kind of its blocks
RUNS = pytest.mark.parametrize(
    "experiment, blocks",
    [
        *[(name, {}) for name in experiments.EXPERIMENTS],
        ("spectrum", {**SMALL, "potential": {"kind": "constant", "V0": 0.5}}),
        ("spectrum", {**SMALL, "potential": {"kind": "linear"}}),
        ("spectrum", {**SMALL, "potential": {"kind": "custom", "values": [0.1] * 11}}),
        ("spectrum", {**SMALL, "hopping": {"kind": "cosine"}}),
        ("spectrum", {**SMALL, "hopping": {"kind": "custom", "t0": 0.5, "t_n": [1.0, 0.2]}}),
    ],
    ids=[
        *experiments.EXPERIMENTS,
        "spectrum-constant",
        "spectrum-linear",
        "spectrum-custom-potential",
        "spectrum-cosine",
        "spectrum-custom-hopping",
    ],
)


@RUNS
def test_every_runner_reads_exactly_its_schema(experiment, blocks):
    # a schema key the run never reads would be accepted and echoed as if used; a run
    # reads its keys while its plan is built and while the runner executes the plan;
    # output.* is read by run_experiment, not by either
    cfg = parse_config(json.dumps({"experiment": experiment, **blocks}))
    seen = set()
    experiments._RUNNERS[experiment](experiments._plan(experiment, _Recording(cfg.params, seen)))
    schema = experiments._SCHEMAS[experiment]
    expected = {path for path in _schema_reads(schema, cfg.params) if path.split(".")[0] != "output"}
    assert seen == expected


@RUNS
def test_size_rule_bound_is_at_most_the_measured_peak(experiment, blocks, tmp_path):
    # the size rule refuses only runs that cannot fit: its bound on the bytes a run
    # holds at once stays at or below the peak that tracemalloc measures in the run
    cfg = parse_config(json.dumps({"experiment": experiment, **blocks}))
    need, _ = experiments._size(experiments._plan(experiment, cfg.params))
    tracemalloc.start()
    try:
        run_experiment(cfg, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < need <= peak


def test_size_rule_counts_the_matrices_of_ccr_check(tmp_path):
    # ccr_defect convolves a 1-D kernel with the state and holds no N x N matrix, so none is
    # counted: at M = 400 the bound (the dataset's cells) stays at or below the traced peak,
    # and the peak below a quarter of one N x N float64 matrix (0.33 of 5.1 MB measured)
    cfg = parse_config('{"experiment": "ccr-check", "lattice": {"M": 400}}')
    plan = experiments._plan("ccr-check", cfg.params)
    need, keys = experiments._size(plan)
    tracemalloc.start()
    try:
        run_experiment(cfg, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = plan.spec.n_sites
    assert plan.dense == 0 and keys == ("lattice.M",)
    assert 0 < need <= peak < 2 * n * n


def test_size_rule_refuses_before_building_the_window():
    # 2 * 10^6 + 1 sites: refused from the plan's O(1) objects, before any O(N) check
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="'lattice.M': the run would hold at least"):
            parse_config('{"experiment": "spectrum", "lattice": {"M": 1000000}}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cli_output_path_stays_inside_out(tmp_path, capsys):
    # an absolute output.path, or one that leaves --out, is refused while parsing, and
    # nothing but the failure manifest is written
    inside = tmp_path / "inside"
    for path in (tmp_path / "abs.csv", "../esc.csv", "sub/../../esc.csv"):
        args = ["spectrum", "--out", str(inside), "--set", "lattice.M=3"]
        assert main([*args, "--set", f"output.path={path}"]) == 2
        assert "'output.path'" in capsys.readouterr().err
        assert json.loads((inside / "spectrum_manifest.json").read_text())["config"] is None
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["inside", "spectrum_manifest.json"]


def test_cli_output_path_follows_output_format(tmp_path, capsys):
    # the default dataset takes the format's suffix, and a .csv or .json path that
    # contradicts output.format is refused while parsing, naming output.path
    args = ["spectrum", "--out", str(tmp_path), "--set", "lattice.M=3"]
    assert main([*args, "--set", "output.format=json"]) == 0
    assert json.loads((tmp_path / "spectrum.json").read_text())["columns"][0] == "n"
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["config"]["output"] == {"format": "json", "path": "spectrum.json"}
    for path, fmt in (("s.csv", "json"), ("s.json", "csv"), ("s.JSON", "csv")):
        assert main([*args, "--set", f"output.path={path}", "--set", f"output.format={fmt}"]) == 2
        assert "'output.path'" in capsys.readouterr().err
    # a run refused while parsing leaves the parsed run's manifest in place
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["config"]["output"] == {"format": "json", "path": "spectrum.json"}
    assert manifest["error"] is None
    assert main([*args, "--set", "output.path=s.dat", "--set", "output.format=json"]) == 0
    assert json.loads((tmp_path / "s.dat").read_text())["columns"][0] == "n"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["s.dat", "s_manifest.json", "spectrum.json", "spectrum_manifest.json"]


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
    # a config file is read as parse_config reads a config, with its wording
    cfg_path = tmp_path / "broken.json"
    for text, reason in [
        ('{"lattice": {"M": 15,}}', "config syntax error at line 1, column 22: "),
        ('{"n_cut": ' + "9" * 5000 + "}", "config value error: "),
        ("[1]", "config must be a JSON object"),
    ]:
        cfg_path.write_text(text)
        assert main(["fig2", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"config error: {reason}" in capsys.readouterr().err
    assert main(["fig2", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2


def test_cli_failed_run_manifest_started_when_the_run_started(tmp_path, capsys, monkeypatch):
    # the manifest of a run that fails after it starts is the one made at its start
    stamps = iter(f"2026-01-01T00:00:0{i}Z" for i in range(10))
    monkeypatch.setattr(experiments, "_utc_now", lambda: next(stamps))
    args = ["dynamics", "--out", str(tmp_path), "--set", "lattice.M=24", "--set", "packet.b=0.005"]
    assert main(args) == 4
    manifest = json.loads((tmp_path / "dynamics_manifest.json").read_text())
    assert manifest["timestamp"]["started_utc"] == "2026-01-01T00:00:00Z"
    assert manifest["timestamp"]["wall_time_s"] >= 0
    assert manifest["warnings"][0].startswith("initial packet has boundary amplitude")
    assert manifest["config"]["packet"]["b"] == 0.005
    assert manifest["error"]["exit_code"] == 4


def test_fig3_ladder_error_names_its_keys(tmp_path, capsys):
    # the number of interior ladder states is known only once the spectrum is solved
    args = ["fig3", "--out", str(tmp_path), "--set", "lattice.M=3", "--set", "target_site=0"]
    assert main([*args, "--set", "F=1000"]) == 2
    assert "config keys 'lattice.M' and 'F'" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "fig3_manifest.json").read_text())
    assert manifest["error"]["exit_code"] == 2
    assert manifest["config"]["F"] == 1000.0
    assert manifest["config"]["lattice"]["M"] == 3


def test_cli_dataset_in_a_new_subdirectory(tmp_path, capsys):
    args = ["spectrum", "--out", str(tmp_path), "--set", "lattice.M=5"]
    assert main([*args, "--set", "output.path=sub/x.csv"]) == 0
    assert (tmp_path / "sub" / "x.csv").exists()
    manifest = json.loads((tmp_path / "sub" / "x_manifest.json").read_text())
    assert manifest["dataset"] == "sub/x.csv"
