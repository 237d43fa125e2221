import argparse
import json
import math
import os

import pytest

from laplace_series import ExpansionSpec, Problem, default_spec, default_window, disk, slit
from laplace_series.cli import (
    ConfigError,
    _load_config,
    OutputPaths,
    StreamlineRequest,
    emit_svg,
    main,
    parse_problem_config,
    polylines_csv,
)
from laplace_series.field import Polyline

MINIMAL = """
{
  "components": [
    {"kind": "disk", "center": [3, 1], "radius": 1.0}
  ]
}
"""

DISK1 = """
{
  "domain": "exterior",
  "source": [0, 0],
  "components": [
    {"kind": "disk", "center": [3, 1], "radius": 1.0, "value": 0.0}
  ],
  "degree": 12,
  "levels": [-0.6, -0.4, -0.2],
  "streamlines": {"count": 8, "eps": 0.01},
  "outputs": {"report": "report.json", "csv": "field.csv", "svg": "field.svg"},
  "eval": [[2, 0]]
}
"""


def test_minimal_config_defaults():
    cfg = parse_problem_config(MINIMAL)
    assert len(cfg.problem.components) == 1
    assert cfg.problem.source == 0j  # exterior defaults to a source at the origin
    assert cfg.spec.degrees == (10,)
    assert cfg.npts == (80,)
    assert cfg.spec.scaled
    assert cfg.outputs.report == "report.json"


def test_unknown_key_is_named():
    bad = MINIMAL.replace('"radius"', '"radiusss"')
    with pytest.raises(ConfigError, match="radiusss"):
        parse_problem_config(bad)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="degreee"):
        parse_problem_config('{"components": [], "degreee": 3}')


def test_overlapping_disks_name_both_components():
    cfg = """
    {"components": [
        {"kind": "disk", "center": [2, 0], "radius": 1.0},
        {"kind": "disk", "center": [3, 0], "radius": 1.0}
    ]}
    """
    with pytest.raises(ConfigError, match=r"components\[0\] and components\[1\]"):
        parse_problem_config(cfg)


def test_invalid_json_points_at_location():
    with pytest.raises(ConfigError, match="line"):
        parse_problem_config("{nope}")


def test_bad_field_types():
    with pytest.raises(ConfigError, match="radius"):
        parse_problem_config('{"components": [{"kind": "disk", "center": [0,0], "radius": -2}]}')
    with pytest.raises(ConfigError, match="center"):
        parse_problem_config('{"components": [{"kind": "disk", "center": [0], "radius": 1}]}')
    with pytest.raises(ConfigError, match="halfspan"):
        parse_problem_config('{"components": [{"kind": "slit", "center": [0,0]}]}')


def test_full_config_is_parsed():
    # Every key of DISK1 lands in its field; the ones it leaves out take
    # their defaults.
    cfg = parse_problem_config(DISK1)
    assert cfg.problem == Problem((disk(3 + 1j, 1.0),), "exterior", 0j, (0.0,))
    assert cfg.spec == ExpansionSpec(degrees=(12,), scaled=True)
    assert cfg.npts == (96,)
    assert cfg.window == default_window(cfg.problem)
    assert cfg.levels == (-0.6, -0.4, -0.2)
    assert cfg.streamlines == StreamlineRequest(count=8, eps=0.01)
    assert cfg.outputs == OutputPaths("report.json", "field.csv", "field.svg")
    assert cfg.eval_points == (2 + 0j,)


def test_slit_config_is_parsed():
    text = """
    {"source": null,
     "components": [{"kind": "slit", "center": [0, 0], "halfspan": [1, -0.5], "value": 2.0}],
     "degree": [6]}
    """
    cfg = parse_problem_config(text)
    assert cfg.problem.source is None
    assert cfg.problem.boundary_data == (2.0,)
    assert cfg.problem.components == (slit(0j, 1 - 0.5j),)
    assert cfg.spec.degrees == (6,) and cfg.npts == (48,)
    assert cfg.levels is None and cfg.eval_points == ()


def test_explicit_keys_are_parsed():
    # The keys that neither config above sets: a role, per-component npts,
    # scaled, window, null outputs and a streamline request without eps.
    text = """
    {"domain": "bounded", "source": [0.5, 0.25],
     "components": [
        {"kind": "disk", "center": [0, 0], "radius": 4.0, "value": 1.5, "role": "outer"},
        {"kind": "slit", "center": [1, 1], "halfspan": [0, 0.5], "role": "inner"}
     ],
     "degree": 3, "npts": [40, 24], "scaled": false, "window": [-5, 5, -4, 4],
     "streamlines": {"count": 0}, "outputs": {"report": null, "csv": null, "svg": "f.svg"}}
    """
    cfg = parse_problem_config(text)
    assert cfg.problem == Problem(
        (disk(0j, 4.0, role="outer"), slit(1 + 1j, 0.5j)), "bounded", 0.5 + 0.25j, (1.5, 0.0)
    )
    assert cfg.spec == ExpansionSpec(degrees=(3, 3), scaled=False)
    assert cfg.npts == (40, 24)
    assert cfg.window == (-5.0, 5.0, -4.0, 4.0)
    assert cfg.streamlines == StreamlineRequest(count=0, eps=None)
    assert cfg.outputs == OutputPaths(None, None, "f.svg")


def test_cli_solve_writes_outputs(tmp_path):
    cfg_path = tmp_path / "disk1.json"
    cfg_path.write_text(DISK1)
    assert main(["solve", "--config", str(cfg_path), "-o", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    u2 = report["eval"][0]["u"]
    assert abs(u2 - (-0.5893274981708)) / 0.5893274981708 <= 1e-9
    assert abs(report["measures_total"] - 1.0) < 1e-9
    csv_text = (tmp_path / "field.csv").read_text()
    assert csv_text.startswith("kind,level_or_seed,x,y\n")
    assert "\n\n" in csv_text  # blank-line-separated polyline blocks
    assert (tmp_path / "field.svg").read_text().startswith("<svg")


def test_cli_report_lists_each_streamline(tmp_path):
    # solve traces a fan, so report.json says how each line ended; eval
    # traces none and writes the solve summary alone, as build_report does.
    cfg_path = tmp_path / "disk1.json"
    cfg_path.write_text(DISK1)
    assert main(["solve", "--config", str(cfg_path), "-o", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    lines = report["streamlines"]
    assert [line["seed_angle"] for line in lines] == [
        float(f"{2 * math.pi * k / 8:.12e}") for k in range(8)
    ]
    blocks = (tmp_path / "field.csv").read_text().split("\n", 1)[1].split("\n\n")
    fan_blocks = [b for b in blocks if b.startswith("streamline,")]
    assert len(fan_blocks) == 8
    for line, block in zip(lines, fan_blocks):
        assert set(line) == {"seed_angle", "termination", "component_index", "stagnated",
                             "accepted_steps", "rejected_steps"}
        hit = line["termination"] == "hit_boundary"
        assert hit or line["termination"] == "left_window"
        assert line["component_index"] == (0 if hit else None)
        assert line["stagnated"] is False
        assert line["accepted_steps"] == len(block.strip().splitlines()) - 1 > 0
        assert isinstance(line["rejected_steps"], int) and line["rejected_steps"] >= 0
    assert main(["eval", "--config", str(cfg_path), "-o", str(tmp_path)]) == 0
    assert "streamlines" not in json.loads((tmp_path / "report.json").read_text())


def test_cli_outputs_deterministic(tmp_path):
    cfg_path = tmp_path / "disk1.json"
    cfg_path.write_text(DISK1)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert main(["solve", "--config", str(cfg_path), "-o", str(a)]) == 0
    assert main(["solve", "--config", str(cfg_path), "-o", str(b)]) == 0
    for name in ("report.json", "field.csv", "field.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_eval_only(tmp_path, capsys):
    cfg_path = tmp_path / "disk1.json"
    cfg_path.write_text(DISK1)
    assert main(["eval", "--config", str(cfg_path), "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "u(2, 0)" in out
    assert "-0.589327498" in out


def test_cli_degree_override(tmp_path):
    cfg_path = tmp_path / "disk1.json"
    cfg_path.write_text(DISK1)
    assert main(["solve", "--config", str(cfg_path), "-o", str(tmp_path), "--degree", "4"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["fit"]["degrees"] == [4]
    u2 = report["eval"][0]["u"]
    assert abs(u2 - (-0.5893274981708)) < 1e-3


ANNULUS = """
{
  "domain": "bounded",
  "components": [
    {"kind": "disk", "center": [0, 0], "radius": 2.0, "role": "outer", "value": 0.0},
    {"kind": "disk", "center": [0.5, 0], "radius": 0.5, "value": 1.0}
  ],
  "degree": DEGREE
}
"""


def test_bounded_degree_follows_default_spec(tmp_path):
    # An integer degree, from the file or from --degree, means what
    # default_spec means by it: that degree for every block, the outer one too.
    cfg = parse_problem_config(ANNULUS.replace("DEGREE", "6"))
    assert cfg.spec == default_spec(cfg.problem, 6)
    assert cfg.spec.degrees == (6, 6)
    path = tmp_path / "annulus.json"
    path.write_text(ANNULUS.replace("DEGREE", "3"))
    args = argparse.Namespace(config=str(path), degree=6, npts=None, no_scale=False)
    assert _load_config(args).spec == default_spec(cfg.problem, 6)


def test_bounded_degree_list_keeps_the_report_format(tmp_path):
    # The list gives each component's own degree, the outer circle's first
    # here; report.json lists the outer degree apart, with 0 in its place.
    text = ANNULUS.replace("DEGREE", "[7, 5]")
    cfg = parse_problem_config(text)
    assert cfg.spec.degrees == (7, 5) and cfg.npts == (56, 40)
    path = tmp_path / "annulus.json"
    path.write_text(text)
    assert main(["solve", "--config", str(path), "-o", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["fit"]["degrees"] == [0, 5] and report["fit"]["outer_degree"] == 7
    assert report["fit"]["cols"] == 2 + 2 * 5 + 2 * 7
    assert [len(c) for c in report["coefficients"]["cos"]] == [5]
    assert len(report["coefficients"]["outer_cos"]) == 7


def test_cli_cantor_subcommand(tmp_path):
    assert main(["cantor", "-m", "3", "-o", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "cantor_m3.json").read_text())
    want = [0.253289, 0.111676, 0.066706, 0.068329]
    assert all(abs(a - b) < 1e-6 for a, b in zip(doc["measures"], want))
    assert main(["cantor", "-m", "3", "--symmetry", "-o", str(tmp_path)]) == 0
    doc_sym = json.loads((tmp_path / "cantor_m3.json").read_text())
    assert all(abs(a - b) < 1e-8 for a, b in zip(doc["measures"], doc_sym["measures"]))


def test_cli_cantor_level_beyond_the_general_path_names_the_flag(tmp_path, capsys):
    assert main(["cantor", "-m", "11", "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "--symmetry" in err and "use_symmetry" not in err
    assert main(["cantor", "-m", "13", "--symmetry", "-o", str(tmp_path)]) == 1
    assert "level must be in 1..12" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"components": [{"kind": "disk", "center": [0,0], "radiusss": 1}]}')
    assert main(["solve", "--config", str(cfg_path)]) == 1
    assert "radiusss" in capsys.readouterr().err


def test_output_paths_must_be_strings_or_null(tmp_path, capsys):
    cfg = json.loads(DISK1)
    cfg["outputs"] = {"report": 5}
    with pytest.raises(ConfigError, match=r"outputs\.report"):
        parse_problem_config(json.dumps(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path), "-o", str(tmp_path)]) == 1
    assert "error: outputs.report" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]
    cfg["outputs"] = {"report": None, "csv": "lines.csv"}
    assert parse_problem_config(json.dumps(cfg)).outputs == OutputPaths(None, "lines.csv", None)


BAD_NUMBERS = {
    "value-nan": ('"value": 0.0', '"value": NaN', r"components\[0\]\.value"),
    "value-bool": ('"value": 0.0', '"value": true', r"components\[0\]\.value"),
    "value-overflow": ('"value": 0.0', '"value": 1' + "0" * 400, r"components\[0\]\.value"),
    "radius-inf": ('"radius": 1.0', '"radius": Infinity', r"components\[0\]\.radius"),
    "radius-1e400": ('"radius": 1.0', '"radius": 1e400', r"components\[0\]\.radius"),
    "radius-bool": ('"radius": 1.0', '"radius": false', r"components\[0\]\.radius"),
    "center-nan": ('"center": [3, 1]', '"center": [3, NaN]', r"components\[0\]\.center\[1\]"),
    "source-bool": ('"source": [0, 0]', '"source": [true, 0]', r"source\[0\]"),
    "eval-inf": ('"eval": [[2, 0]]', '"eval": [[2, -Infinity]]', r"eval\[0\]\[1\]"),
    "levels-nan": ('"levels": [-0.6, -0.4, -0.2]', '"levels": [-0.6, NaN]', r"levels\[1\]"),
    "levels-bool": ('"levels": [-0.6, -0.4, -0.2]', '"levels": [true]', r"levels\[0\]"),
    "eps-bool": ('"eps": 0.01', '"eps": true', r"streamlines\.eps"),
    "eps-nan": ('"eps": 0.01', '"eps": NaN', r"streamlines\.eps"),
    "eps-negative": ('"eps": 0.01', '"eps": -0.5', r"streamlines\.eps"),
    "window-nan": ('"degree": 12,', '"degree": 12, "window": [-4, 4, NaN, 3],', r"window\[2\]"),
    "window-bool": ('"degree": 12,', '"degree": 12, "window": [-4, 4, 3, true],', r"window\[3\]"),
}


@pytest.mark.parametrize("old,new,key", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
def test_numeric_keys_reject_bools_and_nonfinite_values(old, new, key):
    assert old in DISK1
    with pytest.raises(ConfigError, match=key + " must be a finite"):
        parse_problem_config(DISK1.replace(old, new))


def test_window_order_is_checked():
    for win in ("[4, -4, -3, 3]", "[-4, 4, 3, 3]", "[-4, 4, 3]"):
        text = DISK1.replace('"degree": 12,', f'"degree": 12, "window": {win},')
        with pytest.raises(ConfigError, match="'window' must"):
            parse_problem_config(text)


@pytest.mark.parametrize("key,value", [("npts", -3), ("npts", 0), ("npts", [40, 0]),
                                       ("npts", True), ("degree", -1), ("degree", [3]),
                                       ("degree", "3")])
def test_component_counts_are_checked_when_parsed(key, value):
    # An integer applies to every component, a list gives one per component;
    # either way npts must be >= 1 and degree >= 0.
    cfg = json.loads(DISK1)
    cfg["components"].append({"kind": "slit", "center": [-3, 0], "halfspan": [1, 0]})
    cfg.update(npts=1, degree=0)
    parsed = parse_problem_config(json.dumps(cfg))
    assert parsed.npts == (1, 1) and parsed.spec.degrees == (0, 0)
    cfg[key] = value
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_problem_config(json.dumps(cfg))


def test_cli_unwritable_output_leaves_no_partial_files(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = json.loads(DISK1)
    cfg["outputs"] = {"report": "report.json", "csv": "blocker/field.csv"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path), "-o", str(tmp_path)]) == 1
    assert not (tmp_path / "report.json").exists()


def test_emit_svg_empty_scene():
    text = emit_svg([], [], (-1, 1, -1, 1))
    assert text.startswith("<svg")
    assert "<path" not in text
    assert text == emit_svg([], [], (-1, 1, -1, 1))


def test_emit_svg_single_polyline():
    poly = Polyline(points=(0j, 1 + 1j), kind="streamline", value=0.0, termination="left_window")
    text = emit_svg([poly], [], (-2, 2, -2, 2))
    assert text.count("<path") == 1
    path = text.split('d="M')[1].split('"')[0]
    assert path.count("L") == 1  # two coordinates: one move, one line


def test_csv_block_schema():
    polys = [
        Polyline(points=(0j, 1j), kind="equipotential", value=-0.5, termination=None),
        Polyline(points=(1 + 0j, 2 + 0j, 3 + 0j), kind="streamline", value=0.25, termination="left_window"),
    ]
    text = polylines_csv(polys)
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    header, *rows = blocks[0].splitlines()
    assert header == "kind,level_or_seed,x,y"
    assert rows[0].startswith("equipotential,-0.5,")
    assert blocks[1].splitlines()[0].startswith("streamline,0.25,1,")


def _reference_csv(polylines):
    """The writer's output formatted one f-string per point."""
    lines = ["kind,level_or_seed,x,y"]
    for idx, poly in enumerate(polylines):
        if idx > 0:
            lines.append("")
        lines.extend(f"{poly.kind},{poly.value:.13g},{p.real:.13g},{p.imag:.13g}"
                     for p in poly.points)
    return "\n".join(lines) + "\n"


def _reference_svg_paths(polylines, window):
    x0, x1, y0, y1 = window
    scale = 900.0 / (x1 - x0)
    return [" L".join(f"{(p.real - x0) * scale:.3f} {(y1 - p.imag) * scale:.3f}"
                      for p in poly.points) for poly in polylines]


def test_writers_match_per_point_formatting():
    # Edge values of both formats: signed zeros, extreme magnitudes, ties and
    # near-ties at 13 significant digits (1234567890123.5 is exact; the
    # decimal 1.00000000000005 is not) and at 3 decimals (0.0625 is exact,
    # 0.0005 and 2.0005 are not), the switch to exponent form, a two-point
    # polyline and a '%' in the kind.
    edge = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 1234567890123.5, 1234567890124.5,
            9999999999999.5, 1.00000000000005, 0.0001, 0.00001, 0.0625, 0.0005, -0.0005,
            2.0005, 1.0015, 899.9995, 5e-324]
    pts = tuple(complex(a, b) for a, b in zip(edge, edge[::-1]))
    polys = [
        Polyline(points=pts, kind="equipotential", value=-0.0, termination=None),
        Polyline(points=(complex(-0.0, -0.0), 1e300 + 1e-300j), kind="streamline",
                 value=1234567890123.5, termination="left_window"),
        Polyline(points=(0.0625 + 0.0005j, 2.0005 - 0.0j), kind="odd%skind", value=1e-300,
                 termination=None),
    ]
    assert polylines_csv(polys) == _reference_csv(polys)
    for window in ((0.0, 900.0, 0.0, 900.0), (-2.5, 3.5, -1.0, 4.0)):
        paths = [line.split('d="M')[1].split('"')[0]
                 for line in emit_svg(polys, [], window).splitlines() if line.startswith("<path")]
        assert paths == _reference_svg_paths(polys, window)
