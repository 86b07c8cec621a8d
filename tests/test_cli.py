import json
import re

import pytest

from circlehold import cli, fileio, width_nd


def run(argv):
    return cli.main([str(a) for a in argv])


def construct(tmp_path, *argv):
    code = run(["construct", *argv, "--out-dir", tmp_path])
    assert code == 0
    return tmp_path


def test_construct_octahedron(tmp_path, capsys):
    construct(tmp_path, "octahedron-iceberg", "--a", "1.38", "--h", "5")
    body = json.loads((tmp_path / "body.json").read_text())
    assert len(body["vertices"]) == 6
    preds = json.loads((tmp_path / "predictions.json").read_text())
    assert preds["predictions"]["diameter"]["value"] == pytest.approx(
        2.695881606531, abs=1e-9)
    assert (tmp_path / "scene.obj").exists()
    out = capsys.readouterr().out
    assert "octahedron-iceberg" in out


def test_construct_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(); b.mkdir()
    construct(a, "skew-tetra", "--eps", "0.05")
    construct(b, "skew-tetra", "--eps", "0.05")
    for name in ("body.json", "circle.json", "predictions.json", "scene.obj"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_construct_unknown_family():
    with pytest.raises(SystemExit) as exc:
        run(["construct", "pentagon-thing"])
    assert exc.value.code == 1


def test_construct_missing_parameter(tmp_path, capsys):
    code = run(["construct", "octahedron-iceberg", "--a", "1.38",
                "--out-dir", tmp_path])
    assert code == 1
    assert "h" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["flat-tetra", "--eps", "0.2", "--a", "5", "--m", "3",
      "--apex-height", "2"],
     "family 'flat-tetra' takes no --a, --m, --apex-height"),
    (["octahedron-iceberg", "--a", "1.2", "--h", "10", "--apex-height", "2"],
     "family 'octahedron-iceberg' takes no --apex-height"),
    (["skew-tetra", "--eps", "0.1", "--n", "4"],
     "family 'skew-tetra' takes no --n"),
])
def test_construct_rejects_parameters_the_family_does_not_take(
        tmp_path, capsys, argv, message):
    assert run(["construct", *argv, "--out-dir", tmp_path]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["bevelled-cylinder", "--R", "10", "--m", "64.7"],
    ["simplex-hull", "--n", "4.5", "--a", "1.001", "--h", "1000"],
])
def test_construct_integer_parameters_must_be_integers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["construct", *argv])
    assert exc.value.code == 1
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["simplex-hull", "--n", "3", "--a", "inf", "--h", "1000"],
     "a must be finite, got inf"),
])
def test_construct_rejects_non_finite_parameters(tmp_path, capsys, argv,
                                                  message):
    assert run(["construct", *argv, "--out-dir", tmp_path]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_construct_seven_vertex_takes_an_apex_height(tmp_path):
    construct(tmp_path, "seven-vertex", "--a", "1.2", "--h", "10",
              "--apex-height", "2")
    body = json.loads((tmp_path / "body.json").read_text())
    assert [0.0, 0.0, 2.0] in body["vertices"]


def test_analyze_finds_holding_circle(tmp_path, capsys):
    construct(tmp_path, "flat-tetra", "--eps", "0.2")
    code = run(["analyze", tmp_path / "body.json", "--out-dir", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert doc["holding"]["verdict"] == "CertifiedHoldingEvidence"
    assert doc["holding"]["circle"]["diameter"] == pytest.approx(
        0.392232270276, abs=1e-6)
    assert doc["tolerances"] == {"geom": 1e-9, "opt": 1e-6}
    assert "CertifiedHoldingEvidence" in capsys.readouterr().out


def test_analyze_budget_needs_a_circle(tmp_path, capsys):
    construct(tmp_path, "flat-tetra", "--eps", "0.2")
    capsys.readouterr()
    code = run(["analyze", tmp_path / "body.json", "--budget", "800"])
    assert code == 1
    captured = capsys.readouterr()
    assert "--circle" in captured.err
    assert captured.out == ""


def test_analyze_reports_the_width_of_an_nd_body(tmp_path, capsys):
    construct(tmp_path, "simplex-hull", "--n", "4", "--a", "1.001",
              "--h", "1000")
    capsys.readouterr()
    assert run(["analyze", tmp_path / "body.json", "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    want = width_nd(fileio.load_body(tmp_path / "body.json"))
    assert doc["width"] == pytest.approx(want, rel=1e-11)
    assert "seed" not in doc
    assert f"width: {cli._g(want)}" in out



def test_analyze_rejects_a_non_finite_nd_body(tmp_path, capsys):
    verts = [[0.0] * 4, [1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, float("nan"), 0],
             [0, 0, 0, 1.0]]
    (tmp_path / "body.json").write_text(json.dumps({"vertices": verts}))
    assert run(["analyze", tmp_path / "body.json"]) == 1
    assert capsys.readouterr().err == "error: vertices must be finite\n"

def test_analyze_given_circle_escapes(tmp_path):
    # loose ring around a cube: the search slides it off the top
    pts = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    (tmp_path / "body.json").write_text(json.dumps({"vertices": pts}))
    (tmp_path / "circle.json").write_text(json.dumps(
        {"center": [0.5, 0.5, 0.5], "diameter": 1.8, "normal": [0, 0, 1]}))
    code = run(["analyze", tmp_path / "body.json",
                "--circle", tmp_path / "circle.json", "--budget", "20000"])
    assert code == 2


def test_analyze_profile_outputs(tmp_path):
    construct(tmp_path, "octahedron-iceberg", "--a", "1.2", "--h", "10")
    code = run(["analyze", tmp_path / "body.json",
                "--circle", tmp_path / "circle.json",
                "--budget", "2000", "--csv", "--svg", "--out-dir", tmp_path])
    assert code == 0
    assert (tmp_path / "profile.csv").exists()
    assert (tmp_path / "profile.svg").exists()


def test_escape_exit_codes(tmp_path):
    pts = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    (tmp_path / "body.json").write_text(json.dumps({"vertices": pts}))
    (tmp_path / "ring.json").write_text(json.dumps(
        {"center": [0.5, 0.5, 0.5], "diameter": 1.8, "normal": [0, 0, 1]}))
    assert run(["escape", tmp_path / "body.json", tmp_path / "ring.json",
                "--budget", "20000"]) == 2

    held = tmp_path / "held"
    held.mkdir()
    construct(held, "skew-tetra", "--eps", "0.05")
    assert run(["escape", held / "body.json", held / "circle.json",
                "--budget", "5000"]) == 0


def test_escape_reports_march_statistics(tmp_path, capsys):
    pts = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    (tmp_path / "body.json").write_text(json.dumps({"vertices": pts}))
    (tmp_path / "ring.json").write_text(json.dumps(
        {"center": [0.5, 0.5, 0.5], "diameter": 1.8, "normal": [0, 0, 1]}))
    assert run(["escape", tmp_path / "body.json", tmp_path / "ring.json",
                "--budget", "20000", "--out-dir", tmp_path]) == 2
    out = capsys.readouterr().out
    doc = json.loads((tmp_path / "escape.json").read_text())
    assert doc["accepted"] >= len(doc["path"]) - 1 > 0
    assert doc["reach"] >= doc["escape_radius"]
    assert (f"march steps: {doc['accepted']} accepted, {doc['rejected']} "
            f"rejected; reach {cli._g(doc['reach'])} of escape radius "
            f"{cli._g(doc['escape_radius'])}") in out


def test_chain_certificate(tmp_path, capsys):
    construct(tmp_path, "octahedron-iceberg", "--a", "1.2", "--h", "10")
    code = run(["chain", tmp_path / "body.json", tmp_path / "circle.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok" in out


@pytest.mark.parametrize("argv", [
    # the chain's minima are exact: it takes no angle count
    ["chain", "body.json", "circle.json", "--theta-samples", "90"],
    # verify-paper reads no tolerance
    ["verify-paper", "--tol-opt", "1e-3"],
    # the tolerances are constants, and the escape search draws no random
    # numbers
    ["analyze", "body.json", "--tol-opt", "1e-3"],
    ["chain", "body.json", "circle.json", "--tol-geom", "1e-6"],
    ["render", "body.json", "--tol-geom", "1e-6"],
    ["escape", "body.json", "circle.json", "--tol-opt", "1e-3"],
    ["escape", "body.json", "circle.json", "--seed", "3"],
    # the projected-width profile samples a fixed 720 angles
    ["analyze", "body.json", "--theta-samples", "90"],
    ["render", "body.json", "--theta-samples", "90"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["escape", "body.json", "circle.json", "--budget", "-5"],
    ["escape", "body.json", "circle.json", "--budget", "0"],
    ["analyze", "body.json", "--circle", "circle.json", "--budget", "-5"],
])
def test_budget_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    assert "argument --budget: expected a positive integer" in (
        capsys.readouterr().err)


def test_chain_rejects_a_circle_the_body_does_not_pass(tmp_path, capsys):
    # the unit cube's square sections do not fit in this circle
    pts = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    (tmp_path / "body.json").write_text(json.dumps({"vertices": pts}))
    (tmp_path / "circle.json").write_text(json.dumps(
        {"center": [0.5, 0.5, 0.5], "diameter": 1.2, "normal": [0, 0, 1]}))
    assert run(["chain", tmp_path / "body.json", tmp_path / "circle.json"]) == 1
    assert "error: body does not pass through the circle" in (
        capsys.readouterr().err)
    assert run(["render", tmp_path / "body.json", "--circle",
                tmp_path / "circle.json", "--out-dir", tmp_path]) == 0
    assert "region figure skipped: body does not pass through the circle" in (
        capsys.readouterr().out)
    assert (tmp_path / "scene.obj").exists()
    assert not (tmp_path / "region.svg").exists()


def test_verify_suite_exit_codes(tmp_path):
    assert run(["verify-paper", "--suite", "tetra-width"]) == 0
    # the diameter limit of the spindle family misses its target tolerance,
    # and the suite reports that honestly
    assert run(["verify-paper", "--suite", "limits"]) == 1


def test_verify_times_each_suite_once(tmp_path, capsys):
    assert run(["verify-paper", "--suite", "limits", "--json",
                "--out-dir", tmp_path]) == 1
    out = capsys.readouterr().out
    text, js = out[:out.index("\n{") + 1], out[out.index("\n{") + 1:]
    lines = text.splitlines()
    checks = [ln for ln in lines if ln.startswith(("[PASS]", "[FAIL]"))]
    assert len(checks) == 2
    assert all(ln.endswith(("(tol 1e-3)", "(tol 1e-2)")) for ln in checks)
    suites = [ln for ln in lines if ln.startswith("suite ")]
    assert len(suites) == 1
    assert re.fullmatch(r"suite limits: 1/2 passed in \d+\.\d\ds", suites[0])
    assert re.fullmatch(r"1/2 checks passed in \d+\.\d\ds", lines[-1])
    doc = json.loads(js[:js.rindex("}") + 1])
    assert doc == json.loads((tmp_path / "verify.json").read_text())
    [suite] = doc["suites"]
    assert suite["name"] == "limits" and suite["seconds"] >= 0.0
    assert [c["name"] for c in suite["checks"]] == [
        "limits/diameter-near-two(a=1.001)", "limits/width-near-three(h=500)"]
    assert [c["passed"] for c in suite["checks"]] == [False, True]
    assert all("seconds" not in c for c in suite["checks"])


def test_render_writes_figures(tmp_path):
    construct(tmp_path, "octahedron-iceberg", "--a", "1.2", "--h", "10")
    out = tmp_path / "fig"
    out.mkdir()
    code = run(["render", tmp_path / "body.json",
                "--circle", tmp_path / "circle.json", "--out-dir", out])
    assert code == 0
    assert (out / "scene.obj").exists()
    assert (out / "profile.svg").exists()
    assert (out / "region.svg").exists()


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert run(["analyze", tmp_path / "nope.json"]) == 1
    assert capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "circlehold" in capsys.readouterr().out
