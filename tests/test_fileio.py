import json

import numpy as np
import pytest

from circlehold import Circle3, build_hull, fileio, iceberg_profile, octahedron_iceberg

CUBE_PTS = np.array([
    [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
], dtype=float)


def test_round_sig():
    assert fileio.round_sig(1.0 / 3.0) == 0.333333333333
    assert fileio.round_sig(0.0) == 0.0
    assert fileio.round_sig(-123456789012345.0) == -123456789012000.0


def test_jsonify_handles_numpy():
    data = fileio.jsonify({"a": np.float64(0.5), "b": np.arange(3),
                           "c": (np.int64(2), "x")})
    # everything must be plain python after the pass
    json.dumps(data)
    assert data["a"] == 0.5
    assert data["b"] == [0, 1, 2]


def test_dumps_json_is_deterministic():
    a = fileio.dumps_json({"z": 1, "a": [3, 2]})
    b = fileio.dumps_json({"a": [3, 2], "z": 1})
    assert a == b
    assert a.index('"a"') < a.index('"z"')


def test_body_round_trip(tmp_path):
    K = build_hull(CUBE_PTS)
    path = tmp_path / "body.json"
    fileio.write_text(path, fileio.dumps_json(fileio.body_to_dict(K)))
    K2 = fileio.load_body(path)
    assert np.allclose(np.sort(K2.vertices, axis=0), np.sort(K.vertices, axis=0))


def test_circle_round_trip(tmp_path):
    C = Circle3((0.5, 0.5, 0.5), 1.8, (0.0, 0.0, 2.0))
    path = tmp_path / "circle.json"
    fileio.write_text(path, fileio.dumps_json(fileio.circle_to_dict(C)))
    C2 = fileio.load_circle(path)
    assert C2.center == C.center
    assert C2.diameter == C.diameter
    assert C2.normal == (0.0, 0.0, 1.0)


def test_body_id_stability():
    K = build_hull(CUBE_PTS)
    assert fileio.body_id(K) == fileio.body_id(build_hull(CUBE_PTS))
    K2 = build_hull(CUBE_PTS * 2.0)
    assert fileio.body_id(K) != fileio.body_id(K2)


def test_scene_obj_layout():
    K = build_hull(CUBE_PTS)
    C = Circle3((0.5, 0.5, 0.5), 1.8, (0, 0, 1))
    text = fileio.scene_obj(K, circles=[C])
    lines = text.splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    assert n_v == 8 + 128
    # the circle is emitted as a closed polyline
    l_lines = [ln for ln in lines if ln.startswith("l ")]
    assert l_lines
    first = l_lines[-1].split()
    assert first[1] == first[-1]


def test_profile_serialization():
    inst = octahedron_iceberg(1.2, 10.0)
    prof = iceberg_profile(inst.body, level=inst.circle.center[2])
    doc = fileio.profile_to_dict(prof)
    json.dumps(doc)
    assert doc["orientation"] == "as_given"
    assert doc["theta_samples"] == 720
    assert doc["margin"] > 0.0
    csv_text = fileio.profile_csv(prof)
    rows = csv_text.strip().splitlines()
    assert rows[0] == "theta,width_upper,width_lower,margin"
    assert len(rows) == 721
