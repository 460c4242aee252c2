import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import chowtool
from chowtool.cli import main
from chowtool.jsonio import (
    polytope_from_json,
    polytope_to_json,
    load_polytope,
    triangulation_from_json,
    render_svg,
)
from chowtool.errors import ChowToolError, ParseError
from chowtool import catalog


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_DX9_json(capsys):
    code, out, _ = run(capsys, "analyze", "catalog:D_X9", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "polystable"
    trail = {c["name"]: c for c in data["checks"]}
    assert trail["incidence criterion"]["exact_values"]["apex_inequality"] == "45/2 < 24"


def test_analyze_cube6_doublecone(capsys):
    code, out, _ = run(capsys, "analyze", "catalog:cube6_doublecone")
    assert code == 0
    assert "not_semistable" in out
    assert "cap" in out


def test_analyze_inconclusive_exit_code(capsys, tmp_path):
    # a canonical non-reflexive polytope with no decisive criterion
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps({"dim": 3, "vertices": catalog.get("P3_blowup4").polytope.vertices and [list(v) for v in catalog.get("P3_blowup4").polytope.vertices]})
    )
    code, out, _ = run(capsys, "analyze", str(path), "--kmax", "1")
    assert code == 2


def test_ehrhart_table(capsys):
    code, out, _ = run(capsys, "ehrhart", "catalog:X3", "--kmax", "4")
    assert code == 0
    for value in ("1", "4", "10", "19", "31"):
        assert value in out
    assert "3/2*k^2 + 3/2*k + 1" in out


def test_symmetry_output(capsys):
    code, out, _ = run(capsys, "symmetry", "catalog:X6", "--json")
    data = json.loads(out)
    assert data["order"] == 12
    assert data["is_symmetric"] is True
    assert data["is_weakly_symmetric"] is True


def test_triangulate_boundary(capsys):
    code, out, _ = run(capsys, "triangulate", "catalog:D_X8", "--k", "2", "--boundary", "--json")
    data = json.loads(out)
    assert data["regular"] is False
    assert data["max_incidence"] == 8


def test_triangulate_the_boundary_of_a_segment(capsys):
    code, out, _ = run(capsys, "triangulate", "cube1", "--boundary", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["cells"], data["relative_volume"], data["max_incidence"]) == (2, "2", 1)
    assert data["regular"] is True


def test_triangulate_checks_a_supplied_triangulation(capsys, tmp_path):
    edges = [[[-1, -1], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [-1, -1]]]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dim": 1, "simplices": edges}))
    code, out, _ = run(capsys, "triangulate", "X3", "--triangulation", str(path), "--json")
    assert code == 0
    assert json.loads(out)["regular"] is True
    # one boundary edge missing: the cells no longer cover the boundary
    path.write_text(json.dumps({"dim": 1, "simplices": edges[:2]}))
    code, out, _ = run(capsys, "triangulate", "X3", "--triangulation", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coverage_ok"] is False
    assert data["regular"] is False


@pytest.mark.parametrize("lift", [[], [0]], ids=["in-Z2", "in-Z3"])
def test_triangulate_refuses_a_supplied_table_of_the_wrong_dimension(lift, capsys, tmp_path):
    # the four edges of the square |x| + |y| = 1 sum to the relative volume 4
    # of the boundary of the octahedron D3, but are no triangulation of it
    square = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    edges = [[a + lift, b + lift] for a, b in zip(square, square[1:] + square[:1])]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"simplices": edges}))
    code, out, err = run(capsys, "triangulate", "D3", "--triangulation", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: --triangulation: a boundary table of a polytope in Z^3 has ")


def test_equations(capsys):
    code, out, _ = run(capsys, "equations", "catalog:X3")
    assert code == 0
    assert "z1*z2*z3 = z0^3" in out
    assert "kernel-basis" in out


def test_catalog_show_and_unknown(capsys):
    code, out, _ = run(capsys, "catalog", "show", "X6")
    assert code == 0 and "X6" in out
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 1 and "error" in err


def test_falsify_command(capsys):
    code, out, _ = run(capsys, "falsify", "catalog:X8", "--k", "2")
    assert code == 0
    assert "no violation" in out


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize(
    "argv", [["falsify", "X6"], ["triangulate", "X6", "--boundary"]], ids=["falsify", "triangulate"]
)
def test_dilation_below_one_is_an_input_error(argv, k, capsys):
    code, out, err = run(capsys, *argv, "--k", k)
    assert code == 1
    assert err.startswith("error:") and "--k" in err
    assert "Traceback" not in out + err


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [[0.5, 0]]}')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "error" in err


def test_directory_as_input_is_an_input_error(capsys, tmp_path):
    # the CLI's file check passes for a directory, which open() then refuses
    code, out, err = run(capsys, "analyze", str(tmp_path))
    assert code == 1
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"
    assert out == ""


def test_missing_triangulation_file_is_an_input_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "triangulate", "X6", "--triangulation", str(missing))
    assert code == 1
    assert err == f"error: cannot read {missing}: No such file or directory\n"
    assert out == ""


def test_non_utf8_input_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for argv in (["analyze", str(bad)], ["triangulate", "X6", "--triangulation", str(bad)]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: invalid JSON in {bad}: 'utf-8' codec") and err.count("\n") == 1
        assert out == ""


def test_json_round_trip():
    for name in ("X6", "D_X8", "cuboctahedron"):
        P = catalog.get(name).polytope
        data = polytope_to_json(P)
        Q = polytope_from_json(json.loads(json.dumps(data)))
        assert Q.vertices == P.vertices
        assert Q.facets == P.facets


def test_json_rejects_non_integer():
    with pytest.raises(ParseError):
        polytope_from_json({"dim": 2, "vertices": [[0, 0], [1.5, 0], [0, 1]]})
    with pytest.raises(ParseError):
        polytope_from_json({"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]})


def test_triangulation_json():
    T = triangulation_from_json(
        {"dim": 1, "simplices": [[[0, 0], [1, 0]], [[1, 0], [1, 1]]]}
    )
    assert len(T) == 2


_BAD_POLYTOPES = [
    [[0, 0], [1, 0], [0, 1]],
    {"dim": 2},
    {"vertices": []},
    {"vertices": [0, 1]},
    {"vertices": [[0, True], [1, 0], [0, 1]]},
    {"vertices": [[0, 0], [1, 0], [0, 1]], "name": 7},
    {"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]},
    {"vertices": [[1, 2], [3]]},
    {"vertices": [[]]},
]


@pytest.mark.parametrize("data", _BAD_POLYTOPES)
def test_malformed_polytope_json_is_a_parse_error(data, capsys, tmp_path):
    with pytest.raises(ParseError):
        polytope_from_json(data)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in out + err


_BAD_TRIANGULATIONS = [
    {"dim": "x", "simplices": [[[1, 0], [0, 1]]]},
    {"dim": 1.0, "simplices": [[[1, 0], [0, 1]]]},
    {"dim": True, "simplices": [[[1, 0], [0, 1]]]},
    {"dim": 2, "simplices": [[[1, 0], [0, 1]]]},
    {"dim": 1, "simplices": "cells"},
    {"dim": 1, "simplices": {"a": [[1, 0], [0, 1]]}},
    {"dim": 1, "simplices": []},
    {"dim": 1, "simplices": [[1, 0], [0, 1]]},
    {"dim": 1, "simplices": [[[1, 0], 7]]},
    {"dim": 1, "simplices": [[]]},
    {"dim": 1, "simplices": [[[1, 0], [0, 1, 0]]]},
    {"dim": 1, "simplices": [[[1, 0], [0, 1]], [[0, 0, 1], [1, 1, 0]]]},
    {"dim": 1, "simplices": [[[1, 0], [0, 1]], [[0, 0], [1, 0], [1, 1]]]},
    {"dim": 1, "simplices": [[[1, 0], [0, "1"]]]},
    {"dim": 1, "simplices": [[[1, 0], [1, 0]]]},
    {"dim": 2, "simplices": [[[0, 0], [1, 0], [2, 0]]]},
    {"dim": 3, "simplices": [[[0, 0], [1, 0], [0, 1], [1, 1]]]},
]


@pytest.mark.parametrize("data", _BAD_TRIANGULATIONS)
def test_malformed_triangulation_json_is_a_parse_error(data, capsys, tmp_path):
    with pytest.raises(ParseError):
        triangulation_from_json(data)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "triangulate", "catalog:X3", "--triangulation", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in out + err


def test_deterministic_outputs(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", "catalog:X6", "--json")
        outs.append(out)
    assert outs[0] == outs[1]


def test_svg_render(tmp_path, capsys):
    code, out, _ = run(
        capsys, "catalog", "show", "D_X4", "--svg", str(tmp_path / "octa.svg")
    )
    assert code == 0
    svg = (tmp_path / "octa.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == len(catalog.get("D_X4").polytope.vertices) + 1


def test_closed_stdout_exits_without_traceback(capsys):
    # `chowtool catalog list | head -1`.  The pipe holds one page, less than
    # the listing, so the child is still writing when the reader closes it.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe size cannot be set on this platform")
    _, listing, _ = run(capsys, "catalog", "list")
    read_fd, write_fd = os.pipe()
    if fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096) >= len(listing):
        pytest.skip("the pipe holds the whole listing")
    src = os.path.dirname(os.path.dirname(chowtool.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chowtool.cli", "catalog", "list"],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    os.close(write_fd)
    first = b""
    while not first.endswith(b"\n"):
        byte = os.read(read_fd, 1)
        assert byte, "no complete first line"
        first += byte
    os.close(read_fd)
    _, err = proc.communicate(timeout=60)
    assert first.decode() == listing.splitlines(keepends=True)[0]
    assert proc.returncode == 1
    assert err == b""


# -- fuzzing both JSON schemas -------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)
_JUNK = st.one_of(
    st.booleans(), st.floats(allow_nan=False), st.text(max_size=2), st.none(), st.just([]), st.just({})
)


def _lists_in(x):
    """Every list nested in x, x included."""
    if not isinstance(x, list):
        return []
    return [x] + [inner for item in x for inner in _lists_in(item)]


@st.composite
def _near_miss(draw, data, field):
    """data as drawn, or with one thing wrong: a junk entry, a list cut
    short or grown by one, a missing key, or a wrong dim."""
    data = json.loads(json.dumps(data))
    kind = draw(st.sampled_from(["none", "none", "junk", "cut", "grow", "drop", "dim"]))
    lists = [x for x in _lists_in(data[field]) if x]
    if kind in ("junk", "cut", "grow") and lists:
        target = draw(st.sampled_from(lists))
        i = draw(st.integers(0, len(target) - 1))
        if kind == "junk":
            target[i] = draw(_JUNK)
        elif kind == "cut":
            del target[i]
        else:
            target.append(json.loads(json.dumps(target[i])))
    elif kind == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == "dim":
        data["dim"] = draw(st.one_of(st.integers(-1, 5), _JUNK))
    return data


@st.composite
def _near_polytope(draw):
    """Polytope JSON of dimension <= 3 with coordinates in [-3, 3], or a near miss."""
    n = draw(st.integers(1, 3))
    vertex = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    data = {"vertices": draw(st.lists(vertex, min_size=1, max_size=7))}
    if draw(st.booleans()):
        data["dim"] = n
    if draw(st.booleans()):
        data["name"] = draw(st.one_of(st.text(max_size=4), _JUNK))
    return draw(_near_miss(data, "vertices"))


@st.composite
def _near_triangulation(draw):
    """Triangulation JSON of dimension <= 3 with coordinates in [-3, 3], or a near miss."""
    n = draw(st.integers(1, 3))
    d = draw(st.one_of(st.just(n - 1), st.integers(0, n)))
    vertex = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    simplex = st.lists(vertex, min_size=d + 1, max_size=d + 1)
    data = {"simplices": draw(st.lists(simplex, min_size=1, max_size=5))}
    if draw(st.booleans()):
        data["dim"] = d
    return draw(_near_miss(data, "simplices"))


def _exits_cleanly(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in out + err
    assert (code == 1) == err.startswith("error:")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(_near_polytope(), _JSON))
def test_fuzzed_polytope_json_parses_or_is_refused(data, capsys, tmp_path):
    try:
        polytope_from_json(data)
    except ChowToolError:
        pass
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    _exits_cleanly(["ehrhart", str(path)], capsys)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(_near_triangulation(), _JSON))
def test_fuzzed_triangulation_json_parses_or_is_refused(data, capsys, tmp_path):
    try:
        triangulation_from_json(data)
    except ChowToolError:
        pass
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    _exits_cleanly(["triangulate", "X3", "--triangulation", str(path)], capsys)
