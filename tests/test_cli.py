import argparse
import json
import os
import re

import pytest

from strandkit import cli
from strandkit.cli import _parser, main


def run(tmp_path, *argv):
    return main(list(argv))


def test_gen_build_verify_roundtrip(tmp_path):
    g = tmp_path / "g.json"
    rep = tmp_path / "rep.json"
    svg = tmp_path / "rep.svg"
    assert main(["gen", "maximal-outerplanar", "--n", "10", "--seed", "2",
                 "--out", str(g)]) == 0
    assert main(["build", "circle", str(g), "--out", str(rep), "--svg", str(svg)]) == 0
    assert main(["verify", str(rep), str(g), "--order", "--outer", "both-ends"]) == 0
    assert svg.read_text().startswith("<svg")
    assert (tmp_path / "rep.json.manifest.json").exists()


def test_build_outputs_deterministic(tmp_path):
    g = tmp_path / "g.json"
    main(["gen", "maximal-outerplanar", "--n", "9", "--seed", "5", "--out", str(g)])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["build", "vpg", str(g), "--out", str(r1)]) == 0
    assert main(["build", "vpg", str(g), "--out", str(r2)]) == 0
    assert r1.read_text() == r2.read_text()


def test_verify_failure_exit_code(tmp_path):
    g = tmp_path / "g.json"
    bad = tmp_path / "bad.json"
    rep = tmp_path / "rep.json"
    main(["gen", "maximal-outerplanar", "--n", "8", "--seed", "1", "--out", str(g)])
    main(["build", "circle", str(g), "--out", str(rep)])
    data = json.loads(g.read_text())
    data["edges"] = data["edges"][:-1]  # drop an edge: crossing count mismatch
    data.pop("rotation", None)
    bad.write_text(json.dumps(data))
    assert main(["verify", str(rep), str(bad)]) == 1


def vpg_rep_data(tmp_path):
    """The path of a graph, the path of its VPG rep, and the rep's JSON."""
    g = tmp_path / "g.json"
    rep = tmp_path / "rep.json"
    main(["gen", "maximal-outerplanar", "--n", "8", "--seed", "1", "--out", str(g)])
    main(["build", "vpg", str(g), "--out", str(rep)])
    return g, rep, json.loads(rep.read_text())


def scale_rep(rep, data, k):
    """Write the rep JSON `data` to `rep` with every coordinate times k."""
    def scaled(pts):
        return [[x * k, dx, y * k, dy] for x, dx, y, dy in pts]

    data["curves"] = {v: scaled(pts) for v, pts in data["curves"].items()}
    data["witness"]["polyline"] = scaled(data["witness"]["polyline"])
    rep.write_text(json.dumps(data))


def test_verify_beyond_float_range(tmp_path, capsys):
    """A rep scaled past float range verifies as at x1 (no overflow in the
    float prefilter)."""
    g, rep, data = vpg_rep_data(tmp_path)
    scale_rep(rep, data, 10**400)
    capsys.readouterr()
    assert main(["verify", str(rep), str(g), "--order", "--outer", "both-ends"]) == 0
    assert all(r["ok"] for r in json.loads(capsys.readouterr().out).values())


def test_svg_beyond_float_range(tmp_path):
    _g, rep, data = vpg_rep_data(tmp_path)
    scale_rep(rep, data, 10**400)
    svg = tmp_path / "rep.svg"
    assert main(["svg", str(rep), "--crossings", "--out", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 8
    assert json.loads((tmp_path / "rep.svg.manifest.json").read_text())["exit_code"] == 0


def test_verify_witness_with_no_segment(tmp_path, capsys):
    g, rep, data = vpg_rep_data(tmp_path)
    data["witness"]["polyline"] = []
    rep.write_text(json.dumps(data))
    mf = tmp_path / "m.json"
    assert main(["--manifest", str(mf), "verify", str(rep), str(g), "--outer", "both-ends"]) == 2
    assert json.loads(mf.read_text())["exit_code"] == 2
    assert "error: witness has no segment" in capsys.readouterr().err


@pytest.mark.parametrize("n, seed", [(5, 1), (9, 3), (14, 2)])
def test_build_trace(tmp_path, n, seed):
    # one trace snapshot per ear, one region overlay per vertex in the diag
    # frame, and no trace from the touching-L constructor
    g = tmp_path / "g.json"
    main(["gen", "maximal-outerplanar", "--n", str(n), "--seed", str(seed), "--out", str(g)])
    rep, svg = tmp_path / "vpg.json", tmp_path / "vpg.svg"
    assert main(["build", "vpg", str(g), "--trace", "--frame", "diag", "--svg", str(svg),
                 "--out", str(rep)]) == 0
    assert len(json.loads(rep.read_text())["trace"]) == n - 1
    assert svg.read_text().count("<title>region ") == n
    rep = tmp_path / "circle.json"
    assert main(["build", "circle", str(g), "--trace", "--out", str(rep)]) == 0
    assert len(json.loads(rep.read_text())["trace"]) == n - 1
    rep = tmp_path / "sp.json"
    assert main(["build", "sp", str(g), "--trace", "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["trace"] == []


@pytest.mark.parametrize("kind", ["circle", "sp"])
def test_frame_diag_needs_vpg(tmp_path, kind, capsys):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 0\n")
    mf = tmp_path / "m.json"
    rep = tmp_path / "rep.json"
    assert main(["--manifest", str(mf), "build", kind, str(g), "--frame", "diag",
                 "--out", str(rep)]) == 2
    assert json.loads(mf.read_text())["exit_code"] == 2
    assert "--frame diag" in capsys.readouterr().err
    assert not rep.exists()


def test_usage_error_exit_code(tmp_path):
    assert main(["gen", "no-such-family"]) == 2
    assert main(["build", "circle", str(tmp_path / "missing.json")]) == 2


MALFORMED = {
    "loop": ("g.txt", "0 0\n"),
    "non_integer": ("g.txt", "0 x\n"),
    "parallel_edge": ("g.txt", "0 1\n1 0\n"),
    "truncated_json": ("g.json", '{"n": 2, "edges": [[0, 1]'),
    "no_edges_key": ("g.json", '{"n": 2}'),
    "empty_edge_list": ("g.txt", ""),
    "zero_vertices": ("g.json", '{"n": 0, "edges": []}'),
    "negative_vertices": ("g.json", '{"n": -2, "edges": []}'),
    # int(n) read these as a 2- and a 3-vertex graph
    "fractional_vertices": ("g.json", '{"n": 2.9, "edges": [[0, 1]]}'),
    "string_vertices": ("g.json", '{"n": "3", "edges": [[0, 1], [1, 2]]}'),
    "zero_denominator": ("rep.json", '{"curves": {"0": [[0, 0, 0, 1], [1, 1, 1, 1]]}}'),
    "witness_unknown_key": ("rep.json", json.dumps({
        "curves": {"0": [[0, 1, 0, 1], [1, 1, 1, 1]]},
        "witness": {"polygon": [[0, 1, 0, 1], [2, 1, 0, 1], [0, 1, 2, 1]]}})),
    "witness_both_keys": ("rep.json", json.dumps({
        "curves": {"0": [[0, 1, 0, 1], [1, 1, 1, 1]]},
        "witness": {"circle": {"center": [0, 1, 0, 1], "radius2": [1, 1]},
                    "polyline": [[0, 1, 0, 1], [2, 1, 0, 1], [0, 1, 2, 1]]}})),
    # a triangle's rep, checked against a 4-vertex path
    "curves_not_vertices": ("rep.json", json.dumps({"curves": {
        "0": [[-3, 5, 4, 5], [3, 5, -4, 5]],
        "1": [[-4, 5, -3, 5], [4, 5, 3, 5]],
        "2": [[527, 625, -336, 625], [-45, 53, -28, 53]],
    }})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_code(tmp_path, case, capsys):
    name, text = MALFORMED[case]
    bad = tmp_path / name
    bad.write_text(text)
    mf = tmp_path / "m.json"
    if name == "rep.json":
        g = tmp_path / "g.txt"
        g.write_text("0 1\n1 2\n2 3\n")
        argv = ["verify", str(bad), str(g)]
    else:
        argv = ["build", "circle", str(bad), "--out", str(tmp_path / "rep.json")]
    assert main(["--manifest", str(mf), *argv]) == 2
    assert json.loads(mf.read_text())["exit_code"] == 2
    err = capsys.readouterr().err
    assert "malformed input" in err
    assert ("a witness must be" in err) == case.startswith("witness")


@pytest.mark.parametrize("flag", [["--limit", "-3"], ["--limit", "0"],
                                  ["--samples", "50", "--limit", "3"]])
def test_oracle_bad_chunk_or_limit(tmp_path, flag, capsys):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 0\n")
    mf = tmp_path / "m.json"
    assert main(["--manifest", str(mf), "oracle", str(g), *flag]) == 2
    assert json.loads(mf.read_text())["exit_code"] == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["oracle", "--no-gadgets"], ["oracle", "--chunk", "4"],
                                  ["repro", "thm6", "--limit", "9"]])
def test_removed_search_flags(tmp_path, argv):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 0\n")
    if argv[0] == "oracle":
        argv = argv[:1] + [str(g)] + argv[1:]
    assert main(argv) == 2


@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_input_exit_code(tmp_path, case, capsys):
    path = tmp_path / "g.txt"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe 0 1\n")
    mf = tmp_path / "m.json"
    assert main(["--manifest", str(mf), "build", "circle", str(path)]) == 2
    assert json.loads(mf.read_text())["exit_code"] == 2
    assert "error: " in capsys.readouterr().err


def test_unwritable_out_exit_code(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "missing" / "rep.json"
    assert main(["build", "circle", str(g), "--out", str(out)]) == 2
    # the manifest cannot go next to --out either, so it goes to stderr
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: ") and json.loads(err[-1])["exit_code"] == 2


def test_bad_jobs_environment_exit_code(tmp_path, monkeypatch):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 0\n")
    monkeypatch.setenv("STRANDKIT_JOBS", "abc")
    assert main(["oracle", str(g)]) == 2
    assert main(["repro", "sec5-k23"]) == 2


@pytest.mark.parametrize("argv, env", [(["oracle", "--jobs", "0"], None),
                                       (["oracle", "--jobs", "-3"], None),
                                       (["oracle"], "0"),
                                       (["repro", "sec5-k23"], "0")])
def test_jobs_below_one_exit_code(tmp_path, monkeypatch, capsys, argv, env):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 0\n")
    if env is not None:
        monkeypatch.setenv("STRANDKIT_JOBS", env)
    if argv[0] == "oracle":
        argv = ["oracle", str(g), *argv[1:]]
    mf = tmp_path / "m.json"
    assert main(["--manifest", str(mf), *argv, "--out", str(tmp_path / "x.json")]) == 2
    assert json.loads(mf.read_text())["exit_code"] == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gen", "partial-2tree", "--density", "nan"],
                                  ["gen", "partial-2tree", "--density", "1.5"],
                                  ["repro", "lem2", "--density", "nan"]])
def test_density_out_of_range(tmp_path, argv, capsys):
    mf = tmp_path / "m.json"
    assert main(["--manifest", str(mf), *argv, "--out", str(tmp_path / "x.json")]) == 2
    assert json.loads(mf.read_text())["exit_code"] == 2
    assert "density" in capsys.readouterr().err


def test_readme_cli_block_lists_every_flag():
    # each "strandkit <command>" entry of README's CLI block, with its
    # continuation lines, names exactly the flags of that subcommand; the
    # entry "strandkit [--manifest ...] <command>" names the global ones
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## CLI\n", 1)[1].split("```")[1]
    listed: dict[str, set] = {}
    for line in block.strip().splitlines():
        line = line.split("#")[0]
        if line.startswith("strandkit "):
            cmd = line.split()[1]
            cmd = "" if cmd[0] in "[<" else cmd
            listed[cmd] = set()
        listed[cmd] |= set(re.findall(r"--[a-z][a-z-]*", line))

    def flags(parser):
        return {o for a in parser._actions for o in a.option_strings if o.startswith("--")} - {
            "--help"}

    p = _parser()
    sub = next(a for a in p._actions if isinstance(a, argparse._SubParsersAction))
    want = {"": flags(p)} | {name: flags(sp) for name, sp in sub.choices.items()}
    assert listed == want


def test_oracle_counters_in_manifest(tmp_path):
    g = tmp_path / "k.json"
    mf = tmp_path / "m.json"
    assert main(["gen", "subdivided-k23", "--out", str(g)]) == 0
    assert main(["--manifest", str(mf), "oracle", str(g), "--mode", "both-ends",
                 "--out", str(tmp_path / "v.json")]) == 0
    # the ladder's first rung, the first 8 digits, rules no vector out, and
    # its memo tests it once per distinct row tuple of its prefix; the rung
    # of all vertices then rules out every vector, so no gadget test runs
    assert json.loads(mf.read_text())["extra"]["oracle"] == {
        "planarity_calls": 4632, "shortcut_attempts": 4608, "shortcut_hits": 4608,
        "prefix_attempts": 24, "prefix_hits": 0}
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert set(verdict) == {"status", "witness", "witness_ends", "tried", "total",
                            "elapsed_ms"}
    assert main(["--manifest", str(mf), "repro", "thm2-sample", "--samples", "20",
                 "--out", str(tmp_path / "t.json")]) == 0
    # Thm-2: the rungs of the first 8 and 16 digits come before the rung of
    # all vertices and rule out every vector, so neither that rung nor the
    # gadget diagram is tested; the first rules out 19 of the 20 vectors,
    # and the second the one where the first missed
    assert json.loads(mf.read_text())["extra"]["oracle"] == {
        "planarity_calls": 21, "shortcut_attempts": 0, "shortcut_hits": 0,
        "prefix_attempts": 21, "prefix_hits": 20}


def test_sp_build_and_oracle(tmp_path):
    g = tmp_path / "k.json"
    rep = tmp_path / "sp.json"
    out = tmp_path / "verdict.json"
    assert main(["gen", "subdivided-k23", "--out", str(g)]) == 0
    assert main(["build", "sp", str(g), "--out", str(rep)]) == 0
    assert main(["verify", str(rep), str(g), "--order"]) == 0
    assert main(["oracle", str(g), "--mode", "base", "--out", str(out)]) == 0
    v = json.loads(out.read_text())
    assert v["status"] == "yes"


def test_edge_list_ingestion(tmp_path):
    t = tmp_path / "g.txt"
    t.write_text("0 1\n1 2\n2 0\n")
    rep = tmp_path / "rep.json"
    assert main(["build", "circle", str(t), "--out", str(rep)]) == 0


def test_embed_check(tmp_path):
    g = tmp_path / "g.json"
    main(["gen", "wheel", "--n", "5", "--out", str(g)])
    assert main(["embed", str(g), "--check"]) == 0


def test_embed_computes_rotation(tmp_path):
    k4 = tmp_path / "k4.txt"
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    out = tmp_path / "k4.json"
    assert main(["embed", str(k4), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["rotation"]) == 4
    assert main(["embed", str(out), "--check"]) == 0


# the rotations of the path 0-1-2 as JSON text: the right one, and ones
# whose keys are not each the decimal id of a distinct vertex; a parse by
# int(key) read the first two as the right rotation
PATH_ROTATIONS = {
    "right": '{"0": [1], "1": [0, 2], "2": [1]}',
    "negative_key": '{"0": [1], "1": [0, 2], "2": [0], "-1": [1]}',
    "leading_zero": '{"0": [1], "1": [0, 2], "02": [1]}',
    "repeated_key": '{"0": [1], "1": [0, 2], "2": [1], "2": [1]}',
    "out_of_range": '{"0": [1], "1": [0, 2], "2": [1], "3": []}',
}


@pytest.mark.parametrize("case", sorted(PATH_ROTATIONS))
def test_embed_check_rotation_keys(tmp_path, case, capsys):
    g = tmp_path / "g.json"
    g.write_text(f'{{"n": 3, "edges": [[0, 1], [1, 2]], "rotation": {PATH_ROTATIONS[case]}}}')
    mf = tmp_path / "m.json"
    code = 0 if case == "right" else 2
    assert main(["--manifest", str(mf), "embed", str(g), "--check"]) == code
    assert json.loads(mf.read_text())["exit_code"] == code
    assert ("malformed input" in capsys.readouterr().err) == bool(code)


# the path 0-1-2 as graph or rep JSON, with %s for one entry whose value is 1
BOOLEAN_CASES = {
    "edge_end": ("g.json", '{"n": 3, "edges": [[%s, 0], [1, 2]]}'),
    "rotation_entry": ("g.json", '{"n": 3, "edges": [[0, 1], [1, 2]], '
                                 '"rotation": {"0": [%s], "1": [0, 2], "2": [1]}}'),
    # chords of the unit circle; curve 0 starts at the point (1, 0)
    "coordinate": ("rep.json", '{"curves": {"0": [[%s, 1, 0, 1], [-1, 1, 0, 1]], '
                               '"1": [[0, 1, 1, 1], [0, 1, -1, 1]], '
                               '"2": [[-3, 5, 4, 5], [3, 5, 4, 5]]}, '
                               '"witness": {"circle": {"center": [0, 1, 0, 1], '
                               '"radius2": [1, 1]}}}'),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_CASES))
@pytest.mark.parametrize("one", ["1", "true"])
def test_json_booleans_are_not_integers(tmp_path, case, one, capsys):
    # JSON true loads as the bool True, which Python counts as the int 1: an
    # edge end, a rotation entry or a rep coordinate given as true passed as
    # 1, so `embed` wrote the edge [0, true] back out, `embed --check`
    # accepted the rotation and `verify` read the coordinate 1
    name, text = BOOLEAN_CASES[case]
    (tmp_path / name).write_text(text % one)
    g = tmp_path / "g.json"
    if case == "coordinate":
        g.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        argv = ["verify", str(tmp_path / name), str(g), "--outer", "both-ends"]
    else:
        argv = ["embed", str(g), "--out", str(tmp_path / "e.json")]
        argv += ["--check"] * (case == "rotation_entry")
    mf = tmp_path / "m.json"
    code = main(["--manifest", str(mf), *argv])
    assert json.loads(mf.read_text())["exit_code"] == code == (2 if one == "true" else 0)
    err = capsys.readouterr().err
    assert ("malformed input" in err and "True is not an integer" in err) == (code == 2)


# the rep of BOOLEAN_CASES' coordinate case, with %s for curve 0's first
# point, the witness's center and its radius2
SHAPED_REP = ('{"curves": {"0": [%s, [-1, 1, 0, 1]], "1": [[0, 1, 1, 1], [0, 1, -1, 1]], '
              '"2": [[-3, 5, 4, 5], [3, 5, 4, 5]]}, '
              '"witness": {"circle": {"center": %s, "radius2": %s}}}')
SHAPES = {
    "right": ("[1, 1, 0, 1]", "[0, 1, 0, 1]", "[1, 1]"),
    "point_of_2": ("[1, 1]", "[0, 1, 0, 1]", "[1, 1]"),
    "point_of_5": ("[1, 1, 0, 1, 7]", "[0, 1, 0, 1]", "[1, 1]"),
    "center_of_2": ("[1, 1, 0, 1]", "[0, 1]", "[1, 1]"),
    "center_of_5": ("[1, 1, 0, 1]", "[0, 1, 0, 1, 7]", "[1, 1]"),
    "radius2_of_1": ("[1, 1, 0, 1]", "[0, 1, 0, 1]", "[1]"),
    "radius2_of_3": ("[1, 1, 0, 1]", "[0, 1, 0, 1]", "[1, 1, 1]"),
}


@pytest.mark.parametrize("case", sorted(SHAPES))
def test_rep_numbers_have_their_length(tmp_path, case, capsys):
    # a point or center is four integers and a radius2 two: the first four
    # entries of a longer point or center were read and the rest dropped,
    # and a radius2 [1] was read as the integer 1
    rep = tmp_path / "rep.json"
    rep.write_text(SHAPED_REP % SHAPES[case])
    g = tmp_path / "g.json"
    g.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    mf = tmp_path / "m.json"
    code = main(["--manifest", str(mf), "verify", str(rep), str(g), "--outer", "both-ends"])
    assert json.loads(mf.read_text())["exit_code"] == code == (0 if case == "right" else 2)
    err = capsys.readouterr().err
    assert ("malformed input" in err and "is not a list of" in err) == (code == 2)


@pytest.mark.parametrize("key", ["2", "-1", "02"])
def test_verify_order_with_rep_rotation(tmp_path, key, capsys):
    # the graph as an edge list, so the rotation comes from the rep JSON;
    # renaming vertex 2's key there makes the input malformed
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 0\n")
    rep = tmp_path / "rep.json"
    assert main(["build", "circle", str(g), "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    data["rotation"][key] = data["rotation"].pop("2")
    rep.write_text(json.dumps(data))
    mf = tmp_path / "m.json"
    code = 0 if key == "2" else 2
    capsys.readouterr()
    assert main(["--manifest", str(mf), "verify", str(rep), str(g), "--order"]) == code
    assert json.loads(mf.read_text())["exit_code"] == code
    out, err = capsys.readouterr()
    if code:
        assert "malformed input" in err and f"rotation key '{key}'" in err
    else:
        assert json.loads(out)["order_preserving"]["ok"]


@pytest.mark.parametrize("key", [None, "01", "+1", " 1"])
def test_verify_rep_curve_keys(tmp_path, key, capsys):
    # the rep of a path with a curve that crosses nothing added under `key`,
    # after vertex 1's: a parse by int(key) let it replace vertex 1's curve,
    # and verify judged the wrong curve
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 3\n")
    rep = tmp_path / "rep.json"
    assert main(["build", "circle", str(g), "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    if key is not None:
        data["curves"][key] = [[100, 1, 100, 1], [101, 1, 100, 1]]
    rep.write_text(json.dumps(data))
    mf = tmp_path / "m.json"
    code = 0 if key is None else 2
    capsys.readouterr()
    assert main(["--manifest", str(mf), "verify", str(rep), str(g)]) == code
    assert json.loads(mf.read_text())["exit_code"] == code
    if code:
        assert f"curve key '{key}' is not a vertex id" in capsys.readouterr().err


def test_oracle_reads_rotation_from_graph_json(tmp_path):
    g = tmp_path / "w.json"
    out = tmp_path / "v.json"
    assert main(["gen", "wheel", "--n", "5", "--out", str(g)]) == 0
    assert "rotation" in json.loads(g.read_text())
    assert main(["oracle", str(g), "--mode", "both-ends", "--out", str(out)]) == 0
    v = json.loads(out.read_text())
    assert (v["status"], v["tried"]) == ("no", 1215)


@pytest.mark.parametrize("limit, status", [(1214, "unknown"), (1215, "no"), (10**6, "no")])
def test_oracle_limit(tmp_path, limit, status):
    # W_5 both-ends has 1215 vectors and none is realizable: a limit that
    # covers them all decides NO
    g = tmp_path / "w.json"
    out = tmp_path / "v.json"
    assert main(["gen", "wheel", "--n", "5", "--out", str(g)]) == 0
    assert main(["oracle", str(g), "--mode", "both-ends", "--limit", str(limit),
                 "--out", str(out)]) == 0
    v = json.loads(out.read_text())
    assert (v["status"], v["tried"], v["total"]) == (status, min(limit, 1215), 1215)


def test_oracle_rejects_nonplanar_graph(tmp_path, capsys):
    k5 = tmp_path / "k5.txt"
    k5.write_text("".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
    assert main(["oracle", str(k5)]) == 2
    assert "not planar" in capsys.readouterr().err


def test_readme_quick_demo(tmp_path, monkeypatch):
    # every command of README's quick demo block runs and exits 0
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("Quick demo:\n", 1)[1].split("```")[1]
    commands = [line.split() for line in block.strip().splitlines()]
    assert commands and all(argv[0] == "strandkit" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert "repro" in (argv[1] for argv in commands)


def test_repro_quick(tmp_path):
    assert main(["repro", "thm3", "--n", "20", "--seed", "1",
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["repro", "thm4", "--n", "15", "--seed", "1",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert main(["repro", "lem2", "--n", "20", "--seed", "1",
                 "--out", str(tmp_path / "c.json")]) == 0
    mf = tmp_path / "m.json"
    assert main(["--manifest", str(mf), "repro", "thm2-sample", "--samples", "50",
                 "--out", str(tmp_path / "d.json")]) == 0
    m = json.loads(mf.read_text())
    assert m["extra"]["note"].startswith("evidence")


def test_repro_thm4_checks_grid_bound(tmp_path, monkeypatch):
    # the grid bound is checked, not only recorded: below the built grid the
    # repro fails
    out = tmp_path / "b.json"
    argv = ["repro", "thm4", "--n", "15", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    grid = json.loads(out.read_text())["grid"]
    monkeypatch.setattr(cli, "GRID_CONSTANT", (max(grid) - 1) / 15)
    assert main(argv) == 1
    assert json.loads(out.read_text())["ok"] is False
