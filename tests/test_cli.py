import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import laminate.cli
import laminate.cones
import laminate.normal
from laminate.cli import main
from laminate.errors import InputError
from laminate.traintracks import TrainTrack
from tests.conftest import ROOT, child_env, fixture_path

LISTING_GOLDEN = (Path(__file__).resolve().parent / "data"
                  / "cli_listing_golden.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def readme_examples():
    """The arguments of each command in the README's CLI section."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n")[1]
    block = section.split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("laminate ")]


def test_tri_info(capsys):
    code, out = run_cli(capsys, "tri", "info",
                        "--input", str(fixture_path("two_tet.tri")))
    assert code == 0
    payload = json.loads(out)
    assert payload["tet_count"] == 2
    assert payload["face_count"] == 4
    assert payload["vertex_count"] == 1
    assert payload["matching_equations"] == 12


def test_ns_build_vertex_link(capsys):
    vector = ",".join(["1", "1", "1", "1", "0", "0", "0", "0", "0", "0"] * 2)
    code, out = run_cli(capsys, "ns", "build",
                        "--input", str(fixture_path("two_tet.tri")),
                        "--vector", vector)
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 2
    assert payload["components"] == [
        {"chi": 2, "orientable": True, "genus_or_crosscap": 0,
         "disk_count": 8}]
    assert payload["vertex_linking"] is True
    assert payload["admissible"] is True


def test_ns_vertex_with_oracle(capsys):
    code, out = run_cli(capsys, "ns", "vertex",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--bound", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_agrees"] is True
    assert payload["count"] == len(payload["vertex_solutions"])


@pytest.mark.parametrize("solver", ["vertex_solutions",
                                    "fundamental_solutions"])
def test_oracle_catches_a_dropped_solution(capsys, monkeypatch, solver):
    original = getattr(laminate.cli, solver)
    monkeypatch.setattr(laminate.cli, solver,
                        lambda tri, include_octs, max_coeff_bits:
                        original(tri, include_octs, max_coeff_bits)[1:])
    command = "vertex" if solver == "vertex_solutions" else "fundamental"
    code, out = run_cli(capsys, "ns", command,
                        "--input", str(fixture_path("one_tet.tri")),
                        "--bound", "4")
    assert code == 0
    assert json.loads(out)["oracle_agrees"] is False


@pytest.mark.parametrize("name, argv", [
    ("build_surface", ("ns", "build", "--input",
                       str(fixture_path("two_tet.tri")), "--vector",
                       ",".join((["1"] * 4 + ["0"] * 6) * 2))),
    ("split", ("split", "traintrack", "--file",
               str(fixture_path("figure_sp1.json")), "--branch", "b")),
])
def test_commands_call_the_names_bound_on_the_cli(capsys, monkeypatch, name,
                                                  argv):
    def rebound(*args, **kwargs):
        raise InputError("rebound " + name)
    monkeypatch.setattr(laminate.cli, name, rebound)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["message"] == "rebound " + name


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_every_entry_point_gives_the_same_bytes(capsys, monkeypatch, argv):
    # runpy runs the module in a namespace that is not sys.modules'
    # "__main__", so the CLI must bind engine names in its own globals.
    monkeypatch.chdir(ROOT)
    code, out = run_cli(capsys, *argv)
    for entry in (["-m", "laminate.cli"],
                  ["-c", "import runpy; runpy.run_module('laminate.cli', "
                         "run_name='__main__')"]):
        proc = subprocess.run([sys.executable, *entry, *argv],
                              capture_output=True, cwd=ROOT, env=child_env())
        assert (proc.returncode, proc.stdout) == (code, out.encode()), \
            proc.stderr


def test_double_description_pair_cap_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(laminate.cones, "DD_PAIR_CAP", 1)
    code, out = run_cli(capsys, "ns", "vertex",
                        "--input", str(fixture_path("two_tet.tri")))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "WorkBudgetExceeded"
    assert error["message"].endswith(" ray pairs (budget 1)")


def test_orthant_walk_cap_is_refused(capsys, monkeypatch):
    # two_tet on quads: 9 orthants times 4 vertex solutions.
    monkeypatch.setattr(laminate.normal, "ORTHANT_WALK_CAP", 35)
    code, out = run_cli(capsys, "ns", "fundamental",
                        "--input", str(fixture_path("two_tet.tri")))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "WorkBudgetExceeded"
    assert error["message"] == \
        "the orthant walk makes 36 subset tests (budget 35)"


def test_oracle_bound_over_the_pattern_cap_is_refused(capsys):
    code, out = run_cli(capsys, "ns", "vertex",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--bound", "1000")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "WorkBudgetExceeded"
    assert error["message"].endswith(" patterns (budget 2000000)")


@pytest.mark.parametrize("case", json.loads(LISTING_GOLDEN.read_text()),
                         ids=lambda case: " ".join(case["argv"]))
def test_solution_listing_matches_golden(capsys, case):
    # Recorded while the CLI still ran its own orthant loop; the listing
    # through vertex_solutions and fundamental_solutions, with one oracle
    # check over all admissible points, must reproduce it byte for byte.
    argv = [str(fixture_path(a)) if a.endswith(".tri") else a
            for a in case["argv"]]
    assert run_cli(capsys, *argv) == (case["code"], case["stdout"])


def test_ns_fundamental(capsys):
    code, out = run_cli(capsys, "ns", "fundamental",
                        "--input", str(fixture_path("two_tet.tri")))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4


@pytest.mark.parametrize("command", ["vertex", "fundamental"])
def test_solution_listings_describe_their_options(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main(["ns", command, "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "verify against brute-force enumeration up to this" in text
    assert "include octagon orthants" in text


def test_bs_verdict(capsys, models):
    support = ",".join(str(j) for j in sorted(
        models["three_tet_normal_genus2.json"].support))
    code, out = run_cli(capsys, "bs", "verdict",
                        "--input", str(fixture_path("three_tet.tri")),
                        "--support", support)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "all_negative_chi"


def test_bs_zero_chi(capsys):
    code, out = run_cli(capsys, "bs", "zero-chi",
                        "--input", str(fixture_path("two_tet.tri")),
                        "--support", "6,16")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["vertices"][0][6] == "1/2"


def test_heegaard_enumerate(capsys, models):
    support = ",".join(str(j) for j in sorted(
        models["three_tet_almost_normal.json"].support))
    code, out = run_cli(capsys, "heegaard", "enumerate",
                        "--input", str(fixture_path("three_tet.tri")),
                        "--support", support, "-g", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert payload["count"] == 1
    assert payload["antichain"] is True


def test_heegaard_refusal_exit_code(capsys):
    support = ",".join(str(j) for j in
                       [0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23])
    code, out = run_cli(capsys, "heegaard", "enumerate",
                        "--input", str(fixture_path("three_tet.tri")),
                        "--support", support, "-g", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["kind"] == "UnboundedRefusal"


def test_genus_walk_over_budget_is_refused(capsys):
    # Of the sums of genus 250,000 only one has weight one on the octagon
    # sector, 249,998 copies of one fundamental and one of the other, and
    # its 2,249,993 disks pass the cap: refused before the walk starts.
    code, out = run_cli(capsys, "heegaard", "enumerate",
                        "--input", str(fixture_path("three_tet.tri")),
                        "--support", "2,4,11,13,15,20,21,22,23,29",
                        "-g", "250000")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "WorkBudgetExceeded"
    assert "1 sums of 2249993 disks" in error["message"]
    assert error["message"].endswith(" in all (budget 2000000)")


def test_genus_walk_counts_only_octagon_weight_one(capsys):
    # At genus 3000 the walk holds 3,000 sums of 89,970,000 disks, but
    # only one of weight one on the octagon sector, of 26,993 disks: it
    # is walked and listed.
    code, out = run_cli(capsys, "heegaard", "enumerate",
                        "--input", str(fixture_path("three_tet.tri")),
                        "--support", "2,4,11,13,15,20,21,22,23,29",
                        "-g", "3000")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["decompositions"] == [[2998, 1]]
    assert sum(payload["vectors"][0]) == 26993


def test_genus_walk_rejects_a_multiple_without_building_it(capsys):
    # The one sum of genus 30,000 of the one-fundamental model is 29,999
    # copies of its fundamental, 269,991 disks, over the surface disk cap
    # but within the walk's.  A multiple of three or more copies is never
    # connected, so it is rejected without being built: listed empty with
    # exit 0, not refused.
    code, out = run_cli(capsys, "heegaard", "enumerate",
                        "--input", str(fixture_path("three_tet.tri")),
                        "--support", "4,11,13,15,20,21,22,23",
                        "-g", "30000")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 0
    assert payload["vectors"] == []


def test_genus_below_two_is_input_error(capsys):
    code, out = run_cli(capsys, "heegaard", "enumerate",
                        "--input", str(fixture_path("three_tet.tri")),
                        "--support", "4,11,13,15,20,21,22,23", "-g", "1")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InputError"


def test_input_error_exit_code(capsys):
    code, out = run_cli(capsys, "tri", "info", "--input", "/nonexistent.tri")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InputError"


@pytest.mark.parametrize("option", [("--bound", "-1"), ("--bound", "0"),
                                    ("--max-coeff-bits", "-1")])
def test_out_of_range_limit_is_input_error(capsys, option):
    code, out = run_cli(capsys, "ns", "vertex",
                        "--input", str(fixture_path("one_tet.tri")), *option)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InputError"


def test_parse_error_reports_kind(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("0:0 -> 0:1 perm=0123\n")
    code, out = run_cli(capsys, "tri", "info", "--input", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "BadPermutation"


@pytest.mark.parametrize("argv, kind", [
    (("bs", "from-support", "--input", "{two_tet}", "--support", "1,x"),
     "InputError"),
    (("bs", "from-support", "--input", "{two_tet}", "--support", "0,20"),
     "InvalidSupport"),
    (("split", "traintrack", "--file", "{tmp}/missing.json"), "InputError"),
    (("split", "traintrack", "--file", "{tmp}/truncated.json"), "InputError"),
    (("split", "traintrack", "--file", "{tmp}/no_switches.json"),
     "InputError"),
    (("split", "traintrack", "--file", "{tmp}/latin1"), "InputError"),
    (("split", "traintrack", "--file", "{tmp}/string_branches.json"),
     "InputError"),
    (("split", "traintrack", "--file", "{tmp}/object_branches.json"),
     "InputError"),
    (("split", "traintrack", "--file", "{tmp}/float_end.json"), "InputError"),
    (("split", "traintrack", "--file", "{tmp}/bool_end.json"), "InputError"),
    (("split", "traintrack", "--file", "{tmp}/duplicate_branch.json"),
     "InputError"),
    (("split", "traintrack", "--file", "{tmp}/unknown_branch.json"),
     "InputError"),
    (("split", "traintrack", "--file", "{tmp}/end_twice.json"),
     "InputError"),
    (("tri", "info", "--input", "{tmp}/latin1"), "InputError"),
    (("tri", "info", "--input", "{tmp}/empty.tri"), "UnglueedFace"),
    (("tri", "info", "--input", "{two_tet}", "--output",
      "{tmp}/missing/out.json"), "InputError"),
], ids=["support not integers", "support out of range", "missing track",
        "bad track JSON", "bad track structure", "track not UTF-8",
        "track branches a string", "track branches an object",
        "track end index a float", "track end index a bool",
        "track branch named twice", "track switch names no branch",
        "track end attached twice",
        "triangulation not UTF-8", "empty triangulation",
        "output not writable"])
def test_bad_input_is_a_typed_input_error(capsys, tmp_path, argv, kind):
    (tmp_path / "truncated.json").write_text('{"branches": [')
    (tmp_path / "no_switches.json").write_text('{"branches": ["b"]}')
    # The figure's track with one field of the wrong JSON type.
    figure = json.dumps(json.loads(
        fixture_path("figure_sp1.json").read_text()))
    for name, old, new in (
            ("string_branches", '["p", "q", "r", "s", "b"]', '"pqrsb"'),
            ("object_branches", '["p", "q", "r", "s", "b"]',
             '{"p": 0, "q": 1, "r": 2, "s": 3, "b": 4}'),
            ("float_end", '["p", 1]', '["p", 1.0]'),
            ("bool_end", '["b", 0]', '["b", false]'),
            ("duplicate_branch", '"s", "b"]', '"s", "s", "b"]'),
            ("unknown_branch", '["s", 0]', '["u", 0]'),
            ("end_twice", '["s", 0]', '["r", 0]')):
        assert old in figure
        (tmp_path / (name + ".json")).write_text(figure.replace(old, new))
    (tmp_path / "latin1").write_bytes(b"\xff\xfe0:0 -> 0:1 perm=1023\n")
    (tmp_path / "empty.tri").write_text("")
    argv = [a.format(tmp=tmp_path, two_tet=fixture_path("two_tet.tri"))
            for a in argv]
    if argv[0] == "split":
        argv += ["--branch", "b"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == kind


def test_split_traintrack(capsys):
    code, out = run_cli(capsys, "split", "traintrack",
                        "--file", str(fixture_path("figure_sp1.json")),
                        "--branch", "b")
    assert code == 0
    payload = json.loads(out)
    assert payload["cover"]["covered"] is True
    assert payload["subtrack"]["central_in_left"] is True
    assert payload["subtrack"]["central_in_right"] is True
    assert set(payload["results"]) == {"left", "central", "right"}
    assert payload["results"]["left"]["new_branches"] == ["b'"]


def test_split_traintrack_honours_max_coeff_bits(capsys):
    # The cover check's extreme rays have 1-bit coefficients.
    argv = ("split", "traintrack", "--file",
            str(fixture_path("figure_sp1.json")), "--branch", "b",
            "--max-coeff-bits")
    code, out = run_cli(capsys, *argv, "0")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "CoefficientBudgetExceeded"
    code, out = run_cli(capsys, *argv, "1")
    assert code == 0
    assert json.loads(out)["cover"]["covered"] is True


def test_split_not_splittable(capsys, tmp_path):
    # A one-switch loop, its two ends on one side (weight-cone row 2x = 0)
    # or on opposite sides (x - x: an empty row, which every weight meets).
    for sides, row in ((([["x", 0], ["x", 1]], []), ((0, 2),)),
                       (([["x", 0]], [["x", 1]]), ())):
        track = {"branches": ["x"],
                 "switches": [{"side1": sides[0], "side2": sides[1]}]}
        assert TrainTrack.from_json_dict(track).weight_cone().matrix == (row,)
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(track))
        code, out = run_cli(capsys, "split", "traintrack",
                            "--file", str(path), "--branch", "x")
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "NotSplittable"


def test_byte_identical_reruns(capsys):
    commands = [
        ("tri", "info", "--input", str(fixture_path("three_tet.tri"))),
        ("ns", "vertex", "--input", str(fixture_path("one_tet.tri"))),
        ("split", "traintrack", "--file",
         str(fixture_path("figure_sp1.json")), "--branch", "b"),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_byte_identical_across_processes():
    # Hash randomization must not leak into the output ordering.
    argv = [sys.executable, "-m", "laminate.cli", "ns", "fundamental",
            "--input", str(fixture_path("two_tet.tri")), "--almost-normal"]
    outputs = []
    for seed in ("0", "424242"):
        proc = subprocess.run(argv, capture_output=True,
                              env=child_env(PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_pretty_only_adds_whitespace(capsys):
    plain = run_cli(capsys, "tri", "info",
                    "--input", str(fixture_path("one_tet.tri")))
    pretty = run_cli(capsys, "tri", "info",
                     "--input", str(fixture_path("one_tet.tri")), "--pretty")
    assert plain[0] == pretty[0] == 0
    assert json.loads(plain[1]) == json.loads(pretty[1])
    assert plain[1] != pretty[1]


def test_output_file(capsys, tmp_path):
    target = tmp_path / "info.json"
    code, out = run_cli(capsys, "tri", "info",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["tet_count"] == 1


def test_thread_cap_validated(capsys, monkeypatch):
    for bad in ("0", "x"):
        monkeypatch.setenv("LAMINATE_THREADS", bad)
        code, out = run_cli(capsys, "tri", "info",
                            "--input", str(fixture_path("one_tet.tri")))
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "InputError"
    monkeypatch.setenv("LAMINATE_THREADS", "4")
    code, _ = run_cli(capsys, "tri", "info",
                      "--input", str(fixture_path("one_tet.tri")))
    assert code == 0


def test_commands_do_not_mutate_inputs(capsys):
    path = fixture_path("two_tet.tri")
    before = path.read_bytes()
    run_cli(capsys, "ns", "fundamental", "--input", str(path))
    assert path.read_bytes() == before


def test_ns_build_reports_inadmissible_embeddable_vector(capsys):
    code, out = run_cli(capsys, "ns", "build",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--vector", "0,0,0,0,0,0,0,2,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is False
    assert payload["admissibility_messages"] == [
        "an octagon coordinate exceeds 1"]
    assert payload["disk_count"] == 2


def test_ns_build_rejects_non_matching_vector(capsys):
    code, out = run_cli(capsys, "ns", "build",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--vector", "0,0,0,0,1,0,0,1,0,0")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "Inadmissible"


def test_ns_build_over_the_disk_cap_is_refused(capsys):
    # The README's vertex link of two_tet, 10^9 times over: refused before
    # a single disk is allocated.
    vector = ",".join((["1000000000"] * 4 + ["0"] * 6) * 2)
    code, out = run_cli(capsys, "ns", "build",
                        "--input", str(fixture_path("two_tet.tri")),
                        "--vector", vector)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "WorkBudgetExceeded"
    assert error["message"] == \
        "the surface has 8000000000 disks (budget 200000)"


def test_ns_build_rejects_wrong_length_vector(capsys):
    # is_admissible's length check, the first that build_surface runs.
    code, out = run_cli(capsys, "ns", "build",
                        "--input", str(fixture_path("two_tet.tri")),
                        "--vector", ",".join(["0"] * 19))
    assert code == 1
    assert out == ('{"error":{"kind":"Inadmissible","message":'
                   '"vector has length 19, expected 20"}}\n')


def test_ns_build_rejects_malformed_vector(capsys):
    code, out = run_cli(capsys, "ns", "build",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--vector", "1,x,3")
    assert code == 1
    assert out == ('{"error":{"kind":"Inadmissible","message":'
                   '"vector must be comma-separated integers"}}\n')


def test_bs_rejects_malformed_support(capsys):
    # The same parse as a vector's, with its own kind and noun.
    code, out = run_cli(capsys, "bs", "from-support",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--support", "1,x,3")
    assert code == 1
    assert out == ('{"error":{"kind":"InputError","message":'
                   '"support must be comma-separated integers"}}\n')


def test_integer_lists_skip_empty_parts_and_spaces(capsys):
    # " 4, ,3," is the support {3, 4}: spaces around an entry and empty
    # parts are skipped, for a vector and a support alike.
    code, out = run_cli(capsys, "bs", "from-support",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--support", " 4, ,3,")
    assert code == 0
    assert json.loads(out)["support"] == [3, 4]
    code, out = run_cli(capsys, "ns", "build",
                        "--input", str(fixture_path("one_tet.tri")),
                        "--vector", " 0,0,0,0,1,, 0,0,0,0,0 ")
    assert code == 0
    assert json.loads(out)["admissible"] is True


def test_max_coeff_bits_refusal(capsys):
    code, out = run_cli(capsys, "ns", "vertex",
                        "--input", str(fixture_path("three_tet.tri")),
                        "--max-coeff-bits", "1")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "CoefficientBudgetExceeded"


@pytest.mark.parametrize("argv", [
    ("bs", "from-support"),
    ("bs", "verdict"),
    ("bs", "zero-chi"),
    ("heegaard", "enumerate", "-g", "2"),
])
def test_model_commands_honour_max_coeff_bits(capsys, argv):
    # The Hilbert basis of this support needs 3-bit coefficients.
    code, out = run_cli(capsys, *argv,
                        "--input", str(fixture_path("three_tet.tri")),
                        "--support", "2,4,11,13,15,20,21,22,23,29",
                        "--max-coeff-bits", "2")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "CoefficientBudgetExceeded"
