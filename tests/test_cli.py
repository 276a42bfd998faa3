"""Command-line interface: exit codes and emitted artifacts."""

import csv
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from util import disjoint_copies, sheared_surface

from veertrack import cli, surface
from veertrack.cli import main
from veertrack.delaunay import delaunay_violations, greedy_delaunay
from veertrack.fixtures import GOLD_PERIOD_T, gold, octagon, pillow, slope_torus, t2
from veertrack.flow import next_split, run_flow
from veertrack.surface import Surface, serialize_surface


@pytest.fixture
def torus_doc(tmp_path):
    path = tmp_path / "t2.json"
    path.write_text(serialize_surface(t2()))
    return str(path)


@pytest.fixture
def gold_doc(tmp_path):
    path = tmp_path / "gold.json"
    path.write_text(serialize_surface(gold()))
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, torus_doc):
        assert main(["validate", "--input", torus_doc]) == 0

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 1

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--input", str(path)]) == 1

    def test_invalid_surface(self, tmp_path):
        doc = json.loads(serialize_surface(t2()))
        doc["edges"]["e1"] = {"w": "1", "h": "1"}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 1

    def test_empty_surface_fails_validation(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"mode": "exact", "edges": {}, "triangles": []}))
        assert main(["validate", "--input", str(path)]) == 1
        assert "violation [empty]" in capsys.readouterr().out

    def test_area_disagreement_is_a_violation(self, tmp_path, capsys):
        # every triangle closes within validate's 1e-9, but the shoelace and
        # trapezoid areas differ by 3e-10, past area's cross-check
        doc = json.loads(serialize_surface(t2("float")))
        doc["edges"]["e3"] = [-0.6 + 5e-10, -1.3]
        path = tmp_path / "open.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 1
        assert "violation [area] triangle 0" in capsys.readouterr().out
        assert main(["report", "--input", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [v[0] for v in report["violations"]] == ["area", "area"]

    @pytest.mark.parametrize("build", [t2, gold], ids=["t2", "gold"])
    def test_validate_and_report_read_the_area_validate_summed(self, tmp_path, capsys, monkeypatch, build):
        s = build()
        expected = float(surface.area(s))

        def refused(_):
            raise AssertionError("area computed again")

        monkeypatch.setattr(surface, "area", refused)
        assert "area" not in vars(cli)  # the CLI holds no area of its own
        path = tmp_path / "s.json"
        path.write_text(serialize_surface(s))
        assert main(["validate", "--input", str(path)]) == 0
        assert capsys.readouterr().out.endswith(f", area {expected:.6g}\n")
        assert main(["report", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["area"] == expected

    @pytest.mark.parametrize(
        "text",
        [serialize_surface(t2()).replace('"3/10"', "1" * 5001), "[" * 200000 + "]" * 200000],
        ids=["5001-digit-integer", "200000-nested-lists"],
    )
    def test_unreadable_document_is_exit_1(self, tmp_path, capsys, text):
        # json.loads raises a plain ValueError and a RecursionError for these
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main(["validate", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: unreadable document")

    def test_non_utf8_input_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["validate", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: input is not UTF-8 text")

    def test_flow_below_float_range_is_exit_1(self, tmp_path, capsys):
        # report would divide by sigma = sqrt(float(1/10^400)) = 0
        doc = json.loads(serialize_surface(t2()))
        doc["flow"] = "1/1" + "0" * 400
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path)]) == 1
        assert "not a number within the float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--time", "0"], ["--time", "nan"], ["--time", "-1"], ["--time", "1", "--delta", "0"]],
        ids=["time-0", "time-nan", "time-negative", "delta-0"],
    )
    def test_contract_rejects_a_time_or_delta_it_cannot_fit(self, capsys, gold_doc, argv):
        assert main(["contract", "--input", gold_doc, *argv]) == 1
        assert "must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("time", [[], ["--time", "1"]], ids=["no-time", "time-1"])
    @pytest.mark.parametrize("eps", ["0", "-1", "nan"])
    def test_report_rejects_a_bad_eps(self, capsys, gold_doc, eps, time):
        assert main(["report", "--input", gold_doc, *time, "--eps", eps]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: eps must be finite and positive")

    @pytest.mark.parametrize("time", ["nan", "-1"])
    @pytest.mark.parametrize("command", ["flow", "analyze", "report"])
    def test_flow_commands_reject_a_time_they_cannot_flow(self, capsys, gold_doc, command, time):
        assert main([command, "--input", gold_doc, "--time", time]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: time must be nonnegative")

    def test_infinite_time_flows_until_max_events(self, capsys, gold_doc):
        assert main(["flow", "--input", gold_doc, "--time", "inf", "--max-events", "3"]) == 0
        assert capsys.readouterr().out.startswith("3 events in time inf\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--time", "3", "--max-events", "-5"],
            ["flow", "--time", "3", "--max-events", "0"],
            ["analyze", "--time", "5", "--max-events", "0"],
        ],
        ids=["flow-negative", "flow-0", "analyze-0"],
    )
    def test_flow_commands_reject_max_events_below_one(self, capsys, gold_doc, argv):
        assert main([*argv, "--input", gold_doc]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: max-events must be at least 1")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_contract_rejects_trials_below_one(self, capsys, gold_doc, trials):
        assert main(["contract", "--input", gold_doc, "--time", "2", "--trials", trials]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: trials must be at least 1")

    def test_contract_rejects_a_delta_that_does_not_move_the_heights(self, capsys, gold_doc):
        assert main(["contract", "--input", gold_doc, "--time", "2", "--delta", "1e-17"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: delta 1e-17 does not move the heights at float precision\n"

    def test_contract_rejects_a_delta_whose_distance_rounds_to_zero(self, capsys, gold_doc):
        assert main(["contract", "--input", gold_doc, "--time", "2", "--delta", "3e-16"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: delta 3e-16 is too small: the distance at time ")
        assert out.err.endswith(" rounds to 0\n")

    @pytest.mark.parametrize("delta", ["1e-14", "1e-15"])
    def test_contract_rejects_a_distance_within_roundoff(self, capsys, gold_doc, delta):
        # these fit alpha 1.80 and 0.09 to rounding noise; the torus rate is 2
        assert main(["contract", "--input", gold_doc, "--time", "2", "--delta", delta]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: delta {delta} is too small: the distance at time ")
        assert out.err.endswith(" roundoff units of the heights, below 4\n")

    def test_contract_exits_1_when_every_trial_is_dropped(self, capsys, gold_doc):
        # heights moved by 5 fail the start certificate or leave the word
        assert main(["contract", "--input", gold_doc, "--time", "4", "--delta", "5"]) == 1
        assert tuple(capsys.readouterr()) == (
            "", "error: every trial was dropped: no combinatorially shadowing pair\n"
        )

    @pytest.mark.parametrize("time", ["1e-300", "1e-200"])
    def test_contract_rejects_a_time_too_short_to_fit(self, capsys, gold_doc, time):
        assert main(["contract", "--input", gold_doc, "--time", time]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: time {float(time)} is too short to fit a decay rate\n"

    @pytest.mark.parametrize("command", ["flow", "analyze", "report", "contract", "close"])
    def test_time_past_the_float_range_flows_as_infinite_time(self, capsys, gold_doc, command):
        # e^{2T} overflows from T of about 355 up; float gold then flows
        # until its float degeneracy at t of about 19, as --time inf does;
        # analyze and close stop at their first return, long before it, and
        # report it (close refuses an infinite time)
        if command in ("analyze", "close"):
            assert main([command, "--input", gold_doc, "--time", "12"]) == 0
            report = capsys.readouterr().out
            for time in ("19", "400", "inf") if command == "analyze" else ("19", "400"):
                assert main([command, "--input", gold_doc, "--time", time]) == 0
                assert capsys.readouterr() == (report, "")
            return
        for time in ("400", "inf") if command in ("flow", "report") else ("400",):
            assert main([command, "--input", gold_doc, "--time", time]) == 2
            assert capsys.readouterr().err == "degeneracy: edge e2: new diagonal is axis-parallel\n"

    @pytest.mark.parametrize(
        "time, code, out, err",
        [
            ("16", 1, "no periodic return found in the time window\n", ""),
            ("400", 2, "", "degeneracy: edge e1: new diagonal is axis-parallel\n"),
        ],
    )
    def test_analyze_without_a_return_flows_the_whole_window(self, capsys, tmp_path, time, code, out, err):
        # the slope pi torus never returns: analyze flows the whole window,
        # and past the float range into its float degeneracy
        path = tmp_path / "pi.json"
        path.write_text(serialize_surface(slope_torus(math.pi)))
        assert main(["analyze", "--input", str(path), "--time", time]) == code
        assert tuple(capsys.readouterr()) == (out, err)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--time", "0"], "time must be finite and positive"),
            (["--time", "-1"], "time must be finite and positive"),
            (["--time", "nan"], "time must be finite and positive"),
            (["--delta", "nan"], "delta must be finite and nonnegative"),
            (["--delta", "inf"], "delta must be finite and nonnegative"),
            (["--delta", "-0.001"], "delta must be finite and nonnegative"),
        ],
        ids=["time-0", "time-negative", "time-nan", "delta-nan", "delta-inf", "delta-negative"],
    )
    def test_close_rejects_a_time_or_delta_it_cannot_search(self, capsys, gold_doc, argv, message):
        assert main(["close", "--input", gold_doc, *argv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {message}")

    def test_close_exits_1_without_a_recurrence_in_the_window(self, capsys, gold_doc):
        # gold's return spans GOLD_PERIOD_T, about 0.96, and a window of 0.5
        # holds one event, at t = 0.1
        assert main(["close", "--input", gold_doc, "--time", "0.5"]) == 1
        assert tuple(capsys.readouterr()) == ("", "error: no approximate recurrence within the search window\n")

    def test_close_with_zero_delta_does_not_perturb(self, capsys, gold_doc):
        assert main(["close", "--input", gold_doc]) == 0
        plain = capsys.readouterr().out
        assert main(["close", "--input", gold_doc, "--delta", "0", "--seed", "5"]) == 0
        assert capsys.readouterr().out == plain

    def test_structural_degeneracy_is_exit_2(self, tmp_path):
        reduced, _ = greedy_delaunay(pillow())
        path = tmp_path / "pillow.json"
        path.write_text(serialize_surface(reduced))
        assert main(["flow", "--input", str(path), "--time", "2.0"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["flow", "--time", "3"], ["analyze", "--time", "12"], ["contract", "--time", "2"], ["close"]],
        ids=["flow", "analyze", "contract", "close"],
    )
    def test_flow_commands_refuse_an_invalid_surface(self, capsys, tmp_path, argv):
        # e1 = (1, 1) opens both triangles of gold
        doc = json.loads(serialize_surface(gold()))
        doc["edges"]["e1"] = [1, 1]
        path = tmp_path / "open.json"
        path.write_text(json.dumps(doc))
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: violation [zero-sum] triangle 0: ")

    @pytest.mark.parametrize(
        "argv",
        [["flow", "--time", "3"], ["analyze", "--time", "8"], ["contract", "--time", "2"], ["close"]],
        ids=["flow", "analyze", "contract", "close"],
    )
    def test_flow_commands_refuse_a_disconnected_surface(self, capsys, tmp_path, argv):
        # the two copies of gold would split on e3 and e3b at once, a tie
        # that is not a degeneracy of either surface
        path = tmp_path / "two-gold.json"
        path.write_text(serialize_surface(disjoint_copies(gold())))
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: violation [connected] surface: the triangles form 2 components\n"

    def test_validate_and_report_refuse_a_disconnected_surface(self, capsys, tmp_path):
        path = tmp_path / "two-t2.json"
        path.write_text(serialize_surface(disjoint_copies(t2())))
        assert main(["validate", "--input", str(path)]) == 1
        assert capsys.readouterr().out == "violation [connected] surface: the triangles form 2 components\n"
        assert main(["report", "--input", str(path), "--time", "1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["valid"], doc["triangles"], doc["edges"]) == (False, 4, 6)
        assert doc["violations"] == [["connected", "surface", "the triangles form 2 components"]]

    def test_contract_drops_a_trial_that_leaves_the_chart_at_a_checkpoint(self, capsys, tmp_path):
        # a trial with the base's word whose event falls on the other side of
        # a checkpoint time is in another chart there
        path = tmp_path / "x3.json"
        path.write_text(serialize_surface(slope_torus((3 + math.sqrt(13)) / 2)))
        for delta in ("1.2", "1.5"):
            argv = ["contract", "--input", str(path), "--time", "4", "--delta", delta, "--seed", "1"]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out.startswith("alpha_hat 2.000000, ")
            assert out.endswith(", dropped 1\n")

    def test_flow_refuses_an_empty_surface(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"mode": "exact", "edges": {}, "triangles": []}))
        assert main(["flow", "--input", str(path), "--time", "3"]) == 1
        assert capsys.readouterr().err == "error: violation [empty] surface: no triangles\n"

    def test_report_reads_the_next_split_off_the_delaunay_surface(self, capsys, tmp_path):
        s = sheared_surface(t2(), random.Random(20))
        assert delaunay_violations(s) == ["e3"]
        path = tmp_path / "shear.json"
        path.write_text(serialize_surface(s))
        assert main(["report", "--input", str(path)]) == 0
        split = json.loads(capsys.readouterr().out)["next_split"]
        ev = next_split(greedy_delaunay(s)[0])
        assert split == {"edge": "e3", "t": ev.t, "direction": ev.direction}
        assert main(["flow", "--input", str(path), "--time", "1"]) == 0
        first = capsys.readouterr().out.splitlines()[1].split(",")
        assert (first[3], float(first[2])) == ("e3", ev.t)

    @pytest.mark.parametrize("build", [pillow, octagon])
    def test_report_on_a_tied_first_split_is_exit_2(self, capsys, tmp_path, build):
        path = tmp_path / "tied.json"
        path.write_text(serialize_surface(build()))
        assert main(["report", "--input", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("degeneracy: simultaneous split events on ")
        assert main(["flow", "--input", str(path), "--time", "3"]) == 2
        assert capsys.readouterr().err == out.err
        # a bad argument is still reported before the tie
        assert main(["report", "--input", str(path), "--time", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: time must be nonnegative")


class TestArtifacts:
    def test_delaunay_emits_flip_log(self, tmp_path, gold_doc):
        out = tmp_path / "flips.csv"
        reduced = tmp_path / "reduced.json"
        code = main([
            "delaunay", "--input", gold_doc,
            "--emit-flips", str(out), "--output", str(reduced),
        ])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["step", "edge", "old_w", "old_h", "new_w", "new_h"]
        json.loads(reduced.read_text())

    def test_flow_csv_lists_events(self, tmp_path, gold_doc):
        out = tmp_path / "events.csv"
        assert main([
            "flow", "--input", gold_doc, "--time", "2.0", "--csv", str(out)
        ]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][:4] == ["index", "threshold", "t", "edge"]
        assert len(rows) > 2

    def test_analyze_report_json(self, tmp_path, gold_doc):
        out = tmp_path / "report.json"
        assert main([
            "analyze", "--input", gold_doc,
            "--time", str(5 * GOLD_PERIOD_T), "--report", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["is_pseudo_anosov"]
        assert report["lam_w"] == pytest.approx(2.618033988749895, abs=1e-9)

    def test_close_outputs_fixed_point(self, tmp_path, gold_doc):
        out = tmp_path / "close.json"
        assert main([
            "close", "--input", gold_doc,
            "--delta", "1e-3", "--seed", "5", "--output", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert data["converged"]
        assert data["T_prime"] == pytest.approx(GOLD_PERIOD_T, abs=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [["close"], ["close", "--delta", "1e-3", "--seed", "5"],
         ["contract", "--time", "3", "--trials", "2"]],
        ids=["close", "close-delta", "contract"],
    )
    def test_exact_gold_matches_float_gold(self, capsys, tmp_path, gold_doc, argv):
        exact = tmp_path / "goldx.json"
        exact.write_text(serialize_surface(Surface(gold().triangles, gold().periods, "exact")))
        outputs = []
        for doc in (gold_doc, str(exact)):
            assert main([argv[0], "--input", doc, *argv[1:]]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out and outputs[0] == outputs[1]

    def test_track_and_report_run(self, capsys, torus_doc):
        assert main(["track", "--input", torus_doc, "--vertex-curves"]) == 0
        assert main(["report", "--input", torus_doc, "--time", "0.5"]) == 0
        text = capsys.readouterr().out
        assert "e1" in text


CLI_SESSION = """
import contextlib, io, json, sys
import veertrack.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = veertrack.cli.main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


def libraries_loaded(watched: set[str], *commands: list[str]) -> list[str]:
    """The sorted names among watched that a fresh interpreter has loaded
    after it imports veertrack.cli and runs each command through main,
    every one of which must exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", CLI_SESSION, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return sorted(set(json.loads(done.stdout)) & watched)


def test_numpy_free_commands_load_neither_numpy_nor_scipy(tmp_path, torus_doc, gold_doc):
    # nor dataclasses: the package writes its records as NamedTuples
    loaded = libraries_loaded(
        {"dataclasses", "numpy", "scipy"},
        ["validate", "--input", torus_doc],
        ["delaunay", "--input", torus_doc, "--output", str(tmp_path / "reduced.json")],
        ["track", "--input", torus_doc, "--vertex-curves"],
        ["track", "--input", torus_doc, "--direction", "horizontal", "--vertex-curves"],
        ["report", "--input", torus_doc, "--time", "0.5"],
        ["flow", "--input", gold_doc, "--time", "3"],
    )
    assert loaded == []


def test_numeric_commands_load_numpy_but_not_scipy(gold_doc):
    loaded = libraries_loaded(
        {"numpy", "scipy"},
        ["analyze", "--input", gold_doc, "--time", "5"],
        ["contract", "--input", gold_doc, "--time", "2"],
        ["close", "--input", gold_doc],
    )
    assert loaded == ["numpy"]


class TestParserReuse:
    """main keeps one parser per process; no call may see another's options."""

    def test_options_do_not_leak_between_calls(self, capsys, gold_doc, torus_doc):
        assert main(["flow", "--input", gold_doc, "--time", "3", "--max-events", "2"]) == 0
        assert capsys.readouterr().out.startswith("2 events in time 3.0")
        assert main(["flow", "--input", gold_doc, "--time", "3"]) == 0
        events = len(run_flow(greedy_delaunay(gold())[0], 3.0).events)
        assert events > 2
        assert capsys.readouterr().out.startswith(f"{events} events in time 3.0")
        assert main(["report", "--input", torus_doc, "--time", "0.5"]) == 0
        assert "events" in json.loads(capsys.readouterr().out)
        assert main(["report", "--input", torus_doc]) == 0
        assert "events" not in json.loads(capsys.readouterr().out)

    def test_bad_command_line_still_exits_2(self, capsys, gold_doc):
        for argv in (["flow", "--input", gold_doc], ["flow", "--input", gold_doc, "--time", "x"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: veertrack" in capsys.readouterr().err
        assert main(["flow", "--input", gold_doc, "--time", "1"]) == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated_documents(draw):
    """A fixture document with a few entries, at any depth, replaced by
    arbitrary JSON values."""
    doc = json.loads(serialize_surface(draw(st.sampled_from([t2, gold, pillow]))()))
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["flow", "marked_vertices"]))] = draw(JSON_VALUES)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            node[key] = draw(JSON_VALUES)
            break
    return doc


class TestDocumentFuzz:
    @given(doc=st.one_of(JSON_VALUES, mutated_documents()))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_validate_never_raises(self, tmp_path, doc):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) in (0, 1, 2)


WRITER_VALUES = st.recursive(
    JSON_VALUES | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 10**400, (), [], {}, "é∞ \x00\"\\"]),
    lambda kids: st.lists(kids, max_size=4).map(tuple) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=20,
)


class TestWriter:
    """surface.json_text against json.dumps(indent=2), byte for byte."""

    @given(obj=st.one_of(JSON_VALUES, WRITER_VALUES))
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert surface.json_text(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("build", [t2, gold, pillow, octagon])
    def test_surface_documents_match_json_dumps(self, build):
        for s in (build(), surface.rebase(build()), build().replace(lam=build().num.coerce(9) / 4)):
            assert serialize_surface(s) == json.dumps(surface.surface_doc(s), indent=2)

    def test_unserializable_values_raise_as_json_dumps_does(self):
        for obj in ({"a": [Fraction(1, 2)]}, [object()]):
            with pytest.raises(TypeError) as ours:
                surface.json_text(obj)
            with pytest.raises(TypeError) as theirs:
                json.dumps(obj, indent=2)
            assert str(ours.value) == str(theirs.value)


SUBCOMMAND_ARGV = [
    ["validate", "--input", "a.json"],
    ["delaunay", "--input", "a.json"],
    ["delaunay", "--input=a.json", "--emit-flips", "f.csv", "--output", "o.json"],
    ["track", "--input", "a.json"],
    ["track", "--vertex-curves", "--direction", "horizontal", "--input", "a.json"],
    ["flow", "--input", "a.json", "--time", "3"],
    ["flow", "--input", "a.json", "--time", "-1", "--max-events", "5", "--csv", "e.csv"],
    ["analyze", "--input", "a.json", "--time", "inf", "--report", "r.json"],
    ["analyze", "--input", "a.json", "--time", "5", "--max-events", "7"],
    ["contract", "--input", "a.json", "--time", "4", "--trials", "2", "--delta", "1e-3", "--seed", "3"],
    ["close", "--input", "a.json"],
    ["close", "--input", "a.json", "--time", "2", "--delta", "0.5", "--seed", "9", "--output", "c.json"],
    ["report", "--input", "a.json"],
    ["report", "--input", "a.json", "--time", "0.5", "--eps", "0.1"],
]

USAGE_ERROR_ARGV = [
    [],
    ["nosuch", "--input", "a.json"],
    ["--input", "a.json", "validate"],
    ["validate"],
    ["flow", "--input", "a.json"],
    ["flow", "--input", "a.json", "--time", "x"],
    ["flow", "--input", "a.json", "--time", "-1e3"],
    ["analyze", "--input", "a.json", "--time", "1", "--max-events", "1.5"],
    ["track", "--input", "a.json", "--direction", "diagonal"],
    ["validate", "--input", "a.json", "extra"],
    ["validate", "--input", "a.json", "--time", "3", "-x"],
    ["report", "--input", "a.json", "--", "--time", "1"],
    ["validate", "--input"],
    ["validate", "--inp", "a.json", "--inp", "b.json", "--bogus"],
]


class TestDispatch:
    """cli.parse_args against build_parser().parse_args: the same Namespace,
    and the same stderr, stdout and exit on a usage error or a help request."""

    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: " ".join(argv))
    def test_same_namespace(self, argv):
        args = cli.parse_args(argv)
        assert args == cli.build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_every_subcommand_is_dispatched(self):
        assert set(cli.build_parser().subcommands.choices) == {argv[0] for argv in SUBCOMMAND_ARGV}

    def test_reads_sys_argv_without_an_argument(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["veertrack", *SUBCOMMAND_ARGV[1]])
        assert cli.parse_args() == cli.build_parser().parse_args()

    @pytest.mark.parametrize(
        "argv", USAGE_ERROR_ARGV + [["-h"], ["validate", "-h"], ["close", "--help"]],
        ids=lambda argv: " ".join(argv) or "empty",
    )
    def test_same_usage_errors(self, capsys, argv):
        outcomes = []
        for parse in (cli.parse_args, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outcomes.append((exc.value.code, capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (0 if {"-h", "--help"} & set(argv) else 2)

    def test_main_exits_2_on_unrecognized_arguments(self, capsys, torus_doc):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", torus_doc, "extra", "--more"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("veertrack: error: unrecognized arguments: extra --more\n")


class TestPositivePower:
    """analyze's positive_power: the first positive power of the return
    matrix, or null when none is positive, as on the even slope tori,
    whose matrices keep branch e3's column at (0, 0, 1)."""

    @pytest.mark.parametrize("n, power", [(1, 3), (2, None)])
    def test_report(self, tmp_path, n, power):
        path = tmp_path / f"x{n}.json"
        path.write_text(serialize_surface(slope_torus((n + math.sqrt(n * n + 4)) / 2)))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(path), "--time", "16", "--report", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["is_pseudo_anosov"] and report["filling"]
        assert report["positive_power"] == power
        column = [row[report["branches"].index("e3")] for row in report["return_matrix"]]
        assert (column == [0, 0, 1]) == (power is None)
