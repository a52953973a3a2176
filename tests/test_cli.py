"""Command-line behavior: outputs, exit codes, determinism, round-trips."""
import contextlib
import csv
import io
import json
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricap.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(cwd, *argv):
    """Run the CLI in a fresh process under a 1.5 GB address-space cap, so
    that a size check gone missing ends in a MemoryError, not in a machine
    out of memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "toricap.cli", *argv], cwd=cwd, env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=cap, capture_output=True, text=True, timeout=60)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no integer string limit"
)

BOUNDARY_COMMANDS = [
    ["spectrum", "--K", "2"],
    ["spectrum", "--K", "2", "--out", "table.txt"],
    ["round"],
    ["round", "--out", "round.json"],
]

SQUARE = '{"type":"polygon","vertices":[["0","1"],["1","1"],["1","0"]]}'


@pytest.fixture
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE)
    return str(path)


@pytest.fixture
def tri11_json(tmp_path):
    path = tmp_path / "tri11.json"
    path.write_text('{"type":"polygon","vertices":[["0","1"],["1","0"]]}')
    return str(path)


@pytest.fixture
def tri12_json(tmp_path):
    path = tmp_path / "tri12.json"
    path.write_text('{"type":"polygon","vertices":[["0","2"],["1","0"]]}')
    return str(path)


class TestDiag:
    def test_ellipsoid(self, capsys):
        code, out, _ = run_cli(capsys, "diag", "--ellipsoid", "3,6")
        assert code == 0 and out.strip() == "2"

    def test_ball_b6(self, capsys):
        code, out, _ = run_cli(capsys, "diag", "--ellipsoid", "1,1,1")
        assert code == 0 and out.strip() == "1/3"

    def test_polygon_file(self, capsys, square_json):
        code, out, _ = run_cli(capsys, "diag", "--polygon", square_json)
        assert code == 0 and out.strip() == "1"

    def test_inline_polygon(self, capsys):
        code, out, _ = run_cli(
            capsys, "diag", "--polygon", '{"type":"polygon","vertices":[["0","2"],["1","0"]]}'
        )
        assert code == 0 and out.strip() == "2/3"


class TestSupport:
    def test_square_direction(self, capsys, square_json):
        code, out, _ = run_cli(capsys, "support", "--polygon", square_json, "--direction", "2,3")
        assert code == 0 and out.strip() == "5"

    @pytest.mark.parametrize("direction", ["1", "1,2,3"])
    def test_direction_needs_two_components(self, capsys, square_json, direction):
        code, out, err = run_cli(capsys, "support", "--polygon", square_json, "--direction", direction)
        assert (code, out) == (2, "")
        assert err == f"error: --direction takes two comma-separated values, got {direction!r}\n"


class TestRound:
    def test_prints_every_margin(self, capsys, square_json):
        code, out, _ = run_cli(capsys, "round", "--polygon", square_json, "--tau", "1e-2", "--v", "0.1")
        margins = json.loads(out)["margins"]
        assert code == 0 and list(margins) == [
            "resolution", "slope_start_low", "slope_start_high", "slope_end", "g_start", "g_end", "containment"
        ]
        assert all(float(slack) > 0 for slack in margins.values())
        assert float(margins["slope_end"]) == pytest.approx(10.0)  # g'(x_max) = -20 against -1/v = -10


class TestGh:
    def test_spectrum_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "gh", "--ellipsoid", "1,2", "--k", "1..5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [item["value"] for item in payload] == ["1", "2", "2", "3", "4"]

    def test_minmax_on_polygon(self, capsys, tri11_json):
        code, out, _ = run_cli(
            capsys, "gh", "--polygon", tri11_json, "--k", "1..4", "--via", "minmax", "--format", "json"
        )
        assert code == 0
        assert [item["value"] for item in json.loads(out)] == ["1", "1", "2", "2"]

    def test_both_paths_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "gh", "--ellipsoid", "1,2", "--k", "3", "--via", "both", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert {item["value"] for item in payload} == {"2"}

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "gh", "--ellipsoid", "1,2", "--k", "3", "--format", "json")
        item = json.loads(out)[0]
        assert item["k"] == 3 and item["value"] == "2"
        assert "minimizer" in item

    def test_both_paths_disagreeing_exits_one_at_that_k(self, capsys, monkeypatch):
        import toricap.cli
        from toricap.capacities import gh_spectrum_ellipsoid

        def off_at_three(e, k):
            report = gh_spectrum_ellipsoid(e, k)
            return replace(report, value=report.value + 1) if k == 3 else report

        monkeypatch.setattr(toricap.cli.capacities, "gh_spectrum_ellipsoid", off_at_three)
        code, out, err = run_cli(capsys, "gh", "--ellipsoid", "1,2", "--k", "1..6", "--via", "both")
        assert (code, out, err) == (1, "", "path disagreement at k=3\n")

    def test_spectrum_via_needs_ellipsoid(self, capsys, tri11_json):
        code, _, err = run_cli(capsys, "gh", "--polygon", tri11_json, "--k", "2", "--via", "spectrum")
        assert code == 2
        assert "ellipsoid" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["round", "--tau", "1"], "x extent a is outside the float range (inf as a float)"),
        (["spectrum", "--K", "1"], "x extent a is outside the float range (inf as a float)"),
    ],
)
def test_polygons_past_the_float_range_exit_2(capsys, argv, message):
    huge = '{"type":"polygon","vertices":[["0","1e400"],["1e400","0"]]}'
    assert run_cli(capsys, *argv, "--polygon", huge) == (2, "", f"error: the polygon's {message}\n")


@pytest.mark.parametrize(
    "vertex, tau, message",
    [
        ("1e-400", "1e-300", "x extent a is outside the float range (0.0 as a float)"),
        ("1e307", "1e304", "size (the resolution floor's L) is outside the float range (inf as a float)"),
    ],
)
def test_round_names_the_extent_outside_the_float_range(capsys, vertex, tau, message):
    polygon = json.dumps({"type": "polygon", "vertices": [["0", vertex], [vertex, "0"]]})
    assert run_cli(capsys, "round", "--polygon", polygon, "--tau", tau) == (2, "", f"error: the polygon's {message}\n")


class TestSpectrum:
    def test_round_ball_rows(self, capsys, tri11_json):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--polygon", tri11_json, "--K", "2.1", "--tau", "1e-3",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        keyed = {(int(r["l"]), int(r["m"])): r for r in rows}
        assert (1, 1) in keyed
        assert abs(float(keyed[(1, 1)]["action"]) - 1.0) < 0.05
        assert keyed[(1, 1)]["cz_e"] == "5"
        assert keyed[(1, 1)]["cz_h"] == "4"

    def test_low_cutoff_empty(self, capsys, tri11_json):
        code, out, _ = run_cli(
            capsys, "spectrum", "--polygon", tri11_json, "--K", "0.5", "--format", "csv"
        )
        assert code == 0
        assert list(csv.DictReader(io.StringIO(out))) == []

    def test_e12_rows(self, capsys, tri12_json):
        code, out, _ = run_cli(
            capsys, "spectrum", "--polygon", tri12_json, "--K", "2.05", "--format", "csv"
        )
        assert code == 0
        pairs = {(int(r["l"]), int(r["m"])) for r in csv.DictReader(io.StringIO(out))}
        assert {(1, 0), (0, 1), (2, 1), (1, 1)} <= pairs
        assert pairs <= {(1, 0), (0, 1), (2, 1), (1, 1), (2, 0)}

    def test_boundary_polyline_written(self, capsys, tri11_json, tmp_path):
        target = tmp_path / "boundary.csv"
        code, _, _ = run_cli(
            capsys,
            "spectrum", "--polygon", tri11_json, "--K", "1.05",
            "--boundary-out", str(target), "--samples", "32",
        )
        assert code == 0
        with target.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32

    @pytest.mark.parametrize("argv", BOUNDARY_COMMANDS)
    def test_bad_samples_writes_nothing(self, capsys, tri11_json, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, *argv, "--polygon", tri11_json, "--samples", "1", "--boundary-out", "rim.csv"
        )
        assert (code, out, err) == (2, "", "error: need at least two samples\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tri11.json"]

    @pytest.mark.parametrize("argv", BOUNDARY_COMMANDS)
    def test_samples_size_is_capped(self, capsys, tri11_json, tmp_path, monkeypatch, argv):
        # checked before the list of points is built, so no file is written
        monkeypatch.chdir(tmp_path)
        options = ["--polygon", tri11_json, "--boundary-out", "rim.csv", "--samples"]
        done = run_capped(tmp_path, *argv, *options, "100000000")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: --samples 100000000 is too large: the limit is 1000000\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tri11.json"]
        monkeypatch.setattr("toricap.cli._SIZE_LIMIT", 5)  # the limit itself is accepted
        code, out, err = run_cli(capsys, *argv, *options, "6")
        assert (code, out, err) == (2, "", "error: --samples 6 is too large: the limit is 5\n")
        assert run_cli(capsys, *argv, *options, "5")[0] == 0
        assert len((tmp_path / "rim.csv").read_text().splitlines()) == 6  # the header and 5 points

    @pytest.mark.parametrize("argv", BOUNDARY_COMMANDS)
    def test_unopenable_boundary_out_writes_nothing(self, capsys, tri11_json, tmp_path, monkeypatch, argv):
        # the boundary file is opened before the table or JSON is printed
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--polygon", tri11_json, "--boundary-out", "nodir/rim.csv")
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tri11.json"]

    @pytest.mark.parametrize("extra", [[], ["--out", "table.txt", "--boundary-out", "rim.csv"]])
    def test_family_limit_exits_before_output(self, capsys, tri11_json, tmp_path, monkeypatch, extra):
        # the search box of tri11 at K = 1e5 holds about 4e10 directions
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "spectrum", "--polygon", tri11_json, "--K", "1e5", *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: cutoff 100000 needs ") and err.endswith("above the limit of 100000\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tri11.json"]


class TestEnclose:
    def test_tri12_contains_itself(self, capsys, tri12_json):
        code, out, _ = run_cli(capsys, "enclose", "--polygon", tri12_json)
        assert code == 0
        payload = json.loads(out)
        assert any(p["x_axis"] == "1" and p["y_axis"] == "2" for p in payload["found"])

    def test_tri11_contains_itself(self, capsys, tri11_json):
        code, out, _ = run_cli(capsys, "enclose", "--polygon", tri11_json)
        payload = json.loads(out)
        assert any(p["x_axis"] == "1" and p["y_axis"] == "1" for p in payload["found"])

    def test_unbounded_interval_lists_its_attained_lower_end(self, capsys):
        code, out, _ = run_cli(
            capsys, "enclose", "--polygon", '{"type":"polygon","vertices":[["0","1"],["1","1"],["20","0"]]}'
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["interval"] == {"lower": "20", "lower_attained": True, "upper": None}
        assert [(p["x_axis"], p["y_axis"]) for p in payload["found"]] == [("20", "20/19")]

    def test_infeasible_rectangle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enclose", "--polygon",
            '{"type":"polygon","vertices":[["0","1"],["3","1"],["3","0"]]}',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] == []
        assert "note" in payload


class TestLagcap:
    def test_ball(self, capsys):
        code, out, _ = run_cli(capsys, "lagcap", "--shape", "ball", "--capacity", "1", "--n", "3")
        assert code == 0 and out.strip() == "1/3"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "0"], "error: ellipsoid needs at least one axis"),
            (["--capacity", "0"], "error: ellipsoid axes must be positive"),
            (["--capacity=-1/2", "--n", "2"], "error: ellipsoid axes must be positive"),
        ],
    )
    def test_bad_ball_is_input_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "lagcap", "--shape", "ball", *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [message]

    def test_ball_dimension_is_capped(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, "lagcap", "--shape", "ball", "--n", "1000001")
        assert (code, out) == (2, "")
        assert err == "error: --n 1000001 is too large for a ball: the limit is 1000000\n"
        monkeypatch.setattr("toricap.cli._SIZE_LIMIT", 5)  # the limit itself is accepted
        assert run_cli(capsys, "lagcap", "--shape", "ball", "--n", "5")[:2] == (0, "1/5\n")
        assert run_cli(capsys, "lagcap", "--shape", "ball", "--n", "6")[0] == 2

    def test_projective(self, capsys):
        code, out, _ = run_cli(capsys, "lagcap", "--shape", "projective", "--n", "2")
        assert code == 0 and out.strip() == "1/3"

    def test_ellipsoid4_needs_two_axes(self, capsys):
        code, out, err = run_cli(capsys, "lagcap", "--shape", "ellipsoid4", "--axes", "1")
        assert (code, out) == (2, "")
        assert err == "error: --axes takes two comma-separated values, got '1'\n"

    @pytest.mark.parametrize("axes", ["3,6", "6,3"])
    def test_ellipsoid4_sorts_axes(self, capsys, axes):
        code, out, _ = run_cli(capsys, "lagcap", "--shape", "ellipsoid4", "--axes", axes)
        assert code == 0 and out.strip() == "2"

    def test_toric_lower_bound(self, capsys, square_json):
        code, out, _ = run_cli(capsys, "lagcap", "--shape", "toric", "--polygon", square_json)
        assert code == 0
        assert json.loads(out) == {"lower_bound": "1"}

    def test_toric_without_polygon_names_only_lagcap_options(self, capsys):
        code, out, err = run_cli(capsys, "lagcap", "--shape", "toric")
        assert code == 2 and out == ""
        assert err.strip() == "error: provide --polygon"

    def test_empty_polygon_on_domain_command_names_both_options(self, capsys):
        code, _, err = run_cli(capsys, "diag", "--polygon", "")
        assert code == 2
        assert err.strip() == "error: provide exactly one of --ellipsoid or --polygon"


class TestLedger:
    def test_canonical_building(self, capsys):
        code, out, _ = run_cli(
            capsys, "ledger", "--canonical-ball-building", "3", "--epsilon", "1/10"
        )
        assert code == 0
        report = json.loads(out)
        assert all(item["status"] == "pass" for item in report)

    def test_canonical_building_size_is_capped(self, capsys, monkeypatch):
        # checked before anything is built; the limit itself is accepted
        monkeypatch.setattr("toricap.cli._BUILDING_N_LIMIT", 5)
        assert run_cli(capsys, "ledger", "--canonical-ball-building", "5", "--epsilon", "1/10")[0] == 0
        code, out, err = run_cli(capsys, "ledger", "--canonical-ball-building", "6", "--epsilon", "1/10")
        assert (code, out, err) == (2, "", "error: --canonical-ball-building 6 is too large: the limit is 5\n")
        monkeypatch.undo()
        code, out, err = run_cli(capsys, "ledger", "--canonical-ball-building", "100000000", "--epsilon", "1/1000000000")
        assert (code, out) == (2, "")
        assert err == "error: --canonical-ball-building 100000000 is too large: the limit is 100000\n"

    def test_min_punctures(self, capsys):
        code, out, _ = run_cli(capsys, "ledger", "--min-punctures", "--n", "4", "--k", "4")
        assert code == 0 and out.strip() == "5"

    def test_counts(self, capsys):
        code, out, _ = run_cli(capsys, "ledger", "--counts", "--n", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["gw_tangency_count"] == 120
        assert payload["torus_descendant_zero_sum"] == 120

    @needs_digit_limit
    @pytest.mark.parametrize("digits, n_max", [(640, 311), (4300, 1559)])
    def test_counts_name_their_largest_n(self, capsys, digits, n_max):
        # n_max is the largest n with (n-1)! below 10**digits
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(digits)
        try:
            code, out, _ = run_cli(capsys, "ledger", "--counts", "--n", str(n_max))
            assert code == 0 and len(str(json.loads(out)["gw_tangency_count"])) <= digits
            code, out, err = run_cli(capsys, "ledger", "--counts", "--n", str(n_max + 1))
        finally:
            sys.set_int_max_str_digits(old)
        assert (code, out) == (2, "")
        assert err == f"error: --n {n_max + 1} is too large: the counts (n-1)! print in full only for n <= {n_max}\n"

    @needs_digit_limit
    def test_counts_without_digit_limit(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run_cli(capsys, "ledger", "--counts", "--n", "1600")
            assert code == 0 and json.loads(out)["gw_tangency_count"] > 10**4300
        finally:
            sys.set_int_max_str_digits(old)

    def test_partition_solver_large_n(self, capsys):
        code, out, _ = run_cli(capsys, "ledger", "--partition", "--n", "1000", "--epsilon", "1/1001")
        assert code == 0
        assert json.loads(out) == [["1/1000"] * 1000 + ["1/1001"]]

    def test_partition_blow_up_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "ledger", "--partition", "--n", "100", "--epsilon", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: at least ") and "candidate partitions" in err

    @pytest.mark.parametrize("n, epsilon, areas", [
        ("100000", "1/5000", 2087 * 100001), ("1000000000", "1/10000000000", 1000000001),
    ])
    def test_partition_area_count_is_capped(self, tmp_path, n, epsilon, areas):
        # checked on the candidates' excesses, before any area is built
        done = run_capped(tmp_path, "ledger", "--partition", "--n", n, "--epsilon", epsilon)
        message = f"error: the candidate partitions hold {areas} areas, above the limit of 1000000\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message)

    def test_forced_morse(self, capsys):
        code, out, _ = run_cli(capsys, "ledger", "--forced-morse", "--n", "3")
        assert code == 0 and json.loads(out) == [2, 2, 2, 2]

    def test_forced_morse_size_is_capped(self, capsys, monkeypatch):
        # checked before the list of n + 1 indices is built
        code, out, err = run_cli(capsys, "ledger", "--forced-morse", "--n", "1000000000000")
        assert (code, out) == (2, "")
        assert err == "error: --n 1000000000000 is too large for the forced Morse indices: the limit is 1000000\n"
        monkeypatch.setattr("toricap.cli._SIZE_LIMIT", 5)  # the limit itself is accepted
        assert run_cli(capsys, "ledger", "--forced-morse", "--n", "5")[:2] == (0, "[4, 4, 4, 4, 4, 4]\n")
        code, out, err = run_cli(capsys, "ledger", "--forced-morse", "--n", "6")
        assert (code, out) == (2, "")
        assert err == "error: --n 6 is too large for the forced Morse indices: the limit is 5\n"

    def test_partition_check_valid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ledger", "--partition", "--n", "3", "--epsilon", "1/10",
            "--areas", "1/3,1/3,1/3,1/10",
        )
        assert code == 0 and json.loads(out)["valid"]

    def test_partition_check_invalid_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ledger", "--partition", "--n", "3", "--epsilon", "1/10",
            "--areas", "2/3,1/3,1/3,-7/30",
        )
        assert code == 1
        assert not json.loads(out)["valid"]

    def test_partition_solver(self, capsys):
        code, out, _ = run_cli(capsys, "ledger", "--partition", "--n", "2", "--epsilon", "1/5")
        assert code == 0
        assert json.loads(out) == [["1/2", "1/2", "1/5"]]

    def test_building_file_round_trip(self, capsys, tmp_path):
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        path = tmp_path / "building.json"
        path.write_text(building_to_json(canonical_ball_building(2, "1/5")))
        code, out, _ = run_cli(capsys, "ledger", "--building", str(path))
        assert code == 0
        assert all(item["status"] == "pass" for item in json.loads(out))

    def test_mutated_building_fails_with_exit_one(self, capsys, tmp_path):
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        payload = json.loads(building_to_json(canonical_ball_building(2, "1/5")))
        payload["nodes"][1]["index"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "ledger", "--building", str(path))
        assert code == 1
        report = json.loads(out)
        assert any(item["status"] == "fail" for item in report)


class TestErrorsAndDeterminism:
    def test_invalid_polygon_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "diag", "--polygon", '{"type":"polygon","vertices":[["0","1"],["1","2"],["2","0"]]}'
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "payload",
        [
            '{"type":"polygon","vertices":[[0.5,"1"],["1","0"]]}',  # float coordinate
            '[["0","1"],["1","0"]]',  # top-level array, not an object
            '{"type":"polygon","vertices":[["0"],["1","0"]]}',  # vertex missing a coordinate
        ],
    )
    def test_malformed_polygon_file_is_input_error(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code, _, err = run_cli(capsys, "diag", "--polygon", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, field",
        [('{"type":"polygon"}', "vertices"), ('{"type":"ellipsoid"}', "axes")],
    )
    def test_polygon_file_missing_field_is_named(self, capsys, tmp_path, payload, field):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code, _, err = run_cli(capsys, "diag", "--polygon", str(path))
        assert code == 2
        assert err == f"error: malformed input: missing field '{field}'\n"

    @pytest.mark.parametrize("field", ["nodes", "id", "energy", "cz"])
    def test_building_file_missing_field_is_named(self, capsys, tmp_path, field):
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        payload = json.loads(building_to_json(canonical_ball_building(2, "1/5")))
        if field == "nodes":
            del payload["nodes"]
        elif field == "cz":
            del payload["nodes"][0]["punctures"][0]["cz"]
        else:
            del payload["nodes"][0][field]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "ledger", "--building", str(path))
        assert code == 2
        assert err == f"error: malformed input: missing field '{field}'\n"

    @pytest.mark.parametrize(
        "mutate",
        ["array", "nodes-string", "float-energy", "list-id", "string-index", "float-index", "one-element-pair"],
    )
    def test_malformed_building_file_is_input_error(self, capsys, tmp_path, mutate):
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        payload = json.loads(building_to_json(canonical_ball_building(2, "1/5")))
        bottom_end = payload["nodes"][0]["punctures"][0]
        if mutate == "array":
            payload = [1]
        elif mutate == "nodes-string":
            payload = {"nodes": "x"}
        elif mutate == "float-energy":
            payload["nodes"][1]["energy"] = 0.5
        elif mutate == "list-id":
            payload["nodes"][1]["id"] = ["x"]
        else:
            bottom_end["paired_with"] = {
                "string-index": ["plane_0", "0"],
                "float-index": ["plane_0", 0.0],
                "one-element-pair": ["plane_0"],
            }[mutate]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "ledger", "--building", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1"])
    @pytest.mark.parametrize("field", ["cz", "level", "index", "divisor_hits", "total_index"])
    def test_non_integer_building_field_is_input_error(self, capsys, tmp_path, field, value):
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        payload = json.loads(building_to_json(canonical_ball_building(2, "1/5")))
        owner = {"cz": payload["nodes"][0]["punctures"][0], "total_index": payload}.get(field, payload["nodes"][1])
        owner[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "ledger", "--building", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["energy", "action", "energy_budget"])
    def test_boolean_rational_in_building_is_input_error(self, capsys, tmp_path, field, value):
        # true was once read as 1, so the building went on to validation and exit 1
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        payload = json.loads(building_to_json(canonical_ball_building(2, "1/5")))
        owner = {"action": payload["nodes"][1]["punctures"][0], "energy_budget": payload}.get(field, payload["nodes"][1])
        owner[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "ledger", "--building", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: malformed input: booleans are not accepted as rational numbers, got {value}\n"

    @pytest.mark.parametrize("value", [False, 0, [], ""], ids=["false", "zero", "empty-array", "empty-string"])
    def test_falsy_paired_with_is_input_error(self, capsys, tmp_path, value):
        # these were once read as unpaired, so the building went on to validation and exit 1
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        payload = json.loads(building_to_json(canonical_ball_building(2, "1/5")))
        payload["nodes"][1]["punctures"][0]["paired_with"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "ledger", "--building", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: puncture paired_with must be None or a (node id, puncture index) pair, got ")
        assert err.count("\n") == 1

    def test_json_syntax_error_in_inline_polygon_is_named(self, capsys):
        code, out, err = run_cli(capsys, "diag", "--polygon", '{"type": "polygon"')
        assert (code, out, err) == (2, "", "error: malformed JSON at line 1 column 19\n")

    @pytest.mark.parametrize("argv, key", [(["diag", "--polygon"], "type"), (["ledger", "--building"], "nodes")])
    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path, argv, key):
        # json.loads raises RecursionError past the interpreter's recursion limit
        path = tmp_path / "deep.json"
        path.write_text(f'{{"{key}": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out, err) == (2, "", "error: malformed JSON: nested too deeply\n")

    def test_json_syntax_error_in_truncated_building_is_named(self, capsys, tmp_path):
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        text = building_to_json(canonical_ball_building(2, "1/5"))
        path = tmp_path / "truncated.json"
        path.write_text("\n" + text[:-1])
        code, out, err = run_cli(capsys, "ledger", "--building", str(path))
        assert (code, out, err) == (2, "", f"error: malformed JSON at line 2 column {len(text)}\n")

    def test_fractional_index_and_cz_are_not_truncated(self, capsys, tmp_path):
        # int() once read these as 0 and 1, so the building passed every check
        from toricap.sft_ledger import building_to_json, canonical_ball_building

        payload = json.loads(building_to_json(canonical_ball_building(2, "1/5")))
        payload["nodes"][1]["index"] = 0.9
        payload["nodes"][0]["punctures"][0]["cz"] = 1.7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "ledger", "--building", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["counts", "--n", "6"],
            ["diag", "--ellipsoid", "3,6", "--seed", "7"],
            ["diag", "--ellipsoid", "3,6", "--format", "json"],
            ["lagcap", "--shape", "ellipsoid4", "--ellipsoid", "3,6"],
            ["enclose", "--ellipsoid", "1,2", "--grid", "4"],
            ["enclose", "--ellipsoid", "1,2", "--a-max-factor", "30"],
            ["ledger", "--counts", "--partition", "--n", "3"],
            ["ledger", "--canonical-ball-building", "2", "--building", "nofile.json"],
            ["ledger", "--n", "3"],
        ],
    )
    def test_removed_commands_and_options_are_input_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["support", "--polygon", SQUARE, "--direction", "1/0,1"],
            ["diag", "--ellipsoid", "1/0,2"],
            ["diag", "--polygon", '{"type":"polygon","vertices":[["0","1/0"],["1","0"]]}'],
            ["ledger", "--partition", "--n", "2", "--epsilon", "1/0"],
            ["lagcap", "--shape", "ball", "--capacity", "1/0", "--n", "3"],
        ],
    )
    def test_zero_denominator_is_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: zero denominator in '1/0'"]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, literal",
        [
            (["diag", "--ellipsoid", ","], ""),
            (["diag", "--ellipsoid", "1,b"], "b"),
            (["support", "--polygon", SQUARE, "--direction", "a,1"], "a"),
            (["ledger", "--partition", "--n", "2", "--epsilon", "1.5.2"], "1.5.2"),
        ],
    )
    def test_malformed_rational_is_named(self, capsys, argv, literal):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: not a rational number: {literal!r}"]

    @pytest.mark.parametrize("k", ["1..x", "x", "3..", "..3", "1..2..3", "2..1", "0"])
    def test_malformed_k_range_is_named(self, capsys, k):
        code, out, err = run_cli(capsys, "gh", "--ellipsoid", "1,2", "--k", k)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: bad k range {k!r}"]

    def test_k_range_size_is_capped(self, capsys, monkeypatch):
        # the count is read off the range, so no list of k is built
        for k, count in (("1..1000000000000", 10**12), ("1.." + "9" * 40, 10**40 - 1)):
            code, out, err = run_cli(capsys, "gh", "--ellipsoid", "1,2", "--k", k)
            assert (code, out) == (2, "")
            assert err == f"error: k range {k!r} holds {count} values: the limit is 1000000\n"
        monkeypatch.setattr("toricap.cli._SIZE_LIMIT", 5)  # the limit itself is accepted
        for k in ("1..5", "3..7", "4"):
            assert run_cli(capsys, "gh", "--ellipsoid", "1,2", "--k", k)[0] == 0
        code, out, err = run_cli(capsys, "gh", "--ellipsoid", "1,2", "--k", "3..8")
        assert (code, out) == (2, "")
        assert err == "error: k range '3..8' holds 6 values: the limit is 5\n"

    @pytest.mark.parametrize("cutoff", ["inf", "nan"])
    def test_non_finite_cutoff_is_input_error(self, capsys, tri11_json, cutoff):
        code, _, err = run_cli(capsys, "spectrum", "--polygon", tri11_json, "--K", cutoff)
        assert code == 2
        assert err.startswith("error: cutoff must be positive and finite")

    def test_missing_input_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "diag")
        assert code == 2

    def test_closed_stdout_exits_141_silently(self, tmp_path):
        """A reader that stops after one line is no input error: exit 128 + SIGPIPE, nothing on stderr."""
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        argv = [sys.executable, "-m", "toricap.cli", "gh", "--ellipsoid", "1,2", "--k", "1..100000"]  # 5.6 MB
        # buffered, as by default: unbuffered, the one write the pipe cuts short returns a count and raises nothing
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": ""}
        with subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().split() == [b"k", b"value", b"minimizer", b"path"]
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""

    def test_outputs_are_deterministic(self, capsys, tri12_json):
        argv = ["spectrum", "--polygon", tri12_json, "--K", "3.0", "--format", "csv"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_emitted_domain_json_reparses(self, square_json):
        from toricap.moment_domain import domain_from_json, domain_to_json

        with open(square_json) as fh:
            domain = domain_from_json(fh.read())
        assert domain_from_json(domain_to_json(domain)) == domain

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "diag", "--ellipsoid", "3,6", "--out", str(target))
        assert code == 0
        assert target.read_text() == "2"


class TestReadme:
    def test_command_line_block_runs(self, capsys, tmp_path, monkeypatch):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
        assert len(commands) >= 13
        (tmp_path / "square.json").write_text('{"type":"polygon","vertices":[["0","1"],["1","1"],["1","0"]]}')
        (tmp_path / "tri11.json").write_text('{"type":"polygon","vertices":[["0","1"],["1","0"]]}')
        (tmp_path / "tri12.json").write_text('{"type":"polygon","vertices":[["0","2"],["1","0"]]}')
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert argv[0] == "toricap"
            code, _, err = run_cli(capsys, *argv[1:])
            assert code == 0, (argv, err)


# ---------------------------------------------------------------------------
# fuzz: bounded argument lists, some well formed and some not, run in-process

PYTHON_MESSAGES = (
    "Traceback", "invalid literal for int()", "Invalid literal for Fraction", "unsupported operand", "index out of range",
    "Expecting", "Unterminated string", "Extra data",
)
FUZZ_FILES = {
    "square.json": SQUARE,
    "tri11.json": '{"type":"polygon","vertices":[["0","1"],["1","0"]]}',
    "ellipsoid.json": '{"type":"ellipsoid","axes":["1","3/2"]}',
    "pentagon.json": '{"type":"polygon","vertices":[["0","2"],["1","3/2"],["2","0"]]}',
    "truncated.json": '{"type":"polygon","vertices":[["0","1"]',
    "float.json": '{"type":"polygon","vertices":[[0.0,1.0],[1.0,0.0]]}',
    "rising.json": '{"type":"polygon","vertices":[["0","1"],["1","1"],["2","2"],["3","0"]]}',
    "falsy_pair_building.json": '{"nodes":[{"id":"bottom","level":0,"kind":"cotangent","index":0,"energy":"1",'
                                '"punctures":[{"cz":1,"action":"1","sign":"positive","paired_with":false}]}],'
                                '"energy_budget":"2"}',
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    from toricap.sft_ledger import building_to_json, canonical_ball_building

    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / name).write_text(text)
    payload = json.loads(building_to_json(canonical_ball_building(3, "1/10")))
    (root / "building.json").write_text(json.dumps(payload))
    payload["nodes"][1]["energy"] = True
    (root / "bool_building.json").write_text(json.dumps(payload))
    payload["nodes"][1].update(energy="1/3", index=1)
    (root / "invalid_building.json").write_text(json.dumps(payload))
    return root


# each pool lists well-formed values first and malformed ones after
fuzz_rationals = (
    st.fractions(0, 5, max_denominator=12).map(str)
    | st.builds("{}e{}".format, st.integers(1, 9), st.integers(-400, 400))  # past both ends of the float range
    | st.sampled_from(["0.25", " 2 ", "-1", "1/0", "x", "", "nan"])
)
fuzz_taus = st.floats(1e-4, 0.1).map(repr) | st.sampled_from(["0", "-1", "5", "nan", "inf", "x"])
fuzz_vs = st.floats(0.01, 0.99).map(repr) | st.sampled_from(["0", "1", "nan", "x"])
fuzz_ints = st.integers(-3, 50).map(str) | st.sampled_from(["x", "1.5", ""])
fuzz_pairs = st.tuples(fuzz_rationals, fuzz_rationals).map(",".join) | st.lists(fuzz_rationals, max_size=3).map(",".join)
fuzz_k = (
    st.integers(1, 100).map(str)
    | st.tuples(st.integers(1, 30), st.integers(1, 100)).map(lambda ks: f"{ks[0]}..{ks[1]}")
    | st.sampled_from(["0", "x", "1..", "1..x", "3..2"])
)


@st.composite
def fuzz_argv(draw, root):
    """One command line: a subcommand, each of its options present or not
    with a value drawn from a bounded pool, and sometimes a stray token."""
    def path(*names):
        return str(root / draw(st.sampled_from(names + ("missing.json", ""))))

    def maybe(option, values):
        return [option, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["diag", "support", "gh", "spectrum", "round", "enclose", "lagcap", "ledger"]))
    polygons = ("square.json", "tri11.json", "pentagon.json", "ellipsoid.json", "truncated.json", "float.json", "rising.json")
    argv = [command]
    if command == "lagcap":
        shape = draw(st.sampled_from(["ball", "projective", "ellipsoid4", "cylinder", "polydisk", "toric", "cube"]))
        argv += ["--shape", shape] + maybe("--capacity", fuzz_rationals) + maybe("--n", fuzz_ints)
        argv += maybe("--m", fuzz_ints) + maybe("--axes", fuzz_pairs) + maybe("--radii", fuzz_pairs)
        argv += maybe("--polygon", st.just(path(*polygons)))
    elif command == "ledger":
        buildings = ("building.json", "invalid_building.json", "bool_building.json", "falsy_pair_building.json",
                     "square.json")
        scenarios = [["--building", path(*buildings)], ["--canonical-ball-building", draw(fuzz_ints)],
                     ["--min-punctures"], ["--counts"], ["--forced-morse"], ["--partition"]]
        for scenario in draw(st.lists(st.sampled_from(scenarios), min_size=1, max_size=2) | st.just([])):
            argv += scenario
        argv += maybe("--epsilon", fuzz_rationals) + maybe("--n", fuzz_ints) + maybe("--k", fuzz_ints)
        argv += maybe("--areas", fuzz_pairs) + (["--check-parity"] if draw(st.booleans()) else [])
    else:
        side = draw(fuzz_rationals)  # an inline triangle, on either side of the float range too
        triangle = json.dumps({"type": "polygon", "vertices": [["0", side], [side, "0"]]})
        argv += draw(st.sampled_from([
            ["--polygon", path(*polygons)], ["--polygon", path(*polygons)], ["--ellipsoid", draw(fuzz_pairs)],
            ["--polygon", SQUARE], ["--polygon", triangle], [],
        ]))
        if command == "support":
            argv += ["--direction", draw(fuzz_pairs)]
        elif command == "gh":
            argv += ["--k", draw(fuzz_k)] + maybe("--via", st.sampled_from(["auto", "minmax", "spectrum", "both"]))
        elif command in ("spectrum", "round"):
            if command == "spectrum":
                argv += ["--K", draw(st.floats(0.5, 5).map(repr) | st.sampled_from(["-1", "nan", "x"]))]
            argv += maybe("--tau", fuzz_taus) + maybe("--v", fuzz_vs) + maybe("--samples", fuzz_ints)
            argv += maybe("--boundary-out", st.sampled_from([str(root / "rim.csv"), str(root)]))
        if command in ("gh", "spectrum"):
            argv += maybe("--format", st.sampled_from(["json", "csv", "table", "xml"]))
    argv += maybe("--out", st.sampled_from([str(root / "out.txt"), str(root)]))
    if draw(st.sampled_from([False] * 9 + [True])):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "1", "-"])))
    return argv


@settings(max_examples=300)
@given(st.data())
def test_fuzzed_command_lines_exit_cleanly(fuzz_dir, data):
    argv = data.draw(fuzz_argv(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch("sys.stdin", io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
    assert not [m for m in PYTHON_MESSAGES if m in err.getvalue()], (argv, err.getvalue())
