"""Command-line behavior: outputs, exit codes, determinism, round-trips."""
import csv
import io
import json
import pathlib
import re
import shlex
import sys
from dataclasses import replace

import pytest

from toricap.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        monkeypatch.setattr("toricap.cli._BALL_N_LIMIT", 5)  # the limit itself is accepted
        assert run_cli(capsys, "lagcap", "--shape", "ball", "--n", "5")[:2] == (0, "1/5\n")
        assert run_cli(capsys, "lagcap", "--shape", "ball", "--n", "6")[0] == 2

    def test_projective(self, capsys):
        code, out, _ = run_cli(capsys, "lagcap", "--shape", "projective", "--n", "2")
        assert code == 0 and out.strip() == "1/3"

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

    def test_forced_morse(self, capsys):
        code, out, _ = run_cli(capsys, "ledger", "--forced-morse", "--n", "3")
        assert code == 0 and json.loads(out) == [2, 2, 2, 2]

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
        from toricap import canonical_ball_building
        from toricap.sft_ledger import building_to_json

        path = tmp_path / "building.json"
        path.write_text(building_to_json(canonical_ball_building(2, "1/5")))
        code, out, _ = run_cli(capsys, "ledger", "--building", str(path))
        assert code == 0
        assert all(item["status"] == "pass" for item in json.loads(out))

    def test_mutated_building_fails_with_exit_one(self, capsys, tmp_path):
        from toricap import canonical_ball_building
        from toricap.sft_ledger import building_to_json

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
        from toricap import canonical_ball_building
        from toricap.sft_ledger import building_to_json

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
        from toricap import canonical_ball_building
        from toricap.sft_ledger import building_to_json

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
        from toricap import canonical_ball_building
        from toricap.sft_ledger import building_to_json

        payload = json.loads(building_to_json(canonical_ball_building(2, "1/5")))
        owner = {"cz": payload["nodes"][0]["punctures"][0], "total_index": payload}.get(field, payload["nodes"][1])
        owner[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "ledger", "--building", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err

    def test_fractional_index_and_cz_are_not_truncated(self, capsys, tmp_path):
        # int() once read these as 0 and 1, so the building passed every check
        from toricap import canonical_ball_building
        from toricap.sft_ledger import building_to_json

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

    @pytest.mark.parametrize("cutoff", ["inf", "nan"])
    def test_non_finite_cutoff_is_input_error(self, capsys, tri11_json, cutoff):
        code, _, err = run_cli(capsys, "spectrum", "--polygon", tri11_json, "--K", cutoff)
        assert code == 2
        assert err.startswith("error: cutoff must be positive and finite")

    def test_missing_input_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "diag")
        assert code == 2

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
