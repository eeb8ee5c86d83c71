import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import delpezzo
from delpezzo.cli import EXIT_BROKEN_PIPE, run
from delpezzo.lattice import class_from_json


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_h0_matches_published_value(capsys):
    code, out, _ = invoke(capsys, "h0", "--config", "P2", "--class", "2l-e1-e2-e3-e4", "--basis", "curve")
    assert code == 0
    assert out.strip() == "3"


def test_h0_verbose_shows_reduction(capsys):
    code, out, _ = invoke(
        capsys, "h0", "--config", "P5", "--class", "2l-e2-e3-2e4", "--basis", "curve", "--verbose"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4"
    assert any(line.startswith("  - ") for line in lines)


def test_h0_json_round_trips_the_class(capsys):
    code, out, _ = invoke(
        capsys, "h0", "--config", "P2", "--class", "2l-e1-e2-e3-e4",
        "--basis", "curve", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h0"] == 3
    back, cfg = class_from_json(payload["class"])
    assert cfg.name == "P2"
    assert back.coeffs == (2, -1, -1, 0, -1)


def test_pullback_text_rendering(capsys):
    code, out, _ = invoke(capsys, "pullback", "--config", "P4", "--class", "l-e3-e4", "--basis", "curve")
    assert code == 0
    assert out.strip() == "4/3l-1/3e1-1/3e2-2/3e3-4/3e4"


def test_tables_csv_row_count(capsys):
    code, out, err = invoke(capsys, "tables", "--case", "p4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,L_sq,L_dot_E,E_sq,E_dot_Z"
    assert len(lines) == 1 + 12
    assert "12 rows match exactly" in err


def test_tables_diff_report_on_stderr(capsys):
    code, out, err = invoke(capsys, "tables", "--case", "p5", "--format", "csv")
    assert code == 0
    assert "L^2 in {0, 2}" in err
    assert len(out.strip().splitlines()) == 1 + 28


def test_tables_diff_can_be_suppressed(capsys):
    code, _, err = invoke(capsys, "tables", "--case", "p5", "--format", "csv", "--no-diff")
    assert code == 0
    assert err == ""


def test_curves_json_payload(capsys):
    code, out, _ = invoke(capsys, "curves", "--config", "P6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["singularities"] == ["A4"]
    kinds = [c["kind"] for c in payload["curves"]]
    assert kinds.count(-1) == 1 and kinds.count(-2) == 4
    for entry in payload["curves"]:
        cls, _ = class_from_json(entry["class"])
        assert len(cls.coeffs) == 5


def test_orbits_text(capsys):
    code, out, _ = invoke(capsys, "orbits")
    assert code == 0
    assert "group_order: 120" in out


def test_cover_scenario(capsys):
    path = resources.files("delpezzo.data").joinpath("scenarios/cover_disjoint_minus4_pair.json")
    code, out, _ = invoke(capsys, "cover", "--scenario", str(path), "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row["chi"] == "2"
    assert row["K_sq"] == "14"
    assert row["pg_lower"] == 3
    assert row["albanese_gate"] is False


def test_transport_pipeline(capsys):
    path = resources.files("delpezzo.data").joinpath("scenarios/bidouble_conic_variant.json")
    code, out, _ = invoke(
        capsys, "transport", "--scenario", str(path),
        "--apply", "cremona:123", "--apply", "perm:1243", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["branch_classes"] == [
        "3l-3e1-e2+e3-e4",
        "3l+e1-3e2-e3-e4",
        "3l-e1+e2-3e3-e4",
    ]


def test_decompose_lines(capsys):
    code, out, _ = invoke(
        capsys, "decompose", "--class", "l-e4", "--parts", "lines", "--max-parts", "2"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_unknown_subcommand_exits_2(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


def test_unknown_flag_exits_2(capsys):
    assert invoke(capsys, "orbits", "--bogus")[0] == 2


def test_bad_class_literal_exits_2(capsys):
    code, _, err = invoke(capsys, "h0", "--class", "3x-e9")
    assert code == 2
    assert "error" in err


def test_malformed_scenario_exits_3(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = invoke(capsys, "cover", "--scenario", str(bad))
    assert code == 3
    assert "broken.json" in err


def test_boolean_in_scenario_exits_3(tmp_path, capsys):
    path = resources.files("delpezzo.data").joinpath("scenarios/cover_disjoint_minus4_pair.json")
    scenario = json.loads(path.read_text())
    scenario["m_dot_k"] = True
    bad = tmp_path / "boolean.json"
    bad.write_text(json.dumps(scenario))
    code, _, err = invoke(capsys, "cover", "--scenario", str(bad))
    assert code == 3
    assert "True" in err


@pytest.mark.parametrize("chi_base", [True, "1", 1.0])
def test_non_integer_chi_base_exits_3(tmp_path, capsys, chi_base):
    path = resources.files("delpezzo.data").joinpath("scenarios/cover_disjoint_minus4_pair.json")
    scenario = json.loads(path.read_text())
    scenario["chi_base"] = chi_base
    bad = tmp_path / "chi_base.json"
    bad.write_text(json.dumps(scenario))
    code, out, err = invoke(capsys, "cover", "--scenario", str(bad))
    assert code == 3
    assert out == ""
    assert "chi_base" in err
    assert "Traceback" not in err


def test_missing_scenario_exits_3(tmp_path, capsys):
    code, _, _ = invoke(capsys, "cover", "--scenario", str(tmp_path / "nope.json"))
    assert code == 3


def test_bad_automorphism_exits_3(tmp_path, capsys):
    path = resources.files("delpezzo.data").joinpath("scenarios/bidouble_burniat.json")
    code, _, err = invoke(capsys, "transport", "--scenario", str(path), "--apply", "spin:999")
    assert code == 3
    assert "spin:999" in err


def test_verify_subprocess_exits_zero():
    result = subprocess.run(
        [sys.executable, "-m", "delpezzo.cli", "verify"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "verification PASSED" in result.stdout


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (("verify", "--verbose"), "verify_verbose.txt"),
    (("verify", "--format", "json"), "verify.json"),
])
def test_verify_output_is_pinned(capsys, argv, golden):
    """The whole `verify --verbose` and `verify --format json` output, detail
    strings included, byte for byte: a change that claims unchanged answers
    must leave these files as they are."""
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_closed_stdout_pipe_exits_quietly():
    """`delpezzo tables --case p4 --format json | head -3`: the reader closes
    the pipe before the rows are written.  No traceback, exit 141."""
    env = dict(os.environ)
    src = str(Path(delpezzo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "delpezzo.cli", "tables", "--case", "p4", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == EXIT_BROKEN_PIPE == 141


@pytest.mark.parametrize("content, message", [
    ({"a": 1}, "expected a JSON list"),
    ([1, 2], "expected a JSON list"),
    ([{"coeffs": 5}], "expected a JSON list"),
    ([{"coeffs": ["1/2", 0, 0, 0, 0]}], "not an integral class"),
    ([{"coeffs": ["1/0", 0, 0, 0, 0]}], "zero denominator"),
])
def test_malformed_parts_file_exits_3(tmp_path, capsys, content, message):
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps(content))
    code, out, err = invoke(capsys, "decompose", "--class", "l-e4", "--parts", f"file:{parts}")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_parts_file_of_integral_classes(tmp_path, capsys):
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([{"coeffs": [1, 0, 0, 0, -1]}, {"coeffs": [0, 0, 0, 1, 0]}]))
    code, out, _ = invoke(capsys, "decompose", "--class", "l-e4", "--parts", f"file:{parts}")
    assert code == 0
    assert out == "l-e4\n"


@pytest.mark.parametrize("command", ["cover", "transport"])
def test_bidouble_scenario_with_string_coefficients_exits_3(tmp_path, capsys, command):
    """Each branch component must be a JSON list; "00010" used to read as e3."""
    source = resources.files("delpezzo.data").joinpath("scenarios/bidouble_burniat.json")
    raw = json.loads(source.read_text())
    raw["D1"][0] = "00010"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    code, out, err = invoke(capsys, command, "--scenario", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "expected a JSON list" in err
    assert "Traceback" not in err


def test_parts_file_object_without_coeffs_exits_3(tmp_path, capsys):
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([{"basis": "standard"}]))
    code, out, err = invoke(capsys, "decompose", "--class", "l-e4", "--parts", f"file:{parts}")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "expected a JSON list" in err
