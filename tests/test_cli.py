"""Command line behaviour: exit codes, report formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubicdirac
from cubicdirac import cli
from cubicdirac.algfile import emit_algebra_text, parse_algebra_text
from cubicdirac.catalog import CATALOG_NAMES, catalog_entry
from cubicdirac.dirac import CheckItem, CheckOutcome
from cubicdirac.suite import SuiteReport


def write_entry(tmp_path, name):
    entry = catalog_entry(name)
    path = tmp_path / f"{name}.json"
    path.write_text(emit_algebra_text(entry.algebra, entry.subalgebra), encoding="utf-8")
    return path


def run_module(*args):
    """`python -m cubicdirac.cli` in a child process that imports the package under test."""
    source = str(Path(cubicdirac.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "cubicdirac.cli", *args], capture_output=True, text=True, env=env)


def strip_times(document):
    for check in document["checks"]:
        check.pop("time_ms")
    return document


CATALOG_DOCUMENTS = Path(__file__).with_name("catalog_documents.json")


def test_catalog_list(capsys):
    """`catalog list` prints the text in catalog_documents.json, one line per
    name of CATALOG_NAMES in order."""
    expected = json.loads(CATALOG_DOCUMENTS.read_text(encoding="utf-8"))
    assert tuple(expected["show"]) == CATALOG_NAMES
    assert cli.main(["catalog", "list"]) == 0
    assert capsys.readouterr().out == expected["list"]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_show_is_the_recorded_document(name, capsys):
    """Each `catalog show` prints its document in catalog_documents.json byte for byte."""
    expected = json.loads(CATALOG_DOCUMENTS.read_text(encoding="utf-8"))["show"][name]
    assert cli.main(["catalog", "show", name]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def test_catalog_show_round_trips(capsys):
    assert cli.main(["catalog", "show", "sl2-killing"]) == 0
    out = capsys.readouterr().out
    algebra, subalgebra = parse_algebra_text(out)
    assert algebra.labels == ("e", "h", "f")
    assert subalgebra == ()
    assert out == emit_algebra_text(algebra, subalgebra)


def test_catalog_show_unknown_name(capsys):
    assert cli.main(["catalog", "show", "nope"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err


def test_verify_text_report(tmp_path, capsys):
    path = write_entry(tmp_path, "sl2-killing")
    code = cli.main(["verify", "--input", str(path), "--checks", "kostant"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check kostant: pass" in out
    assert "result: all checks passed" in out
    assert "c = 1/8" in out


def test_verify_machine_report(tmp_path, capsys):
    path = write_entry(tmp_path, "abelian2")
    code = cli.main(["verify", "--input", str(path), "--report", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["dimension"] == 2
    ids = [check["id"] for check in doc["checks"]]
    assert ids == ["kostant", "cohomology", "invariance"]
    kostant = doc["checks"][0]
    assert kostant["status"] == "pass"
    assert kostant["values"]["c"] == "0"
    for check in doc["checks"]:
        assert isinstance(check["time_ms"], int)
        for item in check["items"]:
            assert item["status"] == "pass"
            assert "witness" not in item


def test_verify_includes_decomposition_when_subalgebra_given(tmp_path, capsys):
    path = write_entry(tmp_path, "sl2xsl2-diagonal")
    code = cli.main(
        ["verify", "--input", str(path), "--subalgebra-from-file", "--report", "machine"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    ids = [check["id"] for check in doc["checks"]]
    assert ids == ["kostant", "cohomology", "decomposition", "invariance"]
    decomposition = doc["checks"][2]
    assert decomposition["values"] == {"c_g": "1/4", "c_h": "1/16", "c_rel": "3/16"}


def test_machine_report_is_deterministic(tmp_path, capsys):
    path = write_entry(tmp_path, "sl2xsl2-diagonal")
    argv = ["verify", "--input", str(path), "--subalgebra-from-file", "--report", "machine"]
    assert cli.main(argv) == 0
    first = strip_times(json.loads(capsys.readouterr().out))
    assert cli.main(argv) == 0
    second = strip_times(json.loads(capsys.readouterr().out))
    assert first == second


def test_single_check_selection(tmp_path, capsys):
    path = write_entry(tmp_path, "sl2xsl2-diagonal")
    code = cli.main(
        [
            "verify",
            "--input",
            str(path),
            "--subalgebra-from-file",
            "--checks",
            "decomposition",
            "--report",
            "machine",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert [check["id"] for check in doc["checks"]] == ["decomposition"]


def test_decomposition_without_subalgebra_is_a_usage_error(tmp_path, capsys):
    """One error line on stderr, nothing on stdout, exit 2; the line is the
    one `DiracContext.decomposition_check` raises."""
    path = write_entry(tmp_path, "sl2-killing")
    code = cli.main(["verify", "--input", str(path), "--checks", "decomposition"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the decomposition check needs a subalgebra; none was given\n"


def test_subalgebra_flag_requires_one_in_the_file(tmp_path, capsys):
    path = write_entry(tmp_path, "sl2-killing")
    code = cli.main(["verify", "--input", str(path), "--subalgebra-from-file"])
    assert code == 2
    assert "declares no subalgebra" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    code = cli.main(["verify", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_document_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code = cli.main(["verify", "--input", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_non_invariant_form_file_is_rejected(tmp_path, capsys):
    doc = {
        "format": "quadratic-lie-algebra",
        "version": 1,
        "name": "sl2-id",
        "dimension": 3,
        "basis_labels": ["e", "h", "f"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [[0, "-2"]]},
            {"i": 0, "j": 2, "terms": [[1, "1"]]},
            {"i": 1, "j": 2, "terms": [[2, "-2"]]},
        ],
        "form": ["1", "0", "0", "0", "1", "0", "0", "0", "1"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["verify", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "ad-invariance" in err


SL2_KILLING_FORM = ["0", "0", "4", "0", "8", "0", "4", "0", "0"]


@pytest.mark.parametrize(
    "bracket_ef, form, line",
    [
        ([[1, "1"]], ["1", "0", "0", "0", "1", "0", "0", "0", "1"], "ad-invariance (witness: (e, e, h))"),
        ([[0, "1"]], SL2_KILLING_FORM, "jacobi (witness: (e, h, f))"),
    ],
    ids=["ad-invariance", "jacobi"],
)
def test_validation_failure_prints_its_condition_and_witness(tmp_path, capsys, bracket_ef, form, line):
    """sl(2) with the identity form, and with [e, f] = e under its Killing form.

    The whole stderr is one line naming the condition and the witness labels.
    """
    doc = {
        "format": "quadratic-lie-algebra",
        "version": 1,
        "name": "sl2-bad",
        "dimension": 3,
        "basis_labels": ["e", "h", "f"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [[0, "-2"]]},
            {"i": 0, "j": 2, "terms": bracket_ef},
            {"i": 1, "j": 2, "terms": [[2, "-2"]]},
        ],
        "form": form,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: validation failed: {line}\n"
    assert captured.out == ""


def test_failing_check_maps_to_exit_one(tmp_path, capsys, monkeypatch):
    path = write_entry(tmp_path, "abelian1")
    fake = SuiteReport(
        algebra_name="abelian1",
        dimension=1,
        subalgebra_dimension=0,
        outcomes=(
            (CheckOutcome("kostant", (CheckItem("residual-scalar", "w"),), {}), 1),
        ),
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: fake)
    code = cli.main(["verify", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "  residual-scalar: FAIL  <- w" in out


def test_compute_c(tmp_path, capsys):
    path = write_entry(tmp_path, "sl2-killing")
    assert cli.main(["compute-c", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "1/8\n"
    pair = write_entry(tmp_path, "sl2xsl2-diagonal")
    assert cli.main(["compute-c", "--input", str(pair), "--subalgebra-from-file"]) == 0
    assert capsys.readouterr().out == "3/16\n"


def test_consecutive_calls_share_the_parser_but_not_their_arguments(tmp_path, capsys):
    """The parser is built once per process; no call sees another's arguments."""
    pair = write_entry(tmp_path, "sl2xsl2-diagonal")
    verify = ["verify", "--input", str(pair), "--subalgebra-from-file", "--checks", "kostant", "--report", "machine"]
    assert cli.main(verify) == 0
    relative = strip_times(json.loads(capsys.readouterr().out))
    assert cli.main(["compute-c", "--input", str(pair)]) == 0
    assert capsys.readouterr().out == "1/4\n"
    assert cli.main(["compute-c", "--input", str(pair), "--subalgebra-from-file"]) == 0
    assert capsys.readouterr().out == "3/16\n"
    assert cli.main(["catalog", "list"]) == 0
    capsys.readouterr()
    assert cli.main(verify) == 0
    assert strip_times(json.loads(capsys.readouterr().out)) == relative
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--checks", "kostant"])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute-c", "--input", str(pair), "--checks", "all"])
    assert exc.value.code == 2


def test_module_invocation_smoke(tmp_path):
    path = write_entry(tmp_path, "abelian2")
    result = run_module("verify", "--input", str(path), "--checks", "kostant")
    assert result.returncode == 0
    assert "all checks passed" in result.stdout


def test_oversized_coefficient_exits_2_without_a_traceback(tmp_path):
    path = write_entry(tmp_path, "abelian2")
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["form"][0] = "1" * 5001
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_module("verify", "--input", str(path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: form[0]: coefficient of 5001 characters")


@pytest.mark.parametrize("command", ["verify", "compute-c"])
def test_input_that_is_not_utf8_exits_2_without_a_traceback(tmp_path, command):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    result = run_module(command, "--input", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr == "error: the input is not UTF-8: invalid start byte at byte offset 0\n"
