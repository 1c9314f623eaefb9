"""Machine reports on rational Grams, pinned in rational_reports.json.

In their adapted bases the catalog's Gram entries are integers or have
small denominators.  Here sl(3) and sl(2) + sl(2) are taken in seeded
rational bases (`conftest.changed_algebra`), so the input form is not
diagonal, the adapted structure constants are over P > 1, and the
Gram entries, and with them the denominators that reach each key of D^2,
are rational.  The pinned reports were written by the code as it stood
before the brackets, PBW rewriting and D^2 ran on one integer table; those
of sl(3) over the sl(2) triple, by the code as it stood before Delta(y) was
read off the bracket coproduct.

The file holds, for each case, the exit code and the machine report of
`verify --checks all --report machine` with `time_ms` removed, and the exit
code and output of `compute-c`, as json.dump(..., indent=1) writes them.
"""

import json
from pathlib import Path

from conftest import SL3_TRIPLE, changed_algebra, moved_subalgebra
from cubicdirac import cli
from cubicdirac.algfile import emit_algebra_text
from cubicdirac.catalog import catalog_entry

RATIONAL_REPORTS = Path(__file__).with_name("rational_reports.json")


def rational_documents() -> dict[str, tuple[str, bool]]:
    """{case: (document text, whether its subalgebra is used)}.

    The diagonal sl(2) of sl(2) + sl(2) and the sl(2) triple e12, h1, f12
    of sl(3) are moved into the changed bases, so that the pairs' documents
    declare them.  The sl(3) pair is the non-symmetric relative case
    (m = 5, k = 3, v != 0), in the catalog basis and in a changed one.
    """
    sl3 = changed_algebra("sl3-killing", 4)
    pair = changed_algebra("sl2xsl2-diagonal", 3)
    pair_text = emit_algebra_text(pair, moved_subalgebra(catalog_entry("sl2xsl2-diagonal").subalgebra, 3))
    return {
        "sl3-killing-basis-4": (emit_algebra_text(sl3), False),
        "sl2xsl2-diagonal-basis-3": (pair_text, False),
        "sl2xsl2-diagonal-basis-3-pair": (pair_text, True),
        "sl3-killing-triple": (emit_algebra_text(catalog_entry("sl3-killing").algebra, SL3_TRIPLE), True),
        "sl3-killing-basis-4-triple": (emit_algebra_text(sl3, moved_subalgebra(SL3_TRIPLE, 4)), True),
    }


def machine_reports(tmp_path, capsys) -> dict:
    out = {}
    for case, (text, use_subalgebra) in rational_documents().items():
        path = tmp_path / f"{case}.json"
        path.write_text(text, encoding="utf-8")
        flag = ["--subalgebra-from-file"] if use_subalgebra else []
        verify_exit = cli.main(["verify", "--input", str(path), "--checks", "all", "--report", "machine", *flag])
        report = json.loads(capsys.readouterr().out)
        for check in report["checks"]:
            check.pop("time_ms")
        compute_exit = cli.main(["compute-c", "--input", str(path), *flag])
        out[case] = {
            "verify_exit": verify_exit,
            "verify": report,
            "compute_c_exit": compute_exit,
            "compute_c": capsys.readouterr().out,
        }
    return out


def test_reports_on_rational_grams_are_pinned(tmp_path, capsys):
    expected = json.loads(RATIONAL_REPORTS.read_text(encoding="utf-8"))
    got = machine_reports(tmp_path, capsys)
    assert sorted(got) == sorted(expected)
    for case, pinned in expected.items():
        assert got[case] == pinned, case
