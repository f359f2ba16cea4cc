import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_existence_scan.py"


def _load_scan():
    spec = importlib.util.spec_from_file_location("run_existence_scan", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scan


def test_scan_reports_breakdown_and_goes_on(capsys):
    # symmetrized:0.5 decides YES through m = 8, but its m = 7 rule fails
    # acceptance (node residual 2.1e-8) and at m = 8 its multiplication
    # operators commute only to 1.9e-7; the scan must print both rows and
    # still reach the next measure
    _load_scan()(["symmetrized:0.5", "lebesgue^1"], 8, 1e-8)
    rows = capsys.readouterr().out.splitlines()
    failed = [r for r in rows if "numerical failure" in r]
    assert [r.split()[:2] for r in failed] == [["symmetrized:0.5", "7"], ["symmetrized:0.5", "8"]]
    assert "node residual" in failed[0]
    assert "commute" in failed[1]
    assert any(r.split()[:2] == ["lebesgue^1", "8"] and r.endswith("YES") for r in rows)
