import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "outputs.py"


def test_two_runs_write_the_same_bytes(tmp_path):
    spec = importlib.util.spec_from_file_location("outputs", SCRIPT)
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(outputs.workload_outputs("decide-catalog", 1, str(tmp_path / name)))
    # eight `exists` requests and the check-only construction of the symmetrized m = 3 YES
    assert len(runs[0]) == 11
    assert not any(str(tmp_path) in text for out in runs[0].values() for text in out[1:] if text)
    assert outputs.dump(runs[0]) == outputs.dump(runs[1])
