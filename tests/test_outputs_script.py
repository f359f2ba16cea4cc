import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "outputs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("outputs", SCRIPT)
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    return outputs


def test_two_runs_write_the_same_bytes(tmp_path):
    outputs = _load_script()
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(outputs.workload_outputs("decide-catalog", 1, str(tmp_path / name)))
    # eight `exists` requests and the check-only construction of the symmetrized m = 3 YES
    assert len(runs[0]) == 11
    assert not any(str(tmp_path) in text for out in runs[0].values() for text in out[1:] if text)
    assert outputs.dump(runs[0]) == outputs.dump(runs[1])


def test_each_faulty_moment_file_is_an_input_error_naming_its_fault(tmp_path):
    outputs = _load_script().fault_outputs(str(tmp_path))
    expected = {
        "drop": "incomplete moment file: missing 1 of 91",
        "duplicate": "line 51: duplicate multi-index",
        "short index": "line 50: multi-index '9' has dimension 1",
        "degree above d_max": "line 50: multi-index (13, 0) exceeds",
        "non-finite value": "line 50: non-finite value",
        "junk value": "line 50: bad numeric value '0x1.2q3'",
        "entry past int64": "line 50: multi-index (100000000000000000000000, 0) exceeds",
    }
    assert [key.split(":")[0] for key in outputs] == [f"fault {name}" for name in expected]
    for (code, out, err, rule), message in zip(outputs.values(), expected.values()):
        assert code == 20 and out == "" and rule is None
        assert err.startswith(f"error: {message}"), err
