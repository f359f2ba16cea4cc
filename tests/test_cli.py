import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gausscub.cli import COMMANDS, EXIT_INPUT, EXIT_NO_CUBATURE, EXIT_NUMERICAL, EXIT_OK, main
from gausscub.cubature import load_rule
from gausscub.indexing import glex_enumerate
from gausscub.measures import (
    MomentFormatError,
    MomentSequence,
    catalog_moments,
    load_moments,
    parse_measure_spec,
    store_moments,
)

from conftest import GAUSSIAN_GRID, fuzz_moments

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SOURCE = ("--catalog", "--moments", "--format")  # the flags every subcommand takes


def _env():
    """The environment of a `gausscub` subprocess that imports this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv) -> int:
    """The process exit code of `gausscub argv`, whether main returns it or the parser raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_exists_1d_yes(capsys):
    code, out, _ = run_cli(capsys, "exists", "--catalog", "lebesgue^1", "--m", "3")
    assert code == EXIT_OK
    assert "exists" in out


def test_exists_2d_no(capsys):
    code, out, _ = run_cli(capsys, "exists", "--catalog", "lebesgue^2", "--m", "2")
    assert code == EXIT_NO_CUBATURE
    assert "no-gaussian-cubature" in out


def test_exists_machine_report_keys(capsys):
    code, out, _ = run_cli(
        capsys, "exists", "--catalog", "symmetrized:0.5", "--m", "2", "--format", "machine"
    )
    assert code == EXIT_OK
    keys = {line.split(" = ")[0] for line in out.strip().splitlines()}
    assert {"verdict", "t_m", "r_2m", "rank", "residual", "relative_residual", "u", "noise_floor"} <= keys


def test_exists_symmetrized_reach_ends_in_exit_30_not_a_wrong_no(capsys):
    # the Hankel test needs M_{m-1} positive definite and decides YES through
    # m = 10 (defects 7e-11, 3e-10, 1e-9 at m = 8, 9, 10); a breakdown
    # would be exit 30, and nothing may read as "no Gaussian cubature"
    for m in range(5, 11):
        code, _, err = run_cli(capsys, "exists", "--catalog", "symmetrized:0.5", "--m", str(m))
        assert code != EXIT_NO_CUBATURE, m
        assert code == EXIT_OK, (m, err)


@pytest.mark.parametrize("m", [8, 9])
def test_rule_breakdown_after_a_yes_exits_30(capsys, m):
    # the existence test says YES, but the operators commute only to 1.9e-7
    # and 4.4e-6: no rule, and no NO either
    code, _, err = run_cli(capsys, "cubature", "--catalog", "symmetrized:0.5", "--m", str(m))
    assert code == EXIT_NUMERICAL, (code, err)
    assert "commute" in err


def test_stretched_yes_file_exits_0(capsys, tmp_path):
    # s_1 atoms plus a positive definite degree-4 shift, x1 stretched by 1e3:
    # a change of variables keeps the rule, and the equilibrated test sees it
    for seed in range(3):
        path = str(tmp_path / f"stretched-{seed}.txt")
        store_moments(fuzz_moments(2, 2, True, seed, stretch=1e3), path)
        code, out, err = run_cli(capsys, "exists", "--moments", path, "--m", "2", "--format", "machine")
        assert code == EXIT_OK, (seed, out, err)


def test_flat_atoms_file_exits_0(capsys, tmp_path):
    # the moments of s_1 = 3 atoms in 2-D are exactly flat at m = 2: R^ is rounding
    # noise, so the defect is measured against C^ and the verdict is a YES
    x = np.array([[0.3, -0.2], [-0.5, 0.6], [0.1, 0.9]])
    exps = glex_enumerate(2, 4)
    path = str(tmp_path / "atoms.txt")
    store_moments(MomentSequence(2, 4, np.full(3, 1 / 3) @ np.prod(x[:, None, :] ** exps, axis=-1), normalized=True), path)
    code, out, err = run_cli(capsys, "exists", "--moments", path, "--m", "2", "--format", "machine")
    assert code == EXIT_OK, (out, err)
    assert "verdict = exists" in out and "rank = 0" in out


def test_lebesgue_square_never_exits_0_while_its_moment_matrix_is_definite(capsys):
    # no Gaussian rule of degree 2m - 1 >= 3 exists for the square; at high m R^ falls
    # below the pessimistic rounding level (3.1e-9 against 0.17 at m = 20), but far above
    # the rounding of its own subtraction, so it is never taken for flat data
    for m in range(2, 30):
        code, out, err = run_cli(capsys, "exists", "--catalog", "lebesgue^2", "--m", str(m), "--format", "machine")
        assert code != EXIT_OK, (m, out)
        if "not positive definite" in err:
            break
    assert m == 21, (m, err)


@pytest.mark.parametrize(
    "spec,reference",
    [("lebesgue^1", np.polynomial.legendre.leggauss), ("chebyshev1^1", np.polynomial.chebyshev.chebgauss)],
)
def test_cubature_m10_matches_numpy_gauss_nodes(capsys, spec, reference):
    code, out, err = run_cli(capsys, "cubature", "--catalog", spec, "--m", "10", "--format", "machine")
    assert code == EXIT_OK, err
    nodes = [float(re.match(r"node_\d+ = (\S+) :", line)[1]) for line in out.splitlines() if re.match(r"node_\d", line)]
    assert np.abs(np.sort(nodes) - np.sort(reference(10)[0])).max() <= 1e-10


def test_machine_report_deterministic(capsys):
    args = ("cubature", "--catalog", "symmetrized:0.5", "--m", "3", "--format", "machine")
    first = run_cli(capsys, *args)
    assert first[0] == EXIT_OK
    assert run_cli(capsys, *args) == first
    # --seed is accepted and changes no byte: the rule depends only on the moments, m and --tol
    for seed in ("1", "2"):
        assert run_cli(capsys, *args, "--seed", seed) == first


def test_cubature_and_verify_roundtrip(capsys, tmp_path):
    rule_path = str(tmp_path / "rule.txt")
    code, out, _ = run_cli(
        capsys, "cubature", "--catalog", "lebesgue^1", "--m", "3", "--out", rule_path
    )
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "verify", "--rule", rule_path, "--catalog", "lebesgue^1")
    assert code == EXIT_OK
    assert "verified" in out


def test_verify_needs_moments_only_to_degree_2m(capsys, tmp_path):
    rule_path = str(tmp_path / "rule.txt")
    moments_path = str(tmp_path / "m.txt")
    run_cli(capsys, "cubature", "--catalog", "chebyshev2^1", "--m", "3", "--out", rule_path)
    run_cli(capsys, "moments", "--catalog", "chebyshev2^1", "--d-max", "6", "--out", moments_path)
    code, out, err = run_cli(capsys, "verify", "--rule", rule_path, "--moments", moments_path)
    assert code == EXIT_OK, err
    assert "verified" in out


def test_verify_rejects_a_rule_of_another_dimension(capsys, tmp_path):
    for spec, m, other in (("lebesgue^1", 2, "lebesgue^2"), ("symmetrized:0.5", 2, "lebesgue^1")):
        rule_path = str(tmp_path / "rule.txt")
        code, _, _ = run_cli(capsys, "cubature", "--catalog", spec, "--m", str(m), "--out", rule_path)
        assert code == EXIT_OK
        code, _, err = run_cli(capsys, "verify", "--rule", rule_path, "--catalog", other)
        assert code == EXIT_INPUT
        assert "dimension" in err


def test_verify_detects_tampering(capsys, tmp_path):
    rule_path = tmp_path / "rule.txt"
    run_cli(capsys, "cubature", "--catalog", "lebesgue^1", "--m", "2", "--out", str(rule_path))
    text = rule_path.read_text()
    # perturb the first node coordinate
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if ":" in line and not line.startswith("#") and "=" not in line:
            coord, _, rest = line.partition(" ")
            lines[i] = f"{(float.fromhex(coord) + 0.01).hex()} {rest}"
            break
    rule_path.write_text("\n".join(lines))
    code, out, _ = run_cli(capsys, "verify", "--rule", str(rule_path), "--catalog", "lebesgue^1")
    assert code == EXIT_NO_CUBATURE


def test_cubature_accepts_only_what_verify_accepts(capsys, tmp_path):
    # cubature applies verify's acceptance at the same tol to the rule it built
    rule_path = str(tmp_path / "rule.txt")
    refused = []
    for spec, m in GAUSSIAN_GRID:
        if main(["cubature", "--catalog", spec, "--m", str(m), "--out", rule_path]) == EXIT_OK:
            assert main(["verify", "--rule", rule_path, "--catalog", spec]) == EXIT_OK, (spec, m)
        else:
            refused.append((spec, m))
    capsys.readouterr()
    assert ("lebesgue^1", 15) in refused and ("hermite^1", 15) in refused


def test_cubature_exits_30_on_a_rule_verify_rejects(capsys):
    # the rule is exact to 1e-11, but its nodes are roots of P_7 only to 2.1e-8
    code, out, err = run_cli(capsys, "cubature", "--catalog", "symmetrized:0.5", "--m", "7")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "fails verification: node residual" in err


def test_qcheck_exits_30_on_a_rule_verify_rejects(capsys):
    # qcheck builds cubature's rule through the same gate: node residual 2.2e-8
    code, out, err = run_cli(capsys, "qcheck", "--catalog", "hermite^1", "--m", "15")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "fails verification" in err


def test_qcheck_certifies_the_rule_cubature_writes(capsys):
    # built in the degree-m basis, as cubature builds it: node residual below 1e-8,
    # where the low rows of the degree-2m basis gave 1.0e-7
    code, out, err = run_cli(capsys, "qcheck", "--catalog", "hermite^1", "--m", "14")
    assert code == EXIT_OK, err
    assert "corollary" in out


def test_qcheck_refuses_a_rule_only_where_cubature_does(capsys):
    # qcheck refuses a rule with cubature's own reason; its other exits of 30 come
    # from the degree-2m basis of Q, whose moment matrix stops being positive definite
    for spec, m in GAUSSIAN_GRID:
        argv = ("--catalog", spec, "--m", str(m))
        cub_code, _, cub_err = run_cli(capsys, "cubature", *argv)
        code, _, err = run_cli(capsys, "qcheck", *argv)
        if "fails verification" in err:
            assert cub_code == EXIT_NUMERICAL and err == cub_err, (spec, m)
        elif code == EXIT_NUMERICAL:
            assert "not positive definite at pivot" in err, (spec, m)


def test_smallest_gauss_hermite_weight_is_not_the_reason(capsys):
    # the smallest probability weight, 2.6e-11, is numpy's hermgauss(17) weight
    # too; the rule fails on its node residual
    code, _, err = run_cli(capsys, "cubature", "--catalog", "hermite^1", "--m", "17")
    assert code == EXIT_NUMERICAL
    assert "node residual" in err and "non-positive weight" not in err


def test_cubature_flat_keys_come_from_the_verdict(capsys):
    # the m = 6 rule is accepted; its completion is flat, rank s_5 = 21
    code, out, _ = run_cli(capsys, "cubature", "--catalog", "symmetrized:0.5", "--m", "6", "--format", "machine")
    assert code == EXIT_OK
    assert "\nflat = True\n" in out and "\nflat_rank = 21\n" in out


def test_rule_file_values_may_be_decimal(capsys, tmp_path):
    rule_path = tmp_path / "rule.txt"
    run_cli(capsys, "cubature", "--catalog", "chebyshev2^1", "--m", "3", "--out", str(rule_path))
    lines = rule_path.read_text().splitlines()
    assert lines[4].startswith("-0x1.6a09e667f3bc8p-1 ")  # the first node, -1/sqrt(2)
    lines[4] = lines[4].replace("-0x1.6a09e667f3bc8p-1", "-0.7071067811865476")
    rule_path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "verify", "--rule", str(rule_path), "--catalog", "chebyshev2^1")
    assert code == EXIT_OK, err
    rule_path.write_text("\n".join([*lines[:4], lines[4].replace("-0.7071067811865476", "left"), *lines[5:]]))
    with pytest.raises(MomentFormatError, match="line 5"):
        load_rule(rule_path)


def test_cubature_no_case_exit_code(capsys):
    code, _, _ = run_cli(capsys, "cubature", "--catalog", "chebyshev1^2", "--m", "2")
    assert code == EXIT_NO_CUBATURE


def test_exists_and_cubature_verdicts_agree(capsys):
    for spec in ("lebesgue^1", "lebesgue^2", "symmetrized:0.5"):
        c1, _, _ = run_cli(capsys, "exists", "--catalog", spec, "--m", "2")
        c2, _, _ = run_cli(capsys, "cubature", "--catalog", spec, "--m", "2")
        assert c1 == c2


def test_moments_subcommand_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "m.txt")
    code, _, _ = run_cli(
        capsys, "moments", "--catalog", "chebyshev1^2", "--d-max", "4", "--out", path
    )
    assert code == EXIT_OK
    seq = load_moments(path)
    assert seq.n == 2 and seq.d_max == 4 and seq.normalized


def test_moments_stdout(capsys):
    code, out, _ = run_cli(capsys, "moments", "--catalog", "lebesgue^1", "--d-max", "2")
    assert code == EXIT_OK
    assert '"0": 0x1.0000000000000p+0' in out


def test_moments_stdout_is_the_stored_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "moments", "--catalog", "symmetrized:0.5", "--d-max", "3")
    assert code == EXIT_OK
    path = tmp_path / "m.txt"
    store_moments(catalog_moments(parse_measure_spec("symmetrized:0.5"), 3), path)
    assert out.encode() == path.read_bytes()


def test_symmetrized_moments_have_no_degree_cap(capsys):
    # each moment is an integer over a power of two: only the float range bounds d_max
    code, out, err = run_cli(capsys, "moments", "--catalog", "symmetrized:0.5", "--d-max", "501")
    assert code == EXIT_OK, err
    assert out.count("\n") == 4 + 502 * 503 // 2


def test_chebyshev2_moments_past_degree_1015_are_not_zero(capsys):
    # a float denominator 4.0**j * (j + 1) is inf from degree 1016, which printed the even moments as zeros
    code, out, err = run_cli(capsys, "moments", "--catalog", "chebyshev2^1", "--d-max", "1020")
    assert code == EXIT_OK, err
    values = [float.fromhex(line.split(": ")[1]) for line in out.splitlines()[4:]]
    assert len(values) == 1021 and all(v > 0 for v in values[::2])


@pytest.mark.parametrize("spec_text,d_max,degree", [("hermite^1", 310, 302), ("symmetrized:0.5", 1054, 1054)])
def test_catalog_overflow_names_its_degree(capsys, spec_text, d_max, degree):
    code, _, err = run_cli(capsys, "moments", "--catalog", spec_text, "--d-max", str(d_max))
    assert code == EXIT_INPUT
    assert err == f"error: {spec_text} moments to d_max={d_max} leave the float range from degree {degree}\n"


def test_moments_from_file_honours_d_max(capsys, tmp_path):
    path = str(tmp_path / "m.txt")
    run_cli(capsys, "moments", "--catalog", "lebesgue^1", "--d-max", "4", "--out", path)
    code, out, _ = run_cli(capsys, "moments", "--moments", path, "--d-max", "2")
    assert code == EXIT_OK
    assert "d_max = 2" in out
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith('"')] == ['"0"', '"1"', '"2"']
    cut = tmp_path / "cut.txt"
    run_cli(capsys, "moments", "--moments", path, "--d-max", "2", "--out", str(cut))
    assert np.array_equal(load_moments(cut).array, load_moments(path).array[:3])


def test_cli_imports_neither_argparse_nor_gettext():
    # the command table is parsed by one loop: no parser is built, and no message catalog is read;
    # node extraction draws nothing, so numpy's lazily loaded random module stays out too
    probe = "import sys, gausscub.cli; print(sorted({'argparse', 'gettext', 'numpy.random'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "subcommand"),
        (["bogus", "--m", "2"], "'bogus'"),
        (["exists", "--cat", "lebesgue^1", "--m", "2"], "'--cat'"),  # no flag is abbreviated
        (["exists", "--catalog", "lebesgue^1", "--m", "2", "--nope", "1"], "'--nope'"),
        (["exists", "--catalog", "lebesgue^1", "--m", "2", "stray"], "'stray'"),
        (["exists", "--catalog", "lebesgue^1", "--m"], "--m needs a value"),
        (["exists", "--catalog", "--m", "2"], "--catalog needs a value"),
        (["exists", "--catalog", "lebesgue^1", "--m", "two"], "--m: "),
        (["exists", "--catalog", "lebesgue^1", "--m", "2", "--format=xml"], "--format: "),
        (["exists", "--catalog", "lebesgue^1"], "exists needs --m"),
        (["verify", "--catalog", "lebesgue^1"], "verify needs --rule"),
        # the source is checked before any work: the rule file is never opened
        (["verify", "--rule", "no-such-rule.txt"], "exactly one of --catalog and --moments"),
        (["exists", "--catalog", "lebesgue^1", "--moments", "m.txt", "--m", "2"], "exactly one of --catalog and --moments"),
    ],
)
def test_bad_command_lines_exit_20_naming_the_flag(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: gausscub ") and error.startswith("error: ") and named in error, err


def test_equals_form_and_repeated_flags(capsys):
    argv = ["exists", "--catalog", "lebesgue^2", "--m", "3", "--format", "machine"]
    expected = run_cli(capsys, *argv)
    assert expected[0] == EXIT_NO_CUBATURE
    assert run_cli(capsys, "exists", "--catalog=lebesgue^2", "--m=3", "--format=machine") == expected
    # the last of a repeated flag wins
    repeated = ["exists", "--catalog", "lebesgue^2", "--m", "2", "--format", "text", "--m", "3", "--format=machine"]
    assert run_cli(capsys, *repeated) == expected


@pytest.mark.parametrize("name", [None, *COMMANDS])
def test_help_lists_every_subcommand_and_flag(capsys, name):
    code, out, err = run_cli(capsys, *(["--help"] if name is None else [name, "-h"]))
    assert code == EXIT_OK and err == ""
    for command in COMMANDS if name is None else [name]:
        assert re.search(rf"\bgausscub {command}\b", out), command
        for flag in COMMANDS[command][1]:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", out), (command, flag)


def test_readme_flags_table_is_the_command_table():
    with open(os.path.join(ROOT, "README.md")) as fh:
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", fh.read(), re.M)
    readme = {name: [(re.search(r"`(--[\w-]+)`", cell)[1], cell.endswith("(required)")) for cell in cells.split(", ")]
              for name, cells in rows}
    table = {}
    for name, (_, flags, required) in COMMANDS.items():
        assert flags[: len(SOURCE)] == SOURCE, name
        table[name] = [(flag, flag in required) for flag in flags[len(SOURCE) :]]
    assert readme == table


def test_a_junk_moment_value_names_its_line(capsys, tmp_path):
    path = tmp_path / "m.txt"
    store_moments(catalog_moments(parse_measure_spec("lebesgue^1"), 2), path)
    lines = path.read_text().splitlines()
    assert lines[5].startswith('"1": ')
    lines[5] = '"1": 0x1.2q3'
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "exists", "--moments", str(path), "--m", "1")
    assert code == EXIT_INPUT
    assert err == "error: line 6: bad numeric value '0x1.2q3'\n"


def test_exists_from_moment_file(capsys, tmp_path):
    path = str(tmp_path / "m.txt")
    run_cli(capsys, "moments", "--catalog", "lebesgue^1", "--d-max", "4", "--out", path)
    code, _, _ = run_cli(capsys, "exists", "--moments", path, "--m", "1")
    assert code == EXIT_OK


def test_ortho_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ortho", "--catalog", "lebesgue^2", "--sigma", "1,1")
    assert code == EXIT_OK
    assert "3*x1*x2" in out


def test_ortho_sigma_of_another_dimension_names_both(capsys, tmp_path):
    path = str(tmp_path / "m.txt")
    run_cli(capsys, "moments", "--catalog", "lebesgue^3", "--d-max", "4", "--out", path)
    for source, sigma, expected in (
        (("--catalog", "lebesgue^2"), "1", "has dimension 1, the measure 2"),
        (("--catalog", "lebesgue^3"), "1,1", "has dimension 2, the measure 3"),
        (("--moments", path), "1,1", "has dimension 2, the measure 3"),
    ):
        code, _, err = run_cli(capsys, "ortho", *source, "--sigma", sigma)
        assert code == EXIT_INPUT
        assert expected in err, (source, sigma)


def test_qcheck_subcommand(capsys):
    code, out, _ = run_cli(capsys, "qcheck", "--catalog", "symmetrized:0.5", "--m", "2")
    assert code == EXIT_OK
    assert "corollary" in out


def test_qcheck_machine_keys(capsys):
    code, out, _ = run_cli(capsys, "qcheck", "--catalog", "lebesgue^1", "--m", "3", "--format", "machine")
    assert code == EXIT_OK
    keys = [line.split(" = ")[0] for line in out.strip().splitlines()]
    assert keys == [
        "verdict",
        "corollary_deviation",
        "remark_u_from_rule",
        "remark_low_degree",
        "remark_top_degree",
        "remark_mean",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        # exists builds no rule, so it takes no rule options
        ["exists", "--catalog", "lebesgue^1", "--m", "2", "--seed", "3"],
        ["exists", "--catalog", "lebesgue^1", "--m", "2", "--commutation-tol", "1e-3"],
        # the certificate has one sign convention, Q = -u^T P_2m
        ["qcheck", "--catalog", "lebesgue^1", "--m", "3", "--sign", "1"],
        # one --tol gates the commutation and the acceptance of a built rule
        ["cubature", "--catalog", "lebesgue^1", "--m", "2", "--commutation-tol", "1e-8"],
    ],
)
def test_options_a_command_does_not_read_exit_20(argv):
    assert exit_code(argv) == EXIT_INPUT


def test_closed_stdout_keeps_the_exit_code():
    # `gausscub moments ... | head -1`: the reader closes after one line
    argv = [sys.executable, "-m", "gausscub.cli", "moments", "--catalog", "lebesgue^4", "--d-max", "20"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env()) as proc:
        assert proc.stdout.readline() == b"n = 4\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_OK
    assert b"Traceback" not in err and b"BrokenPipe" not in err


def test_input_errors_exit_20(capsys, tmp_path):
    code, _, err = run_cli(capsys, "exists", "--catalog", "bogus^2", "--m", "2")
    assert code == EXIT_INPUT
    code, _, err = run_cli(capsys, "exists", "--moments", str(tmp_path / "nope.txt"), "--m", "1")
    assert code == EXIT_INPUT
    # file with too few degrees
    path = str(tmp_path / "m.txt")
    run_cli(capsys, "moments", "--catalog", "lebesgue^1", "--d-max", "2", "--out", path)
    code, _, err = run_cli(capsys, "exists", "--moments", path, "--m", "2")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["exists", "cubature"])
@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_scale_exits_20(capsys, tmp_path, command, scale):
    # the scale is the mass that cubature weights are multiplied by
    path = tmp_path / "m.txt"
    run_cli(capsys, "moments", "--catalog", "lebesgue^1", "--d-max", "6", "--out", str(path))
    text = path.read_text()
    path.write_text(re.sub(r"(?m)^scale = \S+$", f"scale = {scale}", text))
    assert path.read_text() != text
    code, _, err = run_cli(capsys, command, "--moments", str(path), "--m", "3")
    assert code == EXIT_INPUT
    assert "scale" in err


def test_verify_rejects_a_precision_other_than_2m_minus_1(capsys, tmp_path):
    rule_path = tmp_path / "rule.txt"
    run_cli(capsys, "cubature", "--catalog", "lebesgue^1", "--m", "2", "--out", str(rule_path))
    text = rule_path.read_text()
    assert "\nprecision = 3\n" in text
    rule_path.write_text(text.replace("\nprecision = 3\n", "\nprecision = 9\n"))
    code, _, err = run_cli(capsys, "verify", "--rule", str(rule_path), "--catalog", "lebesgue^1")
    assert code == EXIT_INPUT
    assert "precision" in err


def test_bad_usage_exits_20():
    with pytest.raises(SystemExit) as exc:
        main(["exists", "--catalog", "lebesgue^1"])  # missing --m
    assert exc.value.code == EXIT_INPUT


def test_numerical_failure_exit_30(capsys, tmp_path):
    # a Dirac measure has a singular M_1: at m = 1 its one-node rule exists,
    # at m = 2 the test needs M_1 positive definite
    values = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    seq = MomentSequence(1, 4, values, normalized=True)
    path = str(tmp_path / "dirac.txt")
    store_moments(seq, path)
    code, _, err = run_cli(capsys, "exists", "--moments", path, "--m", "2")
    assert code == EXIT_NUMERICAL
    assert "positive definite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["exists", "--catalog", "lebesgue^1", "--m", "2", "--tol", "nan"],
        ["exists", "--catalog", "lebesgue^2", "--m", "2", "--tol", "inf"],
        ["exists", "--catalog", "lebesgue^2", "--m", "2", "--tol", "0"],
        ["exists", "--catalog", "lebesgue^2", "--m", "0"],
        ["cubature", "--catalog", "lebesgue^1", "--m", "2", "--tol", "nan"],
    ],
)
def test_out_of_range_level_or_tolerance_exits_20(argv):
    assert exit_code(argv) == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        ["exists", "--moments", "{huge_moments}", "--m", "2"],
        ["verify", "--rule", "{huge_rule}", "--catalog", "chebyshev2^1"],
        ["exists", "--catalog", "lebesgue^1", "--m", "100000000000000000000"],
        ["moments", "--catalog", "hermite^1", "--d-max", "400"],
        ["exists", "--catalog", "hermite^1", "--m", "200"],
    ],
)
def test_sizes_that_overflow_exit_20(capsys, tmp_path, argv):
    # sizes past 64 bits or past the float range are input errors, not tracebacks
    huge = 10**23
    paths = {"huge_moments": tmp_path / "m.txt", "huge_rule": tmp_path / "r.txt"}
    paths["huge_moments"].write_text(f'n = 1\nd_max = {huge}\nnormalized = true\nscale = 1\n"0": 1\n')
    paths["huge_rule"].write_text(f"n = 1\nm = {huge}\nprecision = {2 * huge - 1}\nscale = 1\n0 : 1\n")
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == EXIT_INPUT
    assert err.startswith("error: ")


def test_verify_says_why_it_rejects(capsys, tmp_path):
    rule_path = tmp_path / "rule.txt"
    run_cli(capsys, "cubature", "--catalog", "chebyshev2^1", "--m", "3", "--out", str(rule_path))
    # a rule checked against another measure
    code, out, err = run_cli(capsys, "verify", "--rule", str(rule_path), "--catalog", "lebesgue^1", "--format", "machine")
    assert code == EXIT_NO_CUBATURE and "verified = False" in out
    assert err.startswith("the rule fails verification: max exactness error ")
    # an edited scale header; the rule is otherwise the measure's
    rule_path.write_text(re.sub(r"(?m)^scale = \S+$", "scale = 0x1.0p+1", rule_path.read_text()))
    code, out, err = run_cli(capsys, "verify", "--rule", str(rule_path), "--catalog", "chebyshev2^1", "--format", "machine")
    assert code == EXIT_NO_CUBATURE and "verified = False" in out
    assert err == f"the rule fails verification: scale 2.0 differs from the measure's {math.pi / 2!r}\n"


def test_verify_rejects_infinite_tol_on_a_tampered_rule(capsys, tmp_path):
    rule_path = tmp_path / "rule.txt"
    run_cli(capsys, "cubature", "--catalog", "lebesgue^1", "--m", "2", "--out", str(rule_path))
    lines = rule_path.read_text().splitlines()
    coord, _, rest = lines[4].partition(" ")  # first node record, after the four header lines
    lines[4] = f"{(float.fromhex(coord) + 0.01).hex()} {rest}"
    rule_path.write_text("\n".join(lines))
    assert exit_code(["verify", "--rule", str(rule_path), "--catalog", "lebesgue^1", "--tol", "inf"]) == EXIT_INPUT


@pytest.mark.parametrize("m", [9, 10])
def test_verify_accepts_wide_support_hermite_rules(capsys, tmp_path, m):
    # top moments near 1e6..1e8: the exactness error is relative to their size
    rule_path = str(tmp_path / "rule.txt")
    code, _, _ = run_cli(capsys, "cubature", "--catalog", "hermite^1", "--m", str(m), "--out", rule_path)
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "verify", "--rule", rule_path, "--catalog", "hermite^1")
    assert code == EXIT_OK
