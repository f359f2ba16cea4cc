"""Command-line front end.

Subcommands: moments, ortho, exists, cubature, qcheck, verify.
Exit codes: 0 success / rule exists, 10 no Gaussian cubature (or failed
verification), 20 input or format error (a size that overflows included),
30 numerical failure (a moment matrix that is not positive definite, a NO
residual within the noise floor, or a rule that cannot be built after a
YES or fails verify's acceptance at --tol).

A command line is SUBCOMMAND (--flag VALUE | --flag=VALUE)*: a repeated
flag keeps its last value, and no flag may be abbreviated.  Every
subcommand reads its measure from one of --catalog (a catalog spec, e.g.
lebesgue^2 or symmetrized:0.5) and --moments (a moment file), and prints
--format text or machine.  --m is the half-degree (precision 2m - 1).
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import cubature as cub
from . import existence, measures, ortho, qcheck
from .indexing import dim_homog, dim_total, format_multiindex, glex_enumerate, glex_rank, parse_multiindex

EXIT_OK = 0
EXIT_NO_CUBATURE = 10
EXIT_INPUT = 20
EXIT_NUMERICAL = 30


def _level(text: str) -> int:
    m = int(text)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return m


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol


def _format(text: str) -> str:
    if text not in ("text", "machine"):
        raise ValueError(f"choose text or machine, got {text!r}")
    return text


def _fmt(v: float) -> str:
    return repr(float(v))


def _vec(v) -> str:
    return ", ".join(_fmt(x) for x in np.asarray(v).ravel())


class Report:
    """Accumulates key/value pairs; renders as text or machine-readable lines."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        if isinstance(value, float):
            value = _fmt(value)
        self.lines.append((key, str(value)))

    def render(self) -> str:
        if self.fmt == "machine":
            return "\n".join(f"{k} = {v}" for k, v in self.lines)
        width = max((len(k) for k, _ in self.lines), default=0)
        return "\n".join(f"{k.replace('_', ' '):<{width}}  {v}" for k, v in self.lines)


def _load_sequence(cfg: SimpleNamespace, d_max: int):
    """Probability-normalized moments to degree d_max from --catalog or
    --moments, and the support box of a catalog measure (or None)."""
    if cfg.catalog is not None:
        spec = measures.parse_measure_spec(cfg.catalog)
        return measures.catalog_moments(spec, d_max), spec.box_support()
    seq = measures.load_moments(cfg.moments).truncate(d_max)
    return measures.normalize_probability(seq), None


def _decided(cfg: SimpleNamespace, d: int):
    """Moments to degree 2d >= 2m, their support box, and the verdict at level cfg.m."""
    seq, box = _load_sequence(cfg, 2 * d)
    return seq, box, existence.decide(seq, cfg.m, cfg.tol)


def _cmd_exists(cfg: SimpleNamespace) -> tuple[int, str]:
    seq, _, verdict = _decided(cfg, cfg.m)
    rm = dim_homog(seq.n, cfg.m)
    rep = Report(cfg.fmt)
    rep.add("verdict", "exists" if verdict.exists else "no-gaussian-cubature")
    rep.add("t_m", rm * (rm + 1) // 2)
    rep.add("r_2m", dim_homog(seq.n, 2 * cfg.m))
    rep.add("s_m_minus_1", dim_total(seq.n, cfg.m - 1))
    rep.add("rank", verdict.rank)
    rep.add("residual", verdict.residual)
    rep.add("relative_residual", verdict.relative_residual)
    rep.add("tol", verdict.tol)
    rep.add("noise_floor", verdict.noise_floor)
    rep.add("u", _vec(verdict.u))
    return (EXIT_OK if verdict.exists else EXIT_NO_CUBATURE), rep.render()


def _cmd_cubature(cfg: SimpleNamespace) -> tuple[int, str]:
    seq, box, verdict = _decided(cfg, cfg.m)
    rep = Report(cfg.fmt)
    rep.add("verdict", "exists" if verdict.exists else "no-gaussian-cubature")
    rep.add("relative_residual", verdict.relative_residual)
    if not verdict.exists:
        return EXIT_NO_CUBATURE, rep.render()
    rule = cub.build_rule(seq, cfg.m, tol=cfg.tol, box=box)
    defect_rank = verdict.defect_rank()
    rep.add("nodes", rule.nodes.shape[0])
    rep.add("precision", rule.precision)
    rep.add("scale", rule.scale)
    rep.add("max_exactness_error", rule.report.max_error)
    rep.add("node_residual", rule.report.node_residual)
    rep.add("min_weight", rule.report.min_weight)
    rep.add("flat", defect_rank == 0)
    rep.add("flat_rank", dim_total(seq.n, cfg.m - 1) + defect_rank)
    if cfg.fmt == "machine":
        for k, (x, w) in enumerate(zip(rule.nodes, rule.weights)):
            rep.add(f"node_{k}", f"{_vec(x)} : {_fmt(w)}")
    else:
        for x, w in zip(rule.nodes, rule.weights):
            rep.add("node", f"({_vec(x)})  weight {_fmt(w)}")
    if cfg.out:
        cub.store_rule(rule, cfg.out)
        rep.add("rule_file", cfg.out)
    return EXIT_OK, rep.render()


def _cmd_verify(cfg: SimpleNamespace) -> tuple[int, str]:
    rule = cub.load_rule(cfg.rule)
    seq, box = _load_sequence(cfg, 2 * rule.m)
    basis = ortho.build_orthobasis(seq, rule.m)
    report = cub.verify_exactness(rule, seq, basis, box=box)
    rep = Report(cfg.fmt)
    rep.add("max_exactness_error", report.max_error)
    rep.add("node_residual", report.node_residual)
    rep.add("min_weight", report.min_weight)
    rep.add("inside_support", report.inside_support)
    reason = cub.rejection(report, cfg.tol)
    if reason is None and not abs(rule.scale - seq.scale) <= 1e-8 * max(1.0, seq.scale):
        reason = f"scale {_fmt(rule.scale)} differs from the measure's {_fmt(seq.scale)}"
    if reason is not None:
        print(f"the rule fails verification: {reason}", file=sys.stderr)
    rep.add("verified", reason is None)
    return (EXIT_OK if reason is None else EXIT_NO_CUBATURE), rep.render()


def _cmd_moments(cfg: SimpleNamespace) -> tuple[int, str]:
    seq, _ = _load_sequence(cfg, cfg.d_max)
    if cfg.out:
        measures.store_moments(seq, cfg.out)
        return EXIT_OK, f"wrote {cfg.out}"
    return EXIT_OK, measures.format_moments(seq)


def _cmd_ortho(cfg: SimpleNamespace) -> tuple[int, str]:
    sigma = parse_multiindex(cfg.sigma)
    d = sum(sigma)
    seq, _ = _load_sequence(cfg, 2 * d)
    if len(sigma) != seq.n:
        raise ValueError(f"sigma {format_multiindex(sigma)} has dimension {len(sigma)}, the measure {seq.n}")
    basis = ortho.build_orthobasis(seq, d)
    row = basis.row(sigma)
    rep = Report(cfg.fmt)
    rep.add("sigma", format_multiindex(sigma))
    rep.add("coefficients", _vec(row[: glex_rank(sigma) + 1]))
    terms = []
    for alpha, c in zip(glex_enumerate(seq.n, d).tolist(), row):
        if c == 0.0:
            continue
        mono = "*".join(
            f"x{i + 1}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(alpha) if a > 0
        )
        terms.append(f"{c:+.12g}" + (f"*{mono}" if mono else ""))
    rep.add("polynomial", " ".join(terms) if terms else "0")
    return EXIT_OK, rep.render()


def _cmd_qcheck(cfg: SimpleNamespace) -> tuple[int, str]:
    # Q needs P_kappa with |kappa| = 2m: the basis to 2m, moments to 4m; the rule is cubature's
    seq, box, verdict = _decided(cfg, 2 * cfg.m)
    rep = Report(cfg.fmt)
    rep.add("verdict", "exists" if verdict.exists else "no-gaussian-cubature")
    if not verdict.exists:
        return EXIT_NO_CUBATURE, rep.render()
    basis = ortho.build_orthobasis(seq, 2 * cfg.m)
    q = qcheck.build_Q(seq, basis, verdict.u)
    dev = qcheck.verify_corollary(basis, q)
    rule = cub.build_rule(seq, cfg.m, tol=cfg.tol, box=box)
    remark = qcheck.verify_remark(basis, q, rule)
    rep.add("corollary_deviation", dev)
    rep.add("remark_u_from_rule", remark.u_from_rule)
    rep.add("remark_low_degree", remark.low_degree)
    rep.add("remark_top_degree", remark.top_degree)
    rep.add("remark_mean", remark.mean)
    return EXIT_OK, rep.render()


# Every flag: the config attribute it sets, the converter of its value (a
# ValueError is a bad value) and its default.
_FLAGS = {
    "--catalog": ("catalog", str, None),
    "--moments": ("moments", str, None),
    "--format": ("fmt", _format, "text"),
    "--d-max": ("d_max", int, None),
    "--out": ("out", str, None),
    "--sigma": ("sigma", str, None),
    "--m": ("m", _level, None),
    "--tol": ("tol", _tolerance, 1e-8),
    "--seed": ("seed", int, None),  # accepted and ignored: a rule depends on no seed
    "--rule": ("rule", str, None),
}
_SOURCE = ("--catalog", "--moments", "--format")

# Every subcommand: its handler, its flags and the flags it requires.
COMMANDS = {
    "moments": (_cmd_moments, (*_SOURCE, "--d-max", "--out"), ("--d-max",)),
    "ortho": (_cmd_ortho, (*_SOURCE, "--sigma"), ("--sigma",)),
    "exists": (_cmd_exists, (*_SOURCE, "--m", "--tol"), ("--m",)),
    "cubature": (_cmd_cubature, (*_SOURCE, "--m", "--tol", "--seed", "--out"), ("--m",)),
    "qcheck": (_cmd_qcheck, (*_SOURCE, "--m", "--tol", "--seed"), ("--m",)),
    "verify": (_cmd_verify, (*_SOURCE, "--rule", "--tol"), ("--rule",)),
}


def _usage(name: str | None) -> str:
    """The usage line of one subcommand, each flag shown with its default (or
    its attribute's name), or of the program when name is None."""
    if name is None:
        return f"usage: gausscub {{{','.join(COMMANDS)}}} [--flag VALUE | --flag=VALUE ...]"
    _, flags, required = COMMANDS[name]
    words = []
    for flag in flags:
        dest, _, default = _FLAGS[flag]
        word = f"{flag} {dest.upper() if default is None else default}"
        words.append(word if flag in required else f"[{word}]")
    return " ".join(["usage: gausscub", name, *words])


def _cmd_help(cfg: SimpleNamespace) -> tuple[int, str]:
    """--help: usage, the description and, for the program, every subcommand's usage."""
    lines = [_usage(cfg.subcommand), "", __doc__.strip()]
    if cfg.subcommand is None:
        lines += ["", "subcommands:", *(f"  {_usage(c).removeprefix('usage: ')}" for c in COMMANDS)]
    return EXIT_OK, "\n".join(lines)


def _bad_usage(name: str | None, error: str):
    """A bad command line: usage and the error on stderr, exit 20 before any work."""
    print(f"{_usage(name)}\nerror: {error}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The run configuration of SUBCOMMAND (--flag VALUE | --flag=VALUE)*: the
    subcommand's handler as `run`, and each of its flags' attributes, the last
    value given or the default; with -h or --help, `run` is the help instead.
    Nothing is abbreviated."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        return SimpleNamespace(subcommand=None, run=_cmd_help)
    if name not in COMMANDS:
        _bad_usage(None, "a subcommand is required" if name is None else f"unknown subcommand {name!r}")
    run, flags, required = COMMANDS[name]
    cfg = SimpleNamespace(subcommand=name, run=run, **{_FLAGS[f][0]: _FLAGS[f][2] for f in flags})
    args = iter(argv[1:])
    given = set()
    for arg in args:
        if arg in ("-h", "--help"):
            return SimpleNamespace(subcommand=name, run=_cmd_help)
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            _bad_usage(name, f"{name} takes no flag {flag!r}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):  # a value that starts with -- needs the = form
                _bad_usage(name, f"{flag} needs a value")
        dest, convert, _ = _FLAGS[flag]
        try:
            setattr(cfg, dest, convert(value))
        except ValueError as e:
            _bad_usage(name, f"{flag}: {e}")
        given.add(flag)
    for flag in required:
        if flag not in given:
            _bad_usage(name, f"{name} needs {flag}")
    if ("--catalog" in given) == ("--moments" in given):
        _bad_usage(name, "exactly one of --catalog and --moments is required")
    return cfg


def main(argv=None) -> int:
    cfg = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code, text = cfg.run(cfg)
    except (measures.MomentFormatError, ValueError, OSError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (measures.NotPositiveDefiniteError, cub.DegenerateSpectrumError, existence.NoiseFloorError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    if text:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader stopped early (`| head`): the exit code still reports the
            # command, and the flush at interpreter exit must not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
