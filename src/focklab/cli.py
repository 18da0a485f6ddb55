"""Command-line front end.

Subcommands:

    verify     run the verification suite, emit a report, exit 0/1
    symbol     tabulate a multiplier's symbol on a complex grid
    probe      boundedness probe (optionally with the classical contrast)
    export     write an operator matrix in the documented binary/CSV layout
    calibrate  measure the growth threshold and write the calibration file

Exit status: 0 all checks passed, 1 some check failed, 2 configuration error.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    default_calibration_path,
    load_calibration,
    run_calibration,
    save_calibration,
)
from .errors import AccuracyWarning, ConfigError, FockLabError
from .hermite import MAX_QUADRATURE_ORDER
from .multipliers import parse_multiplier
from .operators import (
    _PROBE_LADDER,
    _truncation_ladder,
    boundedness_probe,
    classical_sobolev_probe,
    conjugated_multiplier_matrix,
    multiplier_matrix,
    symbol_from_multiplier,
)
from .reporting import RECORD_COLUMNS, ReportRecord, emit_csv, emit_json, record_row, summarize
from .transforms import OperatorMatrix, translation_matrix, weyl_matrix

__all__ = ["main"]


def _fail_config(msg: str) -> "NoReturn":  # noqa: F821
    print(f"configuration error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _at_least(lo, kind=int):
    """argparse type: a finite ``kind`` value no smaller than ``lo`` (else
    exit 2); nan and +-inf are out of range."""
    need = "finite" if lo == -math.inf else f"finite and >= {lo}"

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= lo):
            raise argparse.ArgumentTypeError(f"must be {need}; got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float literal
    (``--tol.<key> -1e-3``, ``--s -1e-3``, ``-inf``) as a value, not as an
    option, so the option's own range check reports it: argparse's test
    knows only -12 and -1.5.  Subparsers inherit it.

    ``late_options(parser)``, if given, declares further options the first
    time this parser parses, so a subcommand's option table is imported only
    when that subcommand runs."""

    def __init__(self, *args, late_options=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)
        self._late_options = late_options

    def parse_known_args(self, args=None, namespace=None):
        if self._late_options is not None:
            add, self._late_options = self._late_options, None
            add(self)
        return super().parse_known_args(args, namespace)


def _add_tol_options(v: argparse.ArgumentParser) -> None:
    """verify's ``--tol.<key>`` options, one per declared tolerance key."""
    from .verify import TOLERANCES

    for key in TOLERANCES:
        # zero and negative tolerances stay accepted: they force a check to fail
        v.add_argument(f"--tol.{key}", type=_at_least(-math.inf, float), dest=f"tol.{key}",
                       help=argparse.SUPPRESS)


# Built once per process: argparse keeps no state between parse_args calls
# (each returns a fresh namespace, and ``--N`` appends to a fresh list).
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="focklab",
        description="Spectral verification lab for Hermite/Fock operator identities.",
        epilog="examples:  focklab verify --format json --out report.json\n"
               "           focklab probe --multiplier chirp43 --s 1 --N 8 --N 16 "
               "--N 32 --N 64 --classical\n"
               "           focklab symbol --multiplier modulation:0.7\n"
               "           focklab export --matrix weyl:0.5 --N 16 --out W.mat",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    # No abbreviations: an option another subcommand owns must not be read
    # as a prefix of one of ours (``verify --s 2`` as ``--seed 2``).
    v = sub.add_parser("verify", help="run the verification suite", allow_abbrev=False,
                       late_options=_add_tol_options)
    v.set_defaults(run=cmd_verify)
    v.add_argument("--only", type=str, default=None,
                   help="run only checks whose id starts with this prefix")
    v.add_argument("--list", action="store_true",
                   help="list check ids with their tolerance keys and defaults, and exit; "
                        "--tol.<key> X overrides one")
    v.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    v.add_argument("--out", type=str, default=None)
    v.add_argument("--seed", type=_at_least(0), default=2718)

    s = sub.add_parser("symbol", help="tabulate a symbol on a complex grid",
                       allow_abbrev=False)
    s.set_defaults(run=cmd_symbol)
    s.add_argument("--multiplier", type=str, required=True)
    # 20 = N + 8 at the reference truncation N = 12
    s.add_argument("--quad-order", type=_at_least(20), default=160)
    s.add_argument("--z-re", type=str, default="-2:2:9", help="start:stop:count")
    s.add_argument("--z-im", type=str, default="-2:2:9", help="start:stop:count")
    s.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    s.add_argument("--out", type=str, default=None)

    pr = sub.add_parser("probe", help="boundedness probe over a truncation sweep",
                        allow_abbrev=False)
    pr.set_defaults(run=cmd_probe)
    pr.add_argument("--multiplier", type=str, required=True)
    pr.add_argument("--s", type=_at_least(0.0, float), default=0.0)
    pr.add_argument("--N", type=int, action="append", dest="N_list",
                    help="truncation in 4..248, repeated (default 8 16 32 64)")
    pr.add_argument("--classical", action="store_true",
                    help="also run the flat-weight classical-side probe")
    pr.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    pr.add_argument("--out", type=str, default=None)

    e = sub.add_parser("export", help="write an operator matrix to disk",
                       allow_abbrev=False)
    e.set_defaults(run=cmd_export)
    e.add_argument("--matrix", type=str, required=True,
                   help="identity | translation:<a> | weyl:<a> | multiplier:<id> | conjugated:<id>")
    e.add_argument("--n", type=int, choices=(1, 2, 3), default=1)
    e.add_argument("--N", type=_at_least(4), default=12)
    e.add_argument("--encoding", choices=("binary", "csv"), default="binary")
    e.add_argument("--out", type=str, required=True)

    c = sub.add_parser("calibrate", help="measure the growth threshold", allow_abbrev=False)
    c.set_defaults(run=cmd_calibrate)
    c.add_argument("--out", type=str, default=None)
    c.add_argument("--verbose", action="store_true")
    return p


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(args, records: list[ReportRecord], config: dict, header, rows) -> None:
    """Write a command's report in its ``--format``: the records under
    ``config`` as JSON, or ``rows`` under ``header`` as CSV."""
    text = emit_json(records, config, _timestamp()) if args.fmt == "json" \
        else emit_csv(header, rows)
    _write(args.out, text)


def _provenance() -> dict:
    """The package and numpy versions and the calibration file the checks
    read, with its SHA-256 (None when the file is missing)."""
    import hashlib  # loads OpenSSL, 3.6 MB of RSS that only verify needs

    cal = default_calibration_path()
    digest = hashlib.sha256(cal.read_bytes()).hexdigest() if cal.is_file() else None
    return {"focklab": __version__, "numpy": np.__version__,
            "calibration": {"path": str(cal), "sha256": digest}}


def cmd_verify(args) -> int:
    from . import verify  # 0.9k lines that no other command compiles

    if args.list:
        for cid, _, defaults in verify.CHECKS:
            print(" ".join([cid] + [f"{k}={v!r}" for k, v in defaults.items()]))
        return 0
    tols = {k: x for k in verify.TOLERANCES if (x := getattr(args, f"tol.{k}")) is not None}
    records = verify.run_suite(verify.VerifyContext(seed=args.seed, tol_overrides=tols),
                               only=args.only)
    if not records:
        _fail_config(f"--only {args.only!r} matches no checks")
    for r in records:
        print(f"[{r.status:4s}] {r.check_id}  ({r.wall_ms:.0f} ms)", file=sys.stderr)
    config = {"format": args.fmt, "seed": args.seed, "tol_overrides": tols,
              "provenance": _provenance()}
    _emit(args, records, config, RECORD_COLUMNS, map(record_row, records))
    sm = summarize(records)
    print(f"{sm['passed']}/{sm['total']} checks passed", file=sys.stderr)
    return 0 if sm["failed"] == 0 else 1


def _parse_range(spec: str) -> np.ndarray:
    try:
        a, b, k = spec.split(":")
        return np.linspace(float(a), float(b), int(k))
    except ValueError:
        _fail_config(f"bad range {spec!r}; expected start:stop:count")


# A tabulated symbol value passes when the rules of orders q and 2q agree to
# this relative difference.  On the closed-form symbols (constant,
# modulation, bump) a passing value's true error was at most 91x the
# difference, or 1.1e-11 where both rules agree to rounding (1.5e5 points,
# orders 40..512).  Where rounding blown up by e^{z^2/2}, or plane waves
# the rule cannot resolve, leave no digits, the rules disagree.
SYMBOL_TOL = 1e-8


def _order_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|) per point: 0 where both vanish, inf where a
    value or the difference is not finite (or its magnitude overflows)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diff = np.abs(a - b)
        size = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(size > 0, diff / size, 0.0)
    return np.where(np.isfinite(diff) & np.isfinite(size), rel, np.inf)


def cmd_symbol(args) -> int:
    q = args.quad_order
    q_ref = 2 * q if 2 * q <= MAX_QUADRATURE_ORDER else q // 2
    try:
        m = parse_multiplier(args.multiplier)
        sym = symbol_from_multiplier(m, quad_order=q)
        ref = symbol_from_multiplier(m, quad_order=q_ref)
    except (KeyError, ValueError) as exc:  # ValueError covers orders past the rule cap
        _fail_config(str(exc))
    re = _parse_range(args.z_re)
    im = _parse_range(args.z_im)
    zz = (re[:, None] + 1j * im[None, :]).ravel()
    # e^{z^2/2} overflows at large |Re z|; such points read inconclusive below
    with np.errstate(over="ignore", invalid="ignore"):
        vals = sym(zz)
    # the reference only feeds the estimate; its range warnings and
    # overflows show up there as an inconclusive point
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", AccuracyWarning)
        diffs = _order_difference(vals, ref(zz))
    records = [
        ReportRecord(check_id=f"symbol[{m.label}]",
                     status="pass" if d <= SYMBOL_TOL else "inconclusive",
                     measured={"re_z": float(z.real), "im_z": float(z.imag),
                               "re_phi": float(v.real), "im_phi": float(v.imag),
                               "order_diff_rel": float(d)},
                     tolerance=SYMBOL_TOL)
        for z, v, d in zip(zz, vals, diffs)
    ]
    flagged = int(np.count_nonzero(diffs > SYMBOL_TOL))
    if flagged:
        print(f"{flagged} of {len(zz)} points inconclusive: symbol orders {q} and {q_ref} "
              f"differ there by more than {SYMBOL_TOL:g} relative", file=sys.stderr)
    config = {"multiplier": args.multiplier, "quad_order": q,
              "reference_order": q_ref, "format": args.fmt}
    _emit(args, records, config, ("re_z", "im_z", "re_phi", "im_phi", "order_diff_rel"),
          (list(r.measured.values()) for r in records))
    return 0


def cmd_probe(args) -> int:
    N_list = args.N_list or _PROBE_LADDER
    try:
        _truncation_ladder(N_list)
        m = parse_multiplier(args.multiplier)
    except (KeyError, ValueError) as exc:
        _fail_config(str(exc))
    th = load_calibration()
    reports = [boundedness_probe(m, args.s, N_list, th)]
    if args.classical:
        reports.append(classical_sobolev_probe(m, args.s, N_list, th))
    records = [ReportRecord(check_id=f"probe[{m.label}:{r.side}]",
                            status="pass" if r.classification != "inconclusive"
                            else "inconclusive",
                            measured=r.as_dict()) for r in reports]
    config = {"multiplier": args.multiplier, "s": args.s, "N": N_list, "format": args.fmt}
    _emit(args, records, config, ("multiplier", "side", "s", "N", "norm"),
          ([r.multiplier, r.side, r.s, N, v] for r in reports
           for N, v in zip(r.N_list, r.values)))
    return 0


def _finite(value):
    if not np.isfinite(value):
        raise ValueError(f"matrix selector values must be finite; got {value}")
    return value


def _build_matrix(selector: str, N: int, n: int) -> OperatorMatrix:
    kind, _, arg = selector.partition(":")
    if kind == "identity":
        from .hermite import Convention, index_count

        count = index_count(n, N)
        return OperatorMatrix(N, n, np.eye(count, dtype=complex), Convention.FOCK)
    if kind == "translation":
        a = np.full(n, _finite(float(arg or 0.0)))
        return translation_matrix(a, N)
    if kind == "weyl":
        a = np.full(n, _finite(complex(arg or 0.0)))
        return weyl_matrix(a, N)
    if kind in ("multiplier", "conjugated") and n != 1:
        raise ConfigError(f"{kind} matrices are built for n=1 only; got --n {n}")
    if kind == "multiplier":
        return multiplier_matrix(parse_multiplier(arg), N)
    if kind == "conjugated":
        return conjugated_multiplier_matrix(parse_multiplier(arg), N)
    raise ConfigError(f"unknown matrix selector {selector!r}")


def cmd_export(args) -> int:
    from .matio import write_matrix

    try:
        M = _build_matrix(args.matrix, args.N, args.n)
    except (ConfigError, KeyError, ValueError) as exc:
        _fail_config(str(exc))
    try:
        write_matrix(Path(args.out), M, fmt=args.encoding)
    except OSError as exc:
        print(f"I/O error writing {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.matrix} (n={M.dim}, N={M.truncation}) to {args.out}",
          file=sys.stderr)
    return 0


def cmd_calibrate(args) -> int:
    values, comments = run_calibration(verbose=args.verbose)
    out = Path(args.out) if args.out else default_calibration_path()
    save_calibration(out, values, comments)
    print(f"calibration written to {out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except FockLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
