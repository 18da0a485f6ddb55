"""Command-line front end.

Subcommands:

    verify     run the verification suite, emit a report, exit 0/1
    symbol     tabulate a multiplier's symbol on a complex grid
    probe      boundedness probe (optionally with the classical contrast)
    export     write an operator matrix in the documented binary/CSV layout
    calibrate  run the oracle measurements and write the calibration file

Exit status: 0 all checks passed, 1 some check failed, 2 configuration error.
"""
from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .calibration import (
    default_calibration_path,
    load_calibration,
    run_calibration,
    save_calibration,
)
from .errors import ConfigError, FockLabError
from .multipliers import parse_multiplier
from .operators import (
    _truncation_ladder,
    boundedness_probe,
    classical_sobolev_probe,
    conjugated_multiplier_matrix,
    multiplier_matrix,
    symbol_from_multiplier,
)
from .reporting import ReportRecord, emit_csv, emit_json, summarize
from .transforms import OperatorMatrix, translation_matrix, weyl_matrix
from .verify import CHECKS, TOLERANCES, VerifyContext, run_suite

__all__ = ["main"]


def _fail_config(msg: str) -> "NoReturn":  # noqa: F821
    print(f"configuration error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _at_least(lo, kind=int):
    """argparse type: a finite ``kind`` value no smaller than ``lo`` (else
    exit 2); nan and inf are out of range."""
    def parse(text: str):
        value = kind(text)
        if not lo <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= {lo}; got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
    v = sub.add_parser("verify", help="run the verification suite", allow_abbrev=False)
    v.set_defaults(run=cmd_verify)
    v.add_argument("--only", type=str, default=None,
                   help="run only checks whose id starts with this prefix")
    v.add_argument("--list", action="store_true",
                   help="list check ids with their tolerance keys and defaults, and exit; "
                        "--tol.<key> X overrides one")
    v.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    v.add_argument("--out", type=str, default=None)
    v.add_argument("--seed", type=int, default=2718)
    for key in TOLERANCES:
        v.add_argument(f"--tol.{key}", type=float, dest=f"tol.{key}",
                       help=argparse.SUPPRESS)

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

    c = sub.add_parser("calibrate", help="run the oracle measurements", allow_abbrev=False)
    c.set_defaults(run=cmd_calibrate)
    c.add_argument("--out", type=str, default=None)
    c.add_argument("--seed", type=int, default=2718)
    c.add_argument("--verbose", action="store_true")
    return p


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_verify(args) -> int:
    if args.list:
        for cid, _, defaults in CHECKS:
            print(" ".join([cid] + [f"{k}={v!r}" for k, v in defaults.items()]))
        return 0
    tols = {k: x for k in TOLERANCES if (x := getattr(args, f"tol.{k}")) is not None}
    records = run_suite(VerifyContext(seed=args.seed, tol_overrides=tols), only=args.only)
    if not records:
        _fail_config(f"--only {args.only!r} matches no checks")
    for r in records:
        print(f"[{r.status:4s}] {r.check_id}  ({r.wall_ms:.0f} ms)", file=sys.stderr)
    config = {"format": args.fmt, "seed": args.seed, "tol_overrides": tols}
    text = emit_json(records, config, _timestamp()) if args.fmt == "json" \
        else emit_csv(records)
    _write(args.out, text)
    sm = summarize(records)
    print(f"{sm['passed']}/{sm['total']} checks passed", file=sys.stderr)
    return 0 if sm["failed"] == 0 else 1


def _parse_range(spec: str) -> np.ndarray:
    try:
        a, b, k = spec.split(":")
        return np.linspace(float(a), float(b), int(k))
    except ValueError:
        _fail_config(f"bad range {spec!r}; expected start:stop:count")


def cmd_symbol(args) -> int:
    try:
        m = parse_multiplier(args.multiplier)
        sym = symbol_from_multiplier(m, quad_order=args.quad_order)
    except (KeyError, ValueError) as exc:  # ValueError covers orders past the rule cap
        _fail_config(str(exc))
    re = _parse_range(args.z_re)
    im = _parse_range(args.z_im)
    zz = (re[:, None] + 1j * im[None, :]).ravel()
    vals = sym(zz)
    records = [
        ReportRecord(check_id=f"symbol[{m.label}]", status="pass",
                     measured={"re_z": float(z.real), "im_z": float(z.imag),
                               "re_phi": float(v.real), "im_phi": float(v.imag)})
        for z, v in zip(zz, vals)
    ]
    if args.fmt == "csv":
        lines = ["re_z,im_z,re_phi,im_phi"]
        lines += [f"{float(z.real)!r},{float(z.imag)!r},{float(v.real)!r},{float(v.imag)!r}"
                  for z, v in zip(zz, vals)]
        _write(args.out, "\n".join(lines) + "\n")
    else:
        config = {"multiplier": args.multiplier, "quad_order": args.quad_order,
                  "format": args.fmt}
        _write(args.out, emit_json(records, config, _timestamp()))
    return 0


def cmd_probe(args) -> int:
    N_list = args.N_list or [8, 16, 32, 64]
    try:
        _truncation_ladder(N_list)
        m = parse_multiplier(args.multiplier)
    except (KeyError, ValueError) as exc:
        _fail_config(str(exc))
    th = load_calibration().growth_thresholds
    reports = [boundedness_probe(m, args.s, N_list, th)]
    if args.classical:
        reports.append(classical_sobolev_probe(m, args.s, N_list, th))
    records = [ReportRecord(check_id=f"probe[{m.label}:{r.side}]",
                            status="pass" if r.classification != "inconclusive"
                            else "inconclusive",
                            measured=r.as_dict()) for r in reports]
    if args.fmt == "csv":
        lines = ["multiplier,side,s,N,norm"]
        for r in reports:
            for N, vv in zip(r.N_list, r.values):
                lines.append(f"{r.multiplier},{r.side},{r.s!r},{N},{vv!r}")
        _write(args.out, "\n".join(lines) + "\n")
    else:
        config = {"multiplier": args.multiplier, "s": args.s, "N": N_list,
                  "format": args.fmt}
        _write(args.out, emit_json(records, config, _timestamp()))
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
    values, comments = run_calibration(seed=args.seed, verbose=args.verbose)
    out = Path(args.out) if args.out else default_calibration_path()
    save_calibration(out, values, comments, args.seed)
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
