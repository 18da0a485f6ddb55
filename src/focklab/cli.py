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
import sys
from dataclasses import dataclass, field
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
    _strictly_increasing,
    boundedness_probe,
    classical_sobolev_probe,
    conjugated_multiplier_matrix,
    multiplier_matrix,
    symbol_from_multiplier,
)
from .reporting import ReportRecord, emit_csv, emit_json, summarize
from .transforms import OperatorMatrix, translation_matrix, weyl_matrix
from .verify import CHECK_IDS, VerifyContext, run_suite

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    n: int = 1
    N_list: list[int] = field(default_factory=lambda: [12])
    s: float = 0.0
    quad_order: int | None = None
    multiplier: str | None = None
    fmt: str = "json"
    out: str | None = None
    seed: int = 2718
    jobs: int = 1
    tol_overrides: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        if self.n not in (1, 2, 3):
            raise ConfigError(f"--n must be 1, 2 or 3; got {self.n}")
        for N in self.N_list:
            if N < 4:
                raise ConfigError(f"--N must be >= 4; got {N}")
        if self.quad_order is not None:
            need = max(self.N_list) + 8
            if self.quad_order < need:
                raise ConfigError(
                    f"--quad-order must be >= N + 8 = {need}; got {self.quad_order}")
        if self.s < 0:
            raise ConfigError(f"--s must be >= 0; got {self.s}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"--format must be json or csv; got {self.fmt}")
        if self.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1; got {self.jobs}")

    def as_dict(self) -> dict:
        return {
            "n": self.n, "N": self.N_list, "s": self.s,
            "quad_order": self.quad_order, "multiplier": self.multiplier,
            "format": self.fmt, "seed": self.seed, "jobs": self.jobs,
            "tol_overrides": self.tol_overrides,
        }


def _fail_config(msg: str) -> "NoReturn":  # noqa: F821
    print(f"configuration error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _extract_tol_overrides(rest: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--tol."):
            _fail_config(f"unrecognized argument {tok!r}")
        key, eq, val = tok[6:].partition("=")
        if not eq:
            if i + 1 >= len(rest):
                _fail_config(f"--tol.{key} needs a value")
            val = rest[i + 1]
            i += 1
        try:
            out[key] = float(val)
        except ValueError:
            _fail_config(f"--tol.{key} value {val!r} is not a number")
        i += 1
    return out


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

    def common(q):
        q.add_argument("--n", type=int, default=1)
        q.add_argument("--N", type=int, action="append", dest="N_list")
        q.add_argument("--s", type=float, default=0.0)
        q.add_argument("--quad-order", type=int, default=None)
        q.add_argument("--multiplier", type=str, default=None)
        q.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        q.add_argument("--out", type=str, default=None)
        q.add_argument("--seed", type=int, default=2718)
        q.add_argument("--jobs", type=int, default=1)

    v = sub.add_parser("verify", help="run the verification suite")
    common(v)
    v.add_argument("--only", type=str, default=None,
                   help="run only checks whose id starts with this prefix")
    v.add_argument("--list", action="store_true", help="list check ids and exit")

    s = sub.add_parser("symbol", help="tabulate a symbol on a complex grid")
    common(s)
    s.add_argument("--z-re", type=str, default="-2:2:9", help="start:stop:count")
    s.add_argument("--z-im", type=str, default="-2:2:9", help="start:stop:count")

    pr = sub.add_parser("probe", help="boundedness probe over a truncation sweep")
    common(pr)
    pr.add_argument("--classical", action="store_true",
                    help="also run the flat-weight classical-side probe")

    e = sub.add_parser("export", help="write an operator matrix to disk")
    common(e)
    e.add_argument("--matrix", type=str, required=True,
                   help="identity | translation:<a> | weyl:<a> | multiplier:<id> | conjugated:<id>")
    e.add_argument("--encoding", choices=("binary", "csv"), default="binary")

    c = sub.add_parser("calibrate", help="run the oracle measurements")
    common(c)
    c.add_argument("--verbose", action="store_true")
    return p


def _make_config(args, tols) -> RunConfig:
    cfg = RunConfig(
        n=args.n, N_list=args.N_list or [12], s=args.s, quad_order=args.quad_order,
        multiplier=args.multiplier, fmt=args.fmt, out=args.out, seed=args.seed,
        jobs=args.jobs, tol_overrides=tols)
    try:
        cfg.validate()
    except ConfigError as exc:
        _fail_config(str(exc))
    return cfg


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_verify(args, tols) -> int:
    cfg = _make_config(args, tols)
    if args.list:
        print("\n".join(CHECK_IDS))
        return 0
    unknown = [k for k in tols if k not in CHECK_IDS
               and not any(c.startswith(k.rstrip(".")) for c in CHECK_IDS)]
    if unknown:
        _fail_config(f"--tol overrides for unknown checks: {unknown}")
    ctx = VerifyContext(seed=cfg.seed, tol_overrides=tols, jobs=cfg.jobs)
    records = run_suite(ctx, only=args.only)
    if not records:
        _fail_config(f"--only {args.only!r} matches no checks")
    for r in records:
        print(f"[{r.status:4s}] {r.check_id}  ({r.wall_ms:.0f} ms)", file=sys.stderr)
    text = emit_json(records, cfg.as_dict(), _timestamp()) if cfg.fmt == "json" \
        else emit_csv(records)
    _write(cfg, text)
    sm = summarize(records)
    print(f"{sm['passed']}/{sm['total']} checks passed", file=sys.stderr)
    return 0 if sm["failed"] == 0 else 1


def _parse_range(spec: str) -> np.ndarray:
    try:
        a, b, k = spec.split(":")
        return np.linspace(float(a), float(b), int(k))
    except ValueError:
        _fail_config(f"bad range {spec!r}; expected start:stop:count")


def cmd_symbol(args, tols) -> int:
    cfg = _make_config(args, tols)
    if not cfg.multiplier:
        _fail_config("symbol needs --multiplier")
    try:
        m = parse_multiplier(cfg.multiplier)
    except (KeyError, ValueError) as exc:
        _fail_config(str(exc))
    sym = symbol_from_multiplier(m, quad_order=cfg.quad_order or 160)
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
    if cfg.fmt == "csv":
        lines = ["re_z,im_z,re_phi,im_phi"]
        lines += [f"{float(z.real)!r},{float(z.imag)!r},{float(v.real)!r},{float(v.imag)!r}"
                  for z, v in zip(zz, vals)]
        _write(cfg, "\n".join(lines) + "\n")
    else:
        _write(cfg, emit_json(records, cfg.as_dict(), _timestamp()))
    return 0


def cmd_probe(args, tols) -> int:
    cfg = _make_config(args, tols)
    if not cfg.multiplier:
        _fail_config("probe needs --multiplier")
    try:
        N_list = _strictly_increasing(cfg.N_list if len(cfg.N_list) > 1 else [8, 16, 32, 64])
        m = parse_multiplier(cfg.multiplier)
    except (KeyError, ValueError) as exc:
        _fail_config(str(exc))
    th = load_calibration().growth_thresholds
    reports = [boundedness_probe(m, cfg.s, N_list, th)]
    if args.classical:
        if cfg.n != 1:
            _fail_config("the classical contrast probe is one-dimensional")
        reports.append(classical_sobolev_probe(m, cfg.s, N_list, th))
    records = [ReportRecord(check_id=f"probe[{m.label}:{r.side}]",
                            status="pass" if r.classification != "inconclusive"
                            else "inconclusive",
                            measured=r.as_dict()) for r in reports]
    if cfg.fmt == "csv":
        lines = ["multiplier,side,s,N,norm"]
        for r in reports:
            for N, vv in zip(r.N_list, r.values):
                lines.append(f"{r.multiplier},{r.side},{r.s!r},{N},{vv!r}")
        _write(cfg, "\n".join(lines) + "\n")
    else:
        _write(cfg, emit_json(records, cfg.as_dict(), _timestamp()))
    return 0


def _build_matrix(selector: str, N: int, n: int) -> OperatorMatrix:
    kind, _, arg = selector.partition(":")
    if kind == "identity":
        from .hermite import Convention, index_count

        count = index_count(n, N)
        return OperatorMatrix(N, n, np.eye(count, dtype=complex), Convention.FOCK)
    if kind == "translation":
        a = np.full(n, float(arg or 0.0))
        return translation_matrix(a, N)
    if kind == "weyl":
        a = np.full(n, complex(arg or 0.0))
        return weyl_matrix(a, N)
    if kind == "multiplier":
        return multiplier_matrix(parse_multiplier(arg), N)
    if kind == "conjugated":
        return conjugated_multiplier_matrix(parse_multiplier(arg), N)
    raise ConfigError(f"unknown matrix selector {selector!r}")


def cmd_export(args, tols) -> int:
    from .matio import write_matrix

    cfg = _make_config(args, tols)
    if not cfg.out:
        _fail_config("export needs --out")
    try:
        M = _build_matrix(args.matrix, max(cfg.N_list), cfg.n)
    except (ConfigError, KeyError, ValueError) as exc:
        _fail_config(str(exc))
    try:
        write_matrix(Path(cfg.out), M, fmt=args.encoding)
    except OSError as exc:
        print(f"I/O error writing {cfg.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.matrix} (n={M.dim}, N={M.truncation}) to {cfg.out}",
          file=sys.stderr)
    return 0


def cmd_calibrate(args, tols) -> int:
    cfg = _make_config(args, tols)
    values, comments = run_calibration(seed=cfg.seed, verbose=args.verbose)
    out = Path(cfg.out) if cfg.out else default_calibration_path()
    save_calibration(out, values, comments, cfg.seed)
    print(f"calibration written to {out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    tols = _extract_tol_overrides(rest)
    handlers = {
        "verify": cmd_verify,
        "symbol": cmd_symbol,
        "probe": cmd_probe,
        "export": cmd_export,
        "calibrate": cmd_calibrate,
    }
    try:
        return handlers[args.command](args, tols)
    except FockLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
