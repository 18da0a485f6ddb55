#!/usr/bin/env python3
"""Print the SHA-256 of every output a fixed set of CLI calls writes, for one
checkout of the repository, so that two checkouts can be compared by diff.

    python3 scripts/output_digest.py <checkout>

The calls, run in-process against ``<checkout>/src`` with one BLAS thread:

- ``verify`` JSON at seeds 0, 7 and 23, and ``verify`` CSV at seed 23;
- ``probe --classical`` JSON and CSV for each call of the seed-1
  probe-sweep benchmark inputs;
- ``symbol`` JSON and CSV for one identifier of each registry multiplier;
- ``export`` in both encodings for each matrix of the seed-1
  matrix-export benchmark inputs.

The benchmark inputs come from ``<checkout>/perfbench/workloads.py``
(``make_inputs``, read only).  Before hashing, JSON reports lose their
``timestamp``, every record's ``wall_ms`` and ``config.provenance`` (it
names the calibration file's path), and the verify CSV loses its
``wall_ms`` column.  One line per output, then the count.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy is imported
os.environ.pop("FOCKLAB_CALIBRATION", None)

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

SYMBOLS = ("constant", "modulation:0.7", "signum", "chirp43", "bump")
VERIFY = (("json", 0), ("json", 7), ("json", 23), ("csv", 23))


def _stripped(path: Path) -> bytes:
    """The file's bytes with the run-dependent fields removed."""
    raw = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(raw)
        doc.pop("timestamp", None)
        doc.get("config", {}).pop("provenance", None)
        for r in doc.get("records", []):
            r.pop("wall_ms", None)
        return json.dumps(doc, indent=2, sort_keys=True).encode()
    if path.name.startswith("verify"):
        rows = list(csv.reader(io.StringIO(raw.decode())))
        col = rows[0].index("wall_ms")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            row[:col] + row[col + 1:] for row in rows)
        return buf.getvalue().encode()
    return raw


def _calls(checkout: Path, out: Path):
    """(output file, CLI argv) for every call."""
    sys.path.insert(0, str(checkout / "perfbench"))
    from workloads import PROBE_N, make_inputs

    for fmt, seed in VERIFY:
        path = out / f"verify-{seed}.{fmt}"
        yield path, ["verify", "--seed", str(seed), "--format", fmt, "--out", str(path)]
    Ns = [a for N in PROBE_N for a in ("--N", str(N))]
    for i, (mult, s) in enumerate(make_inputs("probe-sweep", 1)["calls"]):
        for fmt in ("json", "csv"):
            path = out / f"probe-{i}.{fmt}"
            yield path, ["probe", "--multiplier", mult, "--s", repr(s), *Ns, "--classical",
                         "--format", fmt, "--out", str(path)]
    for ident in SYMBOLS:
        for fmt in ("json", "csv"):
            path = out / f"symbol-{ident.partition(':')[0]}.{fmt}"
            yield path, ["symbol", "--multiplier", ident, "--format", fmt, "--out", str(path)]
    for i, (selector, n, N) in enumerate(make_inputs("matrix-export", 1)["exports"]):
        for enc in ("binary", "csv"):
            path = out / f"export-{i}.{enc}"
            yield path, ["export", "--matrix", selector, "--n", str(n), "--N", str(N),
                         "--encoding", enc, "--out", str(path)]


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "focklab").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    from focklab import cli

    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for path, call in _calls(checkout, Path(tmp)):
            with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli.main(call)
            if rc not in (0, 1) or not path.is_file():
                print(f"{' '.join(call[:3])}: exit {rc}, no output", file=sys.stderr)
                return 1
            print(f"{hashlib.sha256(_stripped(path)).hexdigest()}  {path.name}", flush=True)
            count += 1
    print(f"{count} outputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
