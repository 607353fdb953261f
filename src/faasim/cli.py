"""Command-line interface.

Every handler returns a `Report`, and `Report.emit` alone renders it, in
one of three formats: `json` (an envelope with a run manifest and the
result), `table` (aligned key/value or grid output), or `csv`. `main`
alone picks the exit status: 0, or 1 for a bug or a failed `repro` check,
or 2 for bad input (an invalid value, a malformed or unreadable file, an
unwritable output path), which prints a single `error: ...` line. The
program ends by SIGPIPE, as `cat` does, when its stdout is closed.

The catalog is resolved from --catalog, then the FAASIM_CATALOG
environment variable, then the bundled default, which the manifest
records as `bundled:default_catalog.json`. Its sha256 is computed by
CPython's own SHA-256, so that no command loads `hashlib` and OpenSSL.

The commands are declared once, in `COMMANDS`. A command builds only its
own path of parsers and loads only its handler module (`cli_<command>`)
and the modules that handler runs. Run from a checkout with
`PYTHONDONTWRITEBYTECODE=1`, a command compiles those modules each time.

`main` pauses cyclic garbage collection while a handler runs and its report
renders, then restores the caller's setting, so that no collection rescans
the many tuples and lists the graph commands keep alive. This relies on command data holding no
reference cycles, which only a collection would free.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, jsontext
from .money import usd_json, usd_str

EXIT_OK, EXIT_INTERNAL, EXIT_USAGE = 0, 1, 2

# Manifest name of the bundled catalog; its sha256 identifies the bytes.
BUNDLED_CATALOG = "bundled:default_catalog.json"


# ---------------------------------------------------------------------------
# Rendering


def _render_table(rows: list[tuple[str, str]], out) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        out.write(f"{key.ljust(width)}  {value}\n")


def _render_grid(headers: list[str], rows: list[list[str]], out, fmt: str) -> None:
    if fmt == "csv":
        import csv
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return
    table = [headers] + rows
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    for row in table:
        out.write("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n")


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, (list, jsontext.Table)):
        rows.append((prefix, json.dumps(value, default=list)))
    else:
        rows.append((prefix, str(value)))


class Report:
    """A run manifest plus a result payload, rendered once, in any format. In table and csv format, `grids` (an
    iterable of (headers, rows), read only there) stand in for the result's key/value rows, and in table format
    `footer` follows them. `failed` marks a result that reports a failure, a repro check's."""

    def __init__(self, subcommand: str, parameters: dict, result, inputs=(), catalog_sha256=None, seed=None,
                 grids=None, footer="", failed=False):
        self.manifest = {
            "subcommand": subcommand,
            "version": __version__,
            "parameters": parameters,
            "inputs": list(inputs),
            "catalog_sha256": catalog_sha256,
            "seed": seed,
        }
        self.result = result
        self.grids, self.footer, self.failed = grids, footer, failed

    def emit(self, fmt: str, out) -> None:
        if fmt == "json":
            jsontext.write(out, {"manifest": self.manifest, "result": self.result}, sort_keys=True)
        elif self.grids is not None:
            for at, (headers, rows) in enumerate(self.grids):
                out.write("\n" if at else "")
                _render_grid(headers, rows, out, fmt)
            if fmt == "table":
                out.write(self.footer)
        else:
            rows: list[tuple[str, str]] = []
            _flatten("", self.result, rows)
            if fmt == "table":
                _render_table(rows, out)
            else:
                _render_grid(["key", "value"], rows, out, "csv")


def _money_out(amount: Fraction, args) -> float | str:
    """Currency for a report: 6-dp JSON number, or full precision on request."""
    if args.full_precision:
        return usd_str(amount, None)
    return usd_json(amount)


# ---------------------------------------------------------------------------
# Catalog resolution


def _load_catalog(args):
    """The catalog, the name the manifest records for it, and its sha256, by CPython's own SHA-256, as `hashlib`
    falls back to: `hashlib` loads OpenSSL's libcrypto, several MB of RSS, to hash a few KB."""
    from . import catalog as cat
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256  # a build without CPython's own
    source = args.catalog or os.environ.get("FAASIM_CATALOG")
    if source:
        name, data = str(Path(source)), Path(source).read_bytes()
    else:
        name, data = BUNDLED_CATALOG, cat.default_catalog_path().read_bytes()
    return cat.loads_catalog(data.decode("utf-8")), name, sha256(data).hexdigest()


def _parse_bytes(text: str, args) -> int:
    from .units import parse_bytes
    return parse_bytes(text, binary=args.binary_units)


# ---------------------------------------------------------------------------
# Commands


def _arg(*flags, **settings) -> tuple:
    return flags, settings


# Shared options, each on only the commands that read it.
FORMAT = _arg("--format", choices=["json", "table", "csv"], default="json")
CATALOG = _arg("--catalog", help="catalog JSON path (overrides FAASIM_CATALOG)")
UNITS = _arg("--binary-units", action="store_true", help="interpret KB/MB/GB/TB suffixes as powers of 1024")
MONEY = _arg("--full-precision", action="store_true",
             help="print currency at full precision instead of report rounding")

# (path, help, arguments), in the order `faasim --help` lists them. A path with longer paths under it is a group,
# with no arguments of its own. The handler of `a b` is `a_b` in module `cli_a`; of `a`, `a` in `cli_a`.
COMMANDS = (
    (("catalog",), "inspect the service catalog and price primitives", ()),
    (("catalog", "show"), "render the catalog tables", (FORMAT, CATALOG)),
    (("catalog", "cost"), "price storage usage", (
        FORMAT, CATALOG, MONEY,
        _arg("--service", required=True),
        _arg("--capacity-gb", type=float),
        _arg("--months", type=float, default=1.0),
        _arg("--iops", type=float),
        _arg("--per", choices=["month", "minute"], default="month"),
        _arg("--mix", type=float, default=0.5, help="write fraction for --per minute"),
        _arg("--reads", type=int, default=0),
        _arg("--writes", type=int, default=0),
    )),
    (("comm",), "count messages for a communication pattern", (
        FORMAT, UNITS,
        # commpatterns.PATTERNS, spelled out so that building the parser loads no model.
        _arg("--pattern", choices=["aggregation", "broadcast", "shuffle"], required=True),
        _arg("--n", type=int, required=True, help="instance count"),
        _arg("--k", type=int, default=1, help="functions per instance"),
        _arg("--granularity", choices=["vm", "function", "vm-grouped", "function-grained"], default="vm"),
        _arg("--payload", default="0", help="bytes per logical message, e.g. 4MB"),
    )),
    (("shuffle",), "plan and price staged shuffles", ()),
    (("shuffle", "plan"), "derive block/transfer/storage counts", (
        FORMAT, UNITS,
        _arg("--data", required=True, help="total bytes to shuffle, e.g. 100TB"),
        _arg("--block", default="3GB", help="per-function memory cap"),
        _arg("--stages", type=int, default=1),
    )),
    (("shuffle", "price"), "price a plan or bundled preset", (
        FORMAT, CATALOG, UNITS, MONEY,
        _arg("--preset", help="bundled preset name or JSON path"),
        _arg("--data"),
        _arg("--block", default="3GB"),
        _arg("--stages", type=int, default=1),
        _arg("--gb-seconds", default="0", help="aggregate function GiB-seconds"),
        _arg("--gb-hours", default="0", help="fast-store GB-hours rented"),
        _arg("--write-fraction", default="1/2"),
        _arg("--slow-ops", type=int, help="override request count billed to the slow store"),
    )),
    (("workload",), "generate and inspect workloads", ()),
    (("workload", "gen"), "emit a task graph or scenario list", (
        FORMAT, UNITS,
        _arg("--kind", choices=["shuffle", "cholesky", "paramserver"], required=True),
        _arg("--mappers", type=int, default=2),
        _arg("--reducers", type=int, default=2),
        _arg("--bytes", default="1MB", help="bytes per shuffle transfer"),
        _arg("--blocks", type=int, default=4, help="tiles per dimension for cholesky"),
        _arg("--block-dim", type=int, default=256),
        _arg("--workers", type=int, default=10),
        _arg("--rounds", type=int, default=1),
        _arg("--gradient", default="4MB"),
        _arg("-o", "--output", help="write the artifact to a file instead of the report"),
    )),
    (("workload", "profile"), "parallelism profile of a graph", (
        FORMAT,
        _arg("--graph", required=True, help="task graph JSON path"),
    )),
    (("workload", "trace"), "generate an invocation trace", (
        FORMAT,
        _arg("--arrivals", choices=["poisson", "fixed"], default="poisson"),
        _arg("--count", type=int, default=100),
        _arg("--rate", type=float, default=1.0, help="arrivals per second (poisson)"),
        _arg("--interval", type=float, default=1.0, help="seconds between arrivals (fixed)"),
        _arg("--duration", type=float, default=0.5),
        _arg("--memory", type=float, default=0.125),
        _arg("--seed", type=int, default=0),
        _arg("-o", "--output"),
    )),
    (("simulate",), "run a trace on the platform model", (
        FORMAT, CATALOG,
        _arg("--trace", required=True, help="trace JSON path"),
        _arg("--service", default="serverless"),
        _arg("--t-schedule", type=float, default=0.5),
        _arg("--t-env", type=float, default=0.0),
        _arg("--t-app", type=float, default=0.0),
        _arg("--keep-alive", type=float, default=600.0),
        _arg("--prestarted", type=int, default=0),
    )),
    (("place",), "assign a task graph to instances", (
        FORMAT,
        _arg("--graph", required=True),
        _arg("--instances", type=int, required=True),
        _arg("--slots", type=int, required=True),
    )),
    (("breakeven",), "duty cycle at which functions and VMs cost the same", (
        FORMAT,
        _arg("--ratio", type=float, help="per-minute function/VM cost ratio"),
    )),
    (("repro",), "re-run every bundled published-figure check", (FORMAT, CATALOG)),
)


def command_parser(argv: list[str]) -> tuple[argparse.ArgumentParser, tuple[str, ...]]:
    """The parser for `argv`, and the path of the command it names, as far as it names one.

    Every level lists all its subcommands and their help, so help and usage errors read as if every command were
    built, but only the named path's parsers are given their arguments. The path is argv's first words that do not
    start with "-", as argparse picks it: before the path, a top-level or group parser reads only -h and --version.
    """
    parser = argparse.ArgumentParser(
        prog="faasim",
        description="Cost and performance modeling for serverless versus serverful deployments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    words = (word for word in argv if not word.startswith("-"))
    level, path, arguments = parser, (), ()
    while children := [command for command in COMMANDS if command[0][:-1] == path]:
        sub = level.add_subparsers(dest=f"{path[-1]}_command" if path else "command", required=True)
        word, chosen = next(words, None), None
        for child, text, child_arguments in children:
            child_parser = sub.add_parser(child[-1], help=text)
            if child[-1] == word:
                chosen = child_parser, child, child_arguments
        if chosen is None:
            return parser, path
        level, path, arguments = chosen
    for flags, settings in arguments:
        level.add_argument(*flags, **settings)
    return parser, path


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, path = command_parser(argv)
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        name = "_".join(path)  # as `from faasim.cli_catalog import catalog_show`
        report = getattr(__import__(f"{__package__}.cli_{path[0]}", fromlist=[name]), name)(args)
        report.emit(args.format, out)
        return EXIT_INTERNAL if report.failed else EXIT_OK
    # Every domain error subclasses ValueError, as do JSON and UTF-8 decode
    # errors; OSError messages name the file.
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        err.write(f"internal error: {str(exc) or type(exc).__name__}\n")  # a bare MemoryError has no message
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    # A closed stdout ends the program as it ends `cat`, by SIGPIPE's default action, not as bad input. Set here
    # only: `main` also runs inside other programs, whose signal handling is theirs.
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
