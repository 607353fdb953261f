"""End-to-end CLI behavior: formats, exit codes, manifests, schemas."""

import argparse
import copy
import csv
import gc
import hashlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
from functools import partial
from importlib import resources
from pathlib import Path
from unittest.mock import patch

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faasim
from faasim import catalog as cat
from faasim import cli, cli_breakeven, cli_place
from faasim import commpatterns as comm
from faasim import jsonchunks
from faasim import workloads as wl
from documents import dumps, graph_from_doc
from test_jsontext import assert_same_text
from trace_reference import reference_fixed_interval_trace, reference_poisson_trace


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _not_json(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


def strict_json(text):
    """Parse a report as RFC 8259 JSON: NaN, Infinity and -Infinity are refused, not read as floats."""
    return json.loads(text, parse_constant=_not_json)


def run_json(*argv):
    code, out, err = run(*argv, "--format", "json")
    assert code == 0, err
    return strict_json(out)


def load_schema(name):
    return json.loads((resources.files("faasim") / "data" / "schemas" / name).read_text())


@pytest.fixture(scope="module")
def report_schema():
    return load_schema("report.schema.json")


def table_values(text):
    values = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("  ")
        values[key.strip()] = value.strip()
    return values


# --- basic subcommands ---------------------------------------------------------


def test_breakeven():
    doc = run_json("breakeven", "--ratio", "7.5")
    assert doc["result"]["breakeven_duty_cycle"] == pytest.approx(0.133333)
    assert doc["result"]["breakeven_percent"] == "13.33%"


def test_comm_function_grained_shuffle():
    doc = run_json("comm", "--pattern", "shuffle", "--n", "2", "--k", "2", "--granularity", "function")
    assert doc["result"]["messages"] == 16


def test_catalog_cost_capacity():
    doc = run_json("catalog", "cost", "--service", "object", "--capacity-gb", "1")
    assert doc["result"]["capacity_usd"] == 0.023


def test_catalog_cost_iops_per_minute():
    doc = run_json(
        "catalog", "cost", "--service", "object", "--iops", "100000", "--per", "minute", "--mix", "1.0"
    )
    assert doc["result"]["iops_usd_per_minute"] == 30.0


def test_catalog_show_table_runs():
    code, out, _ = run("catalog", "show", "--format", "table")
    assert code == 0
    assert "object" in out and "elastic-db" in out
    # $/unit is written in plain decimals in both grids, never in exponent form
    assert re.search(r"^serverless +serverless-function +0\.125-3 +0\.1 +0\.0000002 +900$", out, re.M)
    code, out, _ = run("catalog", "show", "--format", "csv")
    assert code == 0
    assert "serverless,serverless-function,0.125-3,0.1,0.0000002,900" in out.splitlines()


def test_catalog_show_empty(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"compute": [], "storage": []}')
    code, out, _ = run("catalog", "show", "--format", "table", "--catalog", str(empty))
    assert code == 0


def test_shuffle_plan_staged():
    doc = run_json("shuffle", "plan", "--data", "100TB", "--block", "3GB", "--stages", "50")
    assert doc["result"]["fast_storage_bytes"] == 2 * 10**12
    assert doc["result"]["fast_storage_human"] == "2 TB"
    assert doc["result"]["transfers"] == 1_111_155_556


def test_shuffle_price_preset():
    doc = run_json("shuffle", "price", "--preset", "cloudsort100tb")
    cost = doc["result"]["cost"]
    assert cost["total_usd"] == 163.0
    assert cost["compute_usd"] == 117.0
    assert cost["slow_store_request_usd"] == 14.0
    assert cost["fast_store_usd"] == 32.0


def test_shuffle_price_from_options_reproduces_the_preset():
    """The preset's plan and execution inputs, given as options, price to its $117 + $14 + $32 = $163."""
    preset = run_json("shuffle", "price", "--preset", "cloudsort100tb")["result"]
    doc = run_json("shuffle", "price", "--data", "100TB", "--block", "3GB", "--stages", "50",
                   "--gb-seconds", "7312500", "--gb-hours", "2304000/187", "--write-fraction", "1",
                   "--slow-ops", "2800000")
    assert doc["result"] == {"plan": preset["plan"], "cost": {**preset["cost"], "duration_s": None}}
    assert [doc["result"]["cost"][key] for key in ("compute_usd", "slow_store_request_usd", "fast_store_usd",
                                                    "total_usd")] == [117.0, 14.0, 32.0, 163.0]


def test_shuffle_plan_with_binary_suffixes():
    assert run_json("shuffle", "plan", "--data", "3GiB", "--block", "1GiB")["result"]["mappers"] == 3


def test_catalog_cost_of_requests():
    doc = run_json("catalog", "cost", "--service", "object", "--reads", "1000000", "--writes", "1000000")
    assert doc["result"]["request_usd"] == doc["result"]["total_usd"] == 5.4


def test_workload_gen_and_profile(tmp_path):
    graph_path = tmp_path / "graph.json"
    code, _, err = run("workload", "gen", "--kind", "cholesky", "--blocks", "4", "-o", str(graph_path))
    assert code == 0, err
    doc = run_json("workload", "profile", "--graph", str(graph_path))
    assert doc["result"]["peak_width"] == 6


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_profile_of_an_empty_graph(tmp_path, fmt):
    """A graph with no tasks, which `place` accepts too, has no levels and zero peaks."""
    graph_path = tmp_path / "graph.json"
    graph_path.write_text('{"tasks": [], "edges": []}', encoding="utf-8")
    code, out, err = run("workload", "profile", "--graph", str(graph_path), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["result"] == {"levels": [], "peak_width": 0, "peak_working_set_bytes": 0}
    assert run("place", "--graph", str(graph_path), "--instances", "1", "--slots", "1")[0] == 0


def test_oversized_shuffle_is_refused_only_when_written(tmp_path):
    """Over the edge limit the counts are reported; writing the graph itself is one error line."""
    argv = ("workload", "gen", "--kind", "shuffle", "--mappers", "4000", "--reducers", "4000")
    doc = run_json(*argv)
    assert doc["result"]["implicit"] is True and doc["result"]["edge_count"] == 16 * 10**6
    graph_path = tmp_path / "big.json"
    code, out, err = run(*argv, "-o", str(graph_path))
    assert_one_error_line(code, out, err)
    assert f"limit of {wl.MATERIALIZE_EDGE_LIMIT} elements" in err
    assert not graph_path.exists()


def test_workload_trace_simulate_roundtrip(tmp_path):
    trace_path = tmp_path / "trace.json"
    code, _, err = run(
        "workload", "trace", "--arrivals", "poisson", "--count", "20", "--rate", "2",
        "--duration", "0.3", "--seed", "3", "-o", str(trace_path),
    )
    assert code == 0, err
    doc = run_json("simulate", "--trace", str(trace_path), "--keep-alive", "1", "--t-env", "1")
    assert doc["result"]["cold_starts"] >= 1
    assert doc["manifest"]["parameters"]["keep_alive"] == 1.0


# Every command whose manifest names a catalog; paths are relative to tmp_path.
CATALOG_COMMANDS = {
    "catalog show": ("catalog", "show"),
    "catalog cost": ("catalog", "cost", "--service", "object", "--capacity-gb", "1"),
    "shuffle price": ("shuffle", "price", "--preset", "cloudsort100tb"),
    "simulate": ("simulate", "--trace", "trace.json"),
    "repro": ("repro",),
}


@pytest.mark.parametrize("source", ["bundled", "option", "environment"])
@pytest.mark.parametrize("name", CATALOG_COMMANDS)
def test_manifest_digest_is_the_sha256_of_the_catalog_file(tmp_path, monkeypatch, source, name):
    """The digest is hashlib's SHA-256 of the bytes read: a catalog given by path is the bundled one re-serialized,
    the same prices in other bytes, so a digest of the wrong file would not match."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FAASIM_CATALOG", raising=False)
    (tmp_path / "trace.json").write_text('[{"arrival_s": 0, "duration_s": 1}, {"arrival_s": 0.5, "duration_s": 1},'
                                         ' {"arrival_s": 3, "duration_s": 2}]', encoding="utf-8")
    argv = CATALOG_COMMANDS[name]
    if source == "bundled":
        data = cat.default_catalog_path().read_bytes()
    else:
        data = _catalog_text(lambda doc: None).encode("utf-8")
        (tmp_path / "catalog.json").write_bytes(data)
        if source == "option":
            argv += ("--catalog", "catalog.json")
        else:
            monkeypatch.setenv("FAASIM_CATALOG", "catalog.json")
    doc = run_json(*argv)
    assert doc["manifest"]["catalog_sha256"] == hashlib.sha256(data).hexdigest()
    assert doc["manifest"]["inputs"][-1] == ("bundled:default_catalog.json" if source == "bundled" else "catalog.json")


def test_place_compares_planners(tmp_path):
    graph_path = tmp_path / "graph.json"
    run("workload", "gen", "--kind", "shuffle", "--mappers", "2", "--reducers", "2",
        "--bytes", "1MB", "-o", str(graph_path))
    doc = run_json("place", "--graph", str(graph_path), "--instances", "2", "--slots", "2")
    comparison = doc["result"]["comparison"]
    assert comparison["greedy"]["cross_instance_bytes"] == comparison["exhaustive_optimum"]["cross_instance_bytes"]
    # 2x2 shuffle, every task on its own instance: all 4 transfers remote
    assert comparison["singleton_baseline"]["remote_message_count"] == 4
    assert comparison["singleton_baseline"]["cross_instance_bytes"] == 4 * 10**6


@pytest.mark.parametrize("edit", [
    ("edges", "bytes", "1e400"), ("edges", "bytes", "NaN"),
    ("tasks", "duration_s", "NaN"), ("tasks", "duration_s", "Infinity"), ("tasks", "memory_gb", "NaN"),
])
@pytest.mark.parametrize("command", [("workload", "profile"), ("place", "--instances", "4", "--slots", "2")])
def test_non_finite_graph_exits_2(tmp_path, edit, command):
    section, field, literal = edit
    doc = {"tasks": [{"id": "a", "duration_s": 1.0}, {"id": "b", "duration_s": 1.0}],
           "edges": [{"src": "a", "dst": "b", "bytes": 5}]}
    doc[section][0][field] = "LITERAL"
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc).replace('"LITERAL"', literal), encoding="utf-8")
    code, out, err = run(*command, "--graph", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_repro_passes():
    doc = run_json("repro")
    assert doc["result"]["failed"] == 0
    assert doc["result"]["passed"] >= 20
    assert doc["result"]["external"] == 5
    external = [c for c in doc["result"]["checks"] if c["status"] == "external"]
    assert all(c["actual"] == "not checked" for c in external)


# --- formats, manifests, exit codes ---------------------------------------------


def test_json_reports_validate_and_round_trip(report_schema):
    commands = [
        ["breakeven", "--ratio", "7.5"],
        ["comm", "--pattern", "broadcast", "--n", "3", "--k", "10", "--payload", "1MB"],
        ["shuffle", "plan", "--data", "10GB", "--block", "1GB"],
        ["catalog", "cost", "--service", "block", "--iops", "1"],
    ]
    for argv in commands:
        code, out, err = run(*argv, "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema)
        again = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert again == out  # parse -> emit is byte-identical


def test_table_and_json_agree():
    args = ["catalog", "cost", "--service", "object", "--iops", "1", "--full-precision"]
    json_doc = run_json(*args)
    code, table, _ = run(*args, "--format", "table")
    assert code == 0
    values = table_values(table)
    json_value = float(json_doc["result"]["iops_usd_per_month"])
    assert float(values["iops_usd_per_month"]) == pytest.approx(json_value, abs=1e-6)

    args = ["comm", "--pattern", "shuffle", "--n", "3", "--k", "2", "--payload", "1MB"]
    json_doc = run_json(*args)
    _, table, _ = run(*args, "--format", "table")
    values = table_values(table)
    assert int(values["messages"]) == json_doc["result"]["messages"]
    assert int(values["bytes"]) == json_doc["result"]["bytes"]


def test_csv_format():
    code, out, _ = run("comm", "--pattern", "shuffle", "--n", "2", "--k", "2",
                       "--granularity", "function", "--format", "csv")
    assert code == 0
    rows = dict((row[0], row[1]) for row in csv.reader(io.StringIO(out)) if row)
    assert rows["messages"] == "16"


def _grids(rows):
    """CSV rows split at blank rows into grids, each [header, *rows]."""
    grids = [[]]
    for row in rows:
        if row:
            grids[-1].append(row)
        else:
            grids.append([])
    return grids


@pytest.mark.parametrize("argv,grids", [(("catalog", "show"), 2), (("repro",), 1)], ids=["catalog-show", "repro"])
def test_csv_grid_reads_back_as_the_table_grid(argv, grids):
    """The csv cells, laid out by the table renderer, are the table output's grids."""
    code, text, err = run(*argv, "--format", "csv")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(text)))
    assert len(_grids(rows)) == grids
    code, table, _ = run(*argv, "--format", "table")
    rendered = io.StringIO()
    for at, (header, *body) in enumerate(_grids(rows)):
        rendered.write("\n" if at else "")
        cli._render_grid(header, body, rendered, "table")
    assert table.startswith(rendered.getvalue())
    assert re.fullmatch(r"(\n\d+ passed, \d+ failed, \d+ external \(not checked\)\n)?", table[len(rendered.getvalue()):])
    assert text.count("\n") == len(rows)  # no cell spans lines


def test_validation_error_exit_code_and_prefix():
    code, out, err = run("comm", "--pattern", "shuffle", "--n", "0", "--k", "2")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run("catalog", "cost", "--service", "nonesuch", "--iops", "1")
    assert code == 2 and "nonesuch" in err


def test_bad_flags_exit_nonzero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["comm", "--pattern", "gossip", "--n", "1"], out=io.StringIO(), err=io.StringIO())
    assert exc.value.code == 2


# One valid argv per subcommand, with the shared options its handler reads.
READS = [
    (("catalog", "show"), {"--catalog"}),
    (("catalog", "cost", "--service", "object", "--capacity-gb", "1"), {"--catalog", "--full-precision"}),
    (("comm", "--pattern", "shuffle", "--n", "2"), {"--binary-units"}),
    (("shuffle", "plan", "--data", "1GB"), {"--binary-units"}),
    (("shuffle", "price", "--preset", "cloudsort100tb"), {"--catalog", "--binary-units", "--full-precision"}),
    (("workload", "gen", "--kind", "paramserver"), {"--binary-units"}),
    (("workload", "profile", "--graph", "graph.json"), set()),
    (("workload", "trace"), set()),
    (("simulate", "--trace", "trace.json"), {"--catalog"}),
    (("place", "--graph", "graph.json", "--instances", "1", "--slots", "1"), set()),
    (("breakeven",), set()),
    (("repro",), {"--catalog"}),
]
SHARED = {"--catalog": ("--catalog", "catalog.json"), "--binary-units": ("--binary-units",),
          "--full-precision": ("--full-precision",)}
SHARED_CASES = [(argv, option, option in reads) for argv, reads in READS for option in SHARED]


def test_shared_options_are_set_only_where_read():
    assert sum(read for _, _, read in SHARED_CASES) == 11
    assert sum(not read for _, _, read in SHARED_CASES) == 25


@pytest.mark.parametrize("argv,option,read", SHARED_CASES, ids=[
    " ".join([word for word in argv[:2] if not word.startswith("-")] + [option]) for argv, option, _ in SHARED_CASES])
def test_shared_option_accepted_only_where_read(capsys, argv, option, read):
    argv = [*argv, *SHARED[option]]
    if read:
        parser, path = cli.command_parser(argv)
        assert parser.parse_args(argv) and path in {command[0] for command in cli.COMMANDS}
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv, out=io.StringIO(), err=io.StringIO())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(SHARED[option])}" in capsys.readouterr().err


def full_parser() -> argparse.ArgumentParser:
    """Every command's parser in one tree, built from `cli.COMMANDS`: the oracle for the one path `main` builds."""
    parser = argparse.ArgumentParser(
        prog="faasim", description="Cost and performance modeling for serverless versus serverful deployments.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {faasim.__version__}")
    levels = {(): [parser, None]}  # path -> [its parser, its subparsers action once it has one]
    for path, text, arguments in cli.COMMANDS:
        level = levels[path[:-1]]
        if level[1] is None:
            level[1] = level[0].add_subparsers(dest=f"{path[-2]}_command" if path[:-1] else "command", required=True)
        child = level[1].add_parser(path[-1], help=text)
        child.set_defaults(path=path)
        for flags, settings in arguments:
            child.add_argument(*flags, **settings)
        levels[path] = [child, None]
    return parser


# Every path's help, then argv that is missing, unknown or misplaced at each path, and the shared option cases.
PARSER_CASES = [(*path, *extra) for path in [(), *(command[0] for command in cli.COMMANDS)] for extra in [
    ("--help",), (), ("--bogus",), ("bogus",), ("--version",), ("--format", "xml"), ("--trace", "t.json"),
    ("--ratio", "2"), ("--graph",), ("-1",), ("--", "show")]] + [
    ("--vers",), ("-x", "catalog", "show"), ("catalog", "-x", "show"), ("catalog", "--catalog", "c", "show"),
    ("--format", "json", "catalog", "show"), ("catalog", "sh"), ("comm", "--pattern", "gossip", "--n", "1"),
    ("comm", "--n", "x"), ("simulate", "--tr", "t.json", "--t-s", "1"), ("breakeven", "7.5"),
    *(argv + SHARED[option] for argv, option, _ in SHARED_CASES)]


@pytest.fixture(scope="module")
def oracle():
    return full_parser()


def _parsed(parser, argv, capsys):
    """(parsed arguments, exit status, stdout, stderr) of one parse."""
    try:
        parsed, status = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        parsed, status = None, exc.code
    return (parsed, status, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSER_CASES, ids=[" ".join(argv) or "(none)" for argv in PARSER_CASES])
def test_parser_of_one_path_reads_as_the_full_parser(oracle, capsys, argv):
    """Help, usage errors and parsed arguments are those of a parser with every path, on this interpreter."""
    parser, path = cli.command_parser(list(argv))
    expected = _parsed(oracle, list(argv), capsys)
    if expected[0] is not None:
        assert expected[0].pop("path") == path
    assert _parsed(parser, list(argv), capsys) == expected


def test_pattern_choices_are_the_modelled_patterns(capsys):
    with pytest.raises(SystemExit):
        cli.main(["comm", "--help"])
    assert "--pattern {" + ",".join(sorted(comm.PATTERNS)) + "}" in capsys.readouterr().out


def test_breakeven_infinite_ratio_is_one_neutral_error_line():
    code, out, err = run("breakeven", "--ratio", "inf")
    assert_one_error_line(code, out, err)
    assert err == "error: inf is not a finite number\n"


def test_breakeven_default_ratio_is_recorded():
    doc = run_json("breakeven")
    assert doc["manifest"]["parameters"] == {"ratio": 7.5}
    assert doc["result"]["per_minute_cost_ratio"] == 7.5


def test_env_var_catalog(tmp_path, monkeypatch):
    bad = tmp_path / "cat.json"
    bad.write_text('{"compute": [], "storage": []}')
    monkeypatch.setenv("FAASIM_CATALOG", str(bad))
    code, _, err = run("catalog", "cost", "--service", "object", "--iops", "1")
    assert code == 2  # the empty catalog has no object service
    assert "object" in err


def test_binary_units_flag():
    decimal = run_json("shuffle", "plan", "--data", "1GB", "--block", "1GB")
    binary = run_json("shuffle", "plan", "--data", "1GB", "--block", "1GB", "--binary-units")
    assert decimal["manifest"]["parameters"]["data_bytes"] == 10**9
    assert binary["manifest"]["parameters"]["data_bytes"] == 2**30


def test_manifest_fields():
    doc = run_json("workload", "trace", "--count", "3", "--seed", "9")
    manifest = doc["manifest"]
    assert manifest["subcommand"] == "workload trace"
    assert manifest["seed"] == 9
    assert manifest["version"]
    assert isinstance(doc["result"], list) and len(doc["result"]) == 3


def test_identical_runs_identical_output():
    first = run("simulate", "--trace", "/nonexistent", "--format", "json")
    second = run("simulate", "--trace", "/nonexistent", "--format", "json")
    assert first == second
    a = run_json("comm", "--pattern", "aggregation", "--n", "4", "--k", "3")
    b = run_json("comm", "--pattern", "aggregation", "--n", "4", "--k", "3")
    assert a == b


def test_bundled_catalog_recorded_by_fixed_name(monkeypatch):
    monkeypatch.delenv("FAASIM_CATALOG", raising=False)
    code, out, err = run("catalog", "cost", "--service", "object", "--capacity-gb", "1")
    assert code == 0, err
    inputs = json.loads(out)["manifest"]["inputs"]
    assert inputs == [cli.BUNDLED_CATALOG]
    assert not any(os.path.isabs(name) for name in inputs)
    assert str(cat.default_catalog_path()) not in out


def test_catalog_cost_beyond_28_digits():
    doc = run_json("catalog", "cost", "--service", "object", "--capacity-gb", "1e30")
    assert doc["result"]["capacity_usd"] == 2.3e28


@pytest.mark.parametrize("argv,artifact,schema", [
    (("workload", "gen", "--kind", "cholesky", "--blocks", "4"), "graph.json", "taskgraph.schema.json"),
    (("workload", "gen", "--kind", "shuffle", "--mappers", "3", "--reducers", "5"), "graph.json",
     "taskgraph.schema.json"),
    (("workload", "trace", "--count", "50", "--seed", "4"), "trace.json", "trace.schema.json"),
    (("workload", "trace", "--arrivals", "fixed", "--count", "5"), "trace.json", "trace.schema.json"),
], ids=["cholesky", "shuffle", "poisson-trace", "fixed-trace"])
def test_generated_artifacts_match_shipped_schemas(tmp_path, argv, artifact, schema):
    path = tmp_path / artifact
    code, _, err = run(*argv, "-o", str(path))
    assert code == 0, err
    jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), load_schema(schema))


# --- every bad input: one `error:` line, exit 2 ---------------------------------


def _catalog_text(edit):
    doc = json.loads(cat.default_catalog_path().read_text(encoding="utf-8"))
    edit(doc)
    return json.dumps(doc)


def _set_compute(field, value):
    return lambda doc: doc["compute"][0].__setitem__(field, value)


def _set_storage(field, value):
    return lambda doc: doc["storage"][0].__setitem__(field, value)


def _preset_with(field, value=None, section=None):
    """The bundled preset with `field` (of `section`, if given) set to `value`, or removed when `value` is None."""
    doc = json.loads((resources.files("faasim") / "data" / "presets" / "cloudsort100tb.json").read_text())
    fields = doc if section is None else doc[section]
    if value is None:
        del fields[field]
    else:
        fields[field] = value
    return json.dumps(doc)


TRACE = '[{"arrival_s": 0, "duration_s": 1}]'
SIMULATE = ("simulate", "--trace", "input.json")
SHOW_CATALOG = ("catalog", "show", "--catalog", "input.json")
COST = ("catalog", "cost", "--service", "object")
PRICE_PRESET = ("shuffle", "price", "--preset", "input.json")
PRICE_DATA = ("shuffle", "price", "--data", "1GB")

# (id, contents of input.json or None, argv); paths are relative to tmp_path.
BAD_INPUTS = [
    ("trace-entries-object", '{"entries": %s}' % TRACE, SIMULATE),
    ("trace-metadata-only", '{"metadata": {}}', SIMULATE),
    ("trace-metadata-list", '{"entries": %s, "metadata": [1]}' % TRACE, SIMULATE),
    ("trace-huge-arrival", '[{"arrival_s": 1%s, "duration_s": 1}]' % ("0" * 400), SIMULATE),
    # Finite, but beyond what the 1 ns event clock ticks.
    ("trace-arrival-off-clock", '[{"arrival_s": 0, "duration_s": 1}, {"arrival_s": 1e300, "duration_s": 1}]',
     SIMULATE),
    ("keep-alive-off-clock", TRACE, SIMULATE + ("--keep-alive", "1e300")),
    ("trace-not-json", "[{", SIMULATE),
    # trace.schema.json says number: JSON's true and false are not read as 1.0 and 0.0.
    ("trace-bool-arrival", '[{"arrival_s": true, "duration_s": 1}]', SIMULATE),
    ("trace-bool-duration", '[{"arrival_s": 0, "duration_s": 2}, {"arrival_s": 1, "duration_s": true}]', SIMULATE),
    ("trace-bool-memory", '[{"arrival_s": 0, "duration_s": 1, "memory_gb": false}]', SIMULATE),
    ("trace-not-utf8", b"\xff\xfe[]", SIMULATE),
    ("trace-missing", None, ("simulate", "--trace", "missing.json")),
    ("graph-missing", None, ("place", "--graph", "missing.json", "--instances", "1", "--slots", "1")),
    ("profile-missing", None, ("workload", "profile", "--graph", "missing.json")),
    ("catalog-compute-int", '{"compute": 5}', SHOW_CATALOG),
    ("catalog-storage-object", '{"storage": {}}', SHOW_CATALOG),
    ("catalog-entry-list", '{"compute": [[1]]}', SHOW_CATALOG),
    ("catalog-memory-null", _catalog_text(_set_compute("memory_min_gib", None)), SHOW_CATALOG),
    ("catalog-kind-list", _catalog_text(_set_compute("kind", ["x"])), SHOW_CATALOG),
    ("catalog-memory-infinite", _catalog_text(_set_compute("memory_max_gib", float("inf"))), SHOW_CATALOG),
    ("catalog-name-list", _catalog_text(_set_compute("name", ["x"])), SHOW_CATALOG),
    ("catalog-directory", None, ("catalog", "show", "--catalog", ".")),
    # Bounds catalog.schema.json states.
    ("catalog-memory-min-negative", _catalog_text(_set_compute("memory_min_gib", -1)), SHOW_CATALOG),
    ("catalog-memory-min-zero", _catalog_text(_set_compute("memory_min_gib", 0)), SHOW_CATALOG),
    ("catalog-local-storage-negative", _catalog_text(_set_compute("max_local_storage_gib", -1)), SHOW_CATALOG),
    ("catalog-accessible-string", _catalog_text(_set_storage("function_accessible", "no")), SHOW_CATALOG),
    ("preset-without-exec", _preset_with("exec"), PRICE_PRESET),
    ("preset-without-problem", _preset_with("problem"), PRICE_PRESET),
    ("preset-exec-list", _preset_with("exec", []), PRICE_PRESET),
    # Counts are JSON integers and the duration a finite number, not truncated or passed through.
    ("preset-duration-nan-string", _preset_with("duration_s", "nan", "exec"), PRICE_PRESET),
    ("preset-duration-nan", _preset_with("duration_s", float("nan"), "exec"), PRICE_PRESET),
    ("preset-stages-fraction", _preset_with("stages", 2.7, "problem"), PRICE_PRESET),
    ("preset-data-bytes-string", _preset_with("data_bytes", "100000000000000", "problem"), PRICE_PRESET),
    ("preset-memory-cap-bool", _preset_with("function_memory_cap_bytes", True, "problem"), PRICE_PRESET),
    ("preset-slow-ops-negative-fraction", _preset_with("slow_store_ops", -0.5, "exec"), PRICE_PRESET),
    ("capacity-inf", None, COST + ("--capacity-gb", "inf")),
    ("months-inf", None, COST + ("--capacity-gb", "1", "--months", "inf")),
    ("mix-inf", None, COST + ("--iops", "1", "--per", "minute", "--mix", "inf")),
    ("cost-beyond-double", None, COST + ("--capacity-gb", "1e300", "--months", "1e300")),
    # Exponents Fraction would expand in full: seconds of CPU before the bound.
    ("gb-seconds-huge-exponent", None, PRICE_DATA + ("--gb-seconds", "1e9999999")),
    ("gb-hours-huge-exponent", None, PRICE_DATA + ("--gb-hours", "1e2000000")),
    ("write-fraction-tiny-exponent", None, PRICE_DATA + ("--write-fraction", "1e-9999999")),
    # Byte sizes: a decimal overflow, and an integer of more digits than int() converts.
    ("data-bytes-huge-exponent", None, ("shuffle", "plan", "--data", "1e999999TB")),
    ("data-bytes-beyond-int-digits", None, ("shuffle", "plan", "--data", "1e5000GB")),
    ("payload-bytes-huge-exponent", None, ("comm", "--pattern", "shuffle", "--n", "2", "--payload", "1e999999TB")),
    ("gradient-bytes-huge-exponent", None, ("workload", "gen", "--kind", "paramserver", "--gradient", "1e999999TB")),
    ("catalog-price-huge-exponent", cat.default_catalog_path().read_text(encoding="utf-8").replace(
        "2e-07", "2e-9999999"), SHOW_CATALOG),
    ("trace-duration-list", '[{"arrival_s": 0, "duration_s": [1]}]', SIMULATE),
    ("graph-metadata-number", '{"tasks": [], "edges": [], "metadata": 5}',
     ("workload", "profile", "--graph", "input.json")),
    # taskgraph.schema.json says number: a task's true and false are not read as 1.0 and 0.0.
    ("graph-bool-duration", '{"tasks": [{"id": "a", "duration_s": true, "memory_gb": false}]}',
     ("workload", "profile", "--graph", "input.json")),
    ("catalog-price-bool", _catalog_text(_set_compute("price_usd_per_unit_at_base_memory", True)), SHOW_CATALOG),
    # Beyond a double, which every format of `catalog show` would print: refused at load, whatever the format.
    *((f"catalog-latency-beyond-double-{fmt}", cat.default_catalog_path().read_text(encoding="utf-8").replace(
        '"latency_ms": [0, 1]', '"latency_ms": [0, 1e400]'), SHOW_CATALOG + ("--format", fmt))
      for fmt in ("json", "table", "csv")),
    ("catalog-memory-beyond-double", _catalog_text(_set_compute("memory_max_gib", 10**400)), SHOW_CATALOG + (
        "--format", "csv")),
    ("catalog-memory-string", _catalog_text(_set_compute("memory_max_gib", "4")), SHOW_CATALOG),
    ("trace-output-dir-missing", None, ("workload", "trace", "-o", "/nonexistent/dir/x.json")),
    ("gen-output-dir-missing", None, ("workload", "gen", "--kind", "cholesky", "-o", "/nonexistent/dir/x.json")),
    ("cholesky-block-dim-negative", None, ("workload", "gen", "--kind", "cholesky", "--block-dim", "-3")),
    # trace.schema.json has memory_gb > 0; a generator writes no entry that simulate would reject.
    ("trace-memory-zero", None, ("workload", "trace", "--memory", "0")),
    ("trace-memory-negative-fixed", None, ("workload", "trace", "--arrivals", "fixed", "--memory", "-1")),
    # Generator parameters are checked whatever the count: none reaches the manifest as NaN, Infinity or -1.
    ("trace-rate-nan-no-entries", None, ("workload", "trace", "--count", "0", "--rate", "nan")),
    ("trace-rate-inf", None, ("workload", "trace", "--count", "3", "--rate", "inf")),
    ("trace-duration-negative-no-entries", None, ("workload", "trace", "--count", "0", "--duration", "-1")),
    ("trace-memory-inf-no-entries", None, ("workload", "trace", "--count", "0", "--memory", "inf")),
    ("trace-interval-nan-no-entries", None, ("workload", "trace", "--arrivals", "fixed", "--count", "0",
                                             "--interval", "nan")),
    # Arrivals past a double's range: refused before the first byte of the report or the file.
    *((f"trace-arrivals-overflow{kind}{file}", None, ("workload", "trace", *argv, "--count", "3", *written))
      for kind, argv in (("", ("--rate", "5e-324")), ("-fixed", ("--arrivals", "fixed", "--interval", "1e308")))
      for file, written in (("", ()), ("-file", ("-o", "t.json")))),
]


def assert_one_error_line(code, out, err):
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "internal error" not in err


@pytest.mark.parametrize("contents,argv", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, contents, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FAASIM_CATALOG", raising=False)
    if contents is not None:
        data = contents if isinstance(contents, bytes) else contents.encode("utf-8")
        (tmp_path / "input.json").write_bytes(data)
    assert_one_error_line(*run(*argv))
    assert [path.name for path in tmp_path.iterdir()] == ([] if contents is None else ["input.json"])


TRACE_REFUSED = "error: trace arrivals, durations and memory must be finite numbers\n"


@pytest.mark.parametrize("argv", [case[2] for case in BAD_INPUTS if case[0].startswith("trace-arrivals-overflow")])
def test_trace_arrivals_past_a_double_keep_the_refusal(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == (2, "", TRACE_REFUSED)
    assert not any(tmp_path.iterdir())


def test_preset_error_names_the_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text(_preset_with("stages", 2.7, "problem"), encoding="utf-8")
    assert run(*PRICE_PRESET) == (2, "", "error: malformed preset 'input.json': stages must be an integer, not 2.7\n")


def test_preset_integers_may_be_written_as_integral_floats(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text(_preset_with("stages", 50.0, "problem"), encoding="utf-8")
    assert run_json(*PRICE_PRESET)["result"]["plan"] == run_json(
        "shuffle", "price", "--preset", "cloudsort100tb")["result"]["plan"]


# (id, argv, what the handler raises or None, exit status, whether a report is written, stderr)
EXIT_STATUSES = [
    ("success", ("breakeven",), None, 0, True, ""),
    ("failed-repro-check", ("repro", "--catalog", "catalog.json"), None, 1, True, ""),
    ("internal-error", ("breakeven",), RuntimeError("a bug"), 1, False, "internal error: a bug\n"),
    # Running out of memory raises a MemoryError with no message: the line names its type.
    ("message-less-internal-error", ("breakeven",), MemoryError(), 1, False, "internal error: MemoryError\n"),
    ("bad-input", ("simulate", "--trace", "missing.json"), None, 2, False,
     "error: [Errno 2] No such file or directory: 'missing.json'\n"),
]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("argv,raises,status,writes,err", [case[1:] for case in EXIT_STATUSES],
                         ids=[case[0] for case in EXIT_STATUSES])
def test_exit_status(tmp_path, monkeypatch, fmt, argv, raises, status, writes, err):
    monkeypatch.chdir(tmp_path)
    # A serverless price the published function costs do not reproduce.
    (tmp_path / "catalog.json").write_text(_catalog_text(_set_compute("price_usd_per_unit_at_base_memory", 3e-07)),
                                           encoding="utf-8")
    if raises is not None:
        def handler(args):
            raise raises
        monkeypatch.setattr(cli_breakeven, "breakeven", handler)
    code, out, error = run(*argv, "--format", fmt)
    assert (code, bool(out), error) == (status, writes, err)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_program_by_sigpipe():
    """As `faasim workload trace --count 100000 | head -c 100` does: no `error:` line, no bad-input status."""
    proc = subprocess.Popen([sys.executable, "-m", "faasim", "workload", "trace", "--count", "100000", "--seed", "1"],
                            env=faasim_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), stderr) == (-signal.SIGPIPE, b"")


def test_catalog_error_names_the_entry(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text(_catalog_text(_set_compute("memory_min_gib", -1)), encoding="utf-8")
    assert run(*SHOW_CATALOG) == (2, "", "error: compute entry 'serverless': memory_min must be positive\n")


def test_negative_memory_is_refused_not_billed(tmp_path, monkeypatch):
    """A catalog whose memory range reaches below zero would bill a -0.5 GiB call at a negative price."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "catalog.json").write_text(_catalog_text(_set_compute("memory_min_gib", -1)), encoding="utf-8")
    (tmp_path / "input.json").write_text('[{"arrival_s": 0, "duration_s": 1, "memory_gb": -0.5}]', encoding="utf-8")
    code, out, err = run(*SIMULATE, "--catalog", "catalog.json")
    assert_one_error_line(code, out, err)
    assert "memory_min must be positive" in err


def test_cholesky_block_dim_zero_gives_zero_byte_tiles():
    doc = run_json("workload", "gen", "--kind", "cholesky", "--blocks", "2", "--block-dim", "0")
    assert {edge["bytes"] for edge in doc["result"]["edges"]} == {0}


# Two entries that start cold at once, so that their instances' seconds add up.
TWO_COLD_STARTS = '[{"arrival_s": 0, "duration_s": 1}, {"arrival_s": 0, "duration_s": 1}]'


# A platform time is refused before the run when the 1 ns event clock cannot tick it.
OFF_CLOCK = "must be a non-negative time in the 1 ns event clock's range, |t| below about 1.8e299 s"


@pytest.mark.parametrize("argv,message", [
    (SIMULATE + ("--keep-alive", "1e308"), "--keep-alive " + OFF_CLOCK),
    (SIMULATE + ("--t-schedule", "1e308"), "--t-schedule " + OFF_CLOCK),
    (SIMULATE + ("--t-schedule", "1e308", "--t-env", "1e308"), "--t-schedule " + OFF_CLOCK),
    (("breakeven", "--ratio", "1e-320"), "breakeven_duty_cycle is too large to report"),
    (("breakeven", "--ratio", "5e-307"), "breakeven_percent is too large to report"),
], ids=["keep-alive", "t-schedule", "start-latency", "breakeven-ratio", "breakeven-percent"])
def test_quantity_beyond_a_double_is_one_error_line(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text(TWO_COLD_STARTS, encoding="utf-8")
    code, out, err = run(*argv)
    assert_one_error_line(code, out, err)
    assert err == f"error: {message}\n"


# --- command lines as a user types them, run in order in one directory ------------
# CI also runs this suite against the installed package, so these rows check its console commands with the bundled
# catalog and presets there. Bad input is in BAD_INPUTS, and what another test pins has no row here.


def readme_cli_block():
    """The lines of README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    assert len(lines) > 10
    return lines


def csv_rows(check):
    return lambda out: check(list(csv.reader(io.StringIO(out))))


COST_FULL = "faasim catalog cost --service object --full-precision"

# (id, command lines run in order, and what the last line's stdout must hold: substrings, or a check).
COMMAND_LINES = [
    ("readme-cli-block-in-order", readme_cli_block, ['"failed": 0']),
    ("catalog-show-csv-grids", ["faasim catalog show --format csv"], csv_rows(
        lambda rows: rows[0][:2] == ["service", "class"] and [] in rows and {*map(len, rows)} == {0, 9, 6})),
    ("repro-csv-grid", ["faasim repro --format csv"], csv_rows(
        lambda rows: rows[0] == ["status", "location", "check", "claim"] and len(rows) > 20
        and {*map(len, rows)} == {4})),
    # --full-precision amounts are plain decimals, also below 1e-6 and at zero.
    ("full-precision-below-a-micro-dollar", [f"{COST_FULL} --iops 0.0000001"], ['"total_usd": "0.000000699840"']),
    ("full-precision-below-a-micro-dollar-table", [f"{COST_FULL} --iops 0.0000001 --format table"],
     [" 0.000000699840\n"]),
    ("full-precision-zero", [f"{COST_FULL} --capacity-gb 0"], ['"total_usd": "0.000000000000"']),
    ("full-precision-zero-table", [f"{COST_FULL} --capacity-gb 0 --format table"], [" 0.000000000000\n"]),
]


@pytest.mark.parametrize("lines,expect", [row[1:] for row in COMMAND_LINES], ids=[row[0] for row in COMMAND_LINES])
def test_command_lines(tmp_path, monkeypatch, lines, expect):
    """Each line exits 0 with nothing on stderr, and the last one's stdout holds `expect`."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FAASIM_CATALOG", raising=False)
    for line in lines() if callable(lines) else lines:
        code, out, err = run(*shlex.split(line, comments=True)[1:])  # without "faasim"
        assert (code, err) == (0, ""), (line, err)
    assert expect(out) if callable(expect) else [text for text in expect if text not in out] == []


# --- any JSON document: the documented result or one `error:` line ------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)

VALID_TRACE = json.loads(dumps(wl.fixed_interval_trace(3, 1.0, 0.5)[0]))
VALID_GRAPH = json.loads(dumps(wl.gen_shuffle_dag(2, 3, 100).to_json_dict()))


@st.composite
def mutated(draw, doc):
    """`doc` with one value, at any depth, replaced by arbitrary JSON or removed."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif draw(st.booleans()):
            del node[key]
            return doc
        else:
            node[key] = draw(json_values)
            return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


def write_new(path: Path, text: str) -> None:
    """Write `text` to `path` in UTF-8 as it is (no newline translation), as a new file. Truncating the file in
    place took 35-66 ms a write on a 2-vCPU VM whose ext4 is mounted with `discard`, and removing the old file
    (not yet flushed) and writing a new one took under 0.1 ms."""
    path.unlink(missing_ok=True)
    path.write_bytes(text.encode("utf-8"))


def assert_result_or_error(doc, path, *commands):
    write_new(path, json.dumps(doc))
    for argv in commands:
        code, out, err = run(*argv)
        if code == 0:
            assert err == ""
            strict_json(out)
        else:
            assert_one_error_line(code, out, err)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@PROPERTY_SETTINGS
@given(doc=json_values | mutated(VALID_TRACE))
@example(doc=[{"arrival_s": 0, "duration_s": 1}, {"arrival_s": 1, "duration_s": 1e300}])  # rejected, not ticked
@example(doc=[{"arrival_s": 0, "duration_s": 1}, {"arrival_s": 1e300, "duration_s": 1}])  # off the clock
def test_any_trace_document_runs_or_errors(doc_path, doc):
    assert_result_or_error(doc, doc_path, ("simulate", "--trace", str(doc_path)))


def trace_columns(trace):
    entries = trace.entries
    return [[repr(entry[field]) for entry in entries] for field in range(3)]


def graph_columns(graph):
    return [[*map(repr, getattr(graph, name))] for name in (*wl.TaskGraph._FIELDS, "levels")] + [repr(graph.metadata)]


def read_both_ways(doc, path, load=wl.load_trace, from_doc=wl.InvocationTrace.from_json, columns=trace_columns):
    """What the file reader `load` and the document reader `from_doc` make of `doc`: the columns of each
    result as repr texts (so a zero's sign counts), or the message of its `GraphError`."""
    text = json.dumps(doc)
    write_new(path, text)
    outcomes = []
    for read in (lambda: load(path), lambda: from_doc(json.loads(text))):
        try:
            found = read()
        except wl.GraphError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(columns(found))
    return outcomes


def read_graph_both_ways(doc, path):
    return read_both_ways(doc, path, wl.load_task_graph, graph_from_doc, graph_columns)


@PROPERTY_SETTINGS
@given(doc=json_values | mutated(VALID_TRACE))
def test_trace_readers_agree(doc_path, doc):
    from_file, from_doc = read_both_ways(doc, doc_path)
    assert from_file == from_doc


ENTRY = {"arrival_s": 0, "duration_s": 1}
NOT_A_NUMBER = "malformed trace document: entry 0: float() argument must be a string or a real number, not "


ONE_ENTRY = [["0.0"], ["1.0"], ["0.125"]]


@pytest.mark.parametrize("doc,expected", [
    pytest.param([ENTRY], ONE_ENTRY, id="memory-missing"),
    pytest.param([{**ENTRY, "region": "eu", "tags": [{"x": 1}], "x": {}}], ONE_ENTRY, id="extra-keys"),
    pytest.param([{**ENTRY, "x": {"arrival_s": 5, "duration_s": 2}}], ONE_ENTRY, id="entry-under-an-extra-key"),
    pytest.param([{"arrival_s": "0.5", "duration_s": "2", "memory_gb": "0.25"}], [["0.5"], ["2.0"], ["0.25"]],
                 id="strings"),
    pytest.param([{"arrival_s": False, "duration_s": True, "memory_gb": True}],
                 "malformed trace document: entry 0: arrival_s must be a number, not a boolean", id="bools"),
    pytest.param([{**ENTRY, "memory_gb": 0.0}, {**ENTRY, "memory_gb": -0.0}],
                 [["0.0", "0.0"], ["1.0", "1.0"], ["0.0", "-0.0"]], id="signed-zero-memory"),
    pytest.param([{**ENTRY, "duration_s": "x"}],
                 "malformed trace document: entry 0: could not convert string to float: 'x'", id="string-value"),
    pytest.param([{**ENTRY, "duration_s": [1]}], NOT_A_NUMBER + "'list'", id="unhashable-value"),
    pytest.param([{**ENTRY, "memory_gb": {}}], NOT_A_NUMBER + "'dict'", id="nested-empty-object"),
    pytest.param([{**ENTRY, "duration_s": dict(ENTRY)}], NOT_A_NUMBER + "'dict'", id="nested-entry"),
    pytest.param([{**ENTRY, "arrival_s": {"y": []}}], NOT_A_NUMBER + "'dict'", id="nested-object"),
    pytest.param([ENTRY, [ENTRY]],
                 "malformed trace document: entry 1: list indices must be integers or slices, not str",
                 id="entry-in-a-list"),
    pytest.param([None, {**ENTRY, "x": ENTRY}],
                 "malformed trace document: entry 0: 'NoneType' object is not subscriptable",
                 id="null-beside-nested-entry"),
    pytest.param([{"duration_s": 1, "x": {}}], "malformed trace document: entry 0: 'arrival_s'", id="missing-key"),
    pytest.param(ENTRY, "malformed trace document: the top level must be a list of entries", id="top-level-entry"),
    pytest.param({"entries": [ENTRY]}, "malformed trace document: the top level must be a list of entries",
                 id="top-level-object"),
])
def test_trace_readers_agree_on_each_entry_rule(doc_path, doc, expected):
    from_file, from_doc = read_both_ways(doc, doc_path)
    assert from_file == from_doc == expected


@PROPERTY_SETTINGS
@given(doc=json_values | mutated(VALID_GRAPH))
def test_graph_readers_agree(doc_path, doc):
    from_file, from_doc = read_graph_both_ways(doc, doc_path)
    assert from_file == from_doc


TASKS = [{"id": "a", "duration_s": 1}, {"id": "b", "duration_s": 2}]
EDGE = {"src": "a", "dst": "b", "bytes": 8}
NOT_INTEGER_BYTES = "malformed task graph document: edge 0: edge bytes must be integers, not "
NOT_SUBSCRIPTABLE = "'NoneType' object is not subscriptable"


@pytest.mark.parametrize("doc,expected", [
    pytest.param({"edges": [EDGE], "tasks": TASKS}, ["a", "b"], id="edges-before-tasks"),
    pytest.param({"tasks": [{**TASKS[0], "id": 1}, {**TASKS[1], "id": 2}], "edges": [{**EDGE, "src": 1, "dst": 2}]},
                 ["1", "2"], id="int-ids"),
    pytest.param({"tasks": [{**TASKS[0], "id": True}, {**TASKS[1], "id": False}],
                  "edges": [{**EDGE, "src": True, "dst": False}]}, ["True", "False"], id="bool-ids"),
    pytest.param({"tasks": [{**TASKS[0], "x": {"y": [1]}}, TASKS[1]], "edges": [{**EDGE, "note": {}}]}, ["a", "b"],
                 id="extra-keys"),
    pytest.param({"tasks": TASKS, "edges": [{**EDGE, "id": "e"}]}, ["a", "b"], id="edge-with-an-id"),
    pytest.param({"tasks": [{**TASKS[0], "x": {"id": "c", "duration_s": 1}}, TASKS[1]], "edges": [EDGE]}, ["a", "b"],
                 id="task-under-a-task"),
    pytest.param({"tasks": TASKS, "edges": [EDGE], "metadata": {"x": {"id": "c"}}}, ["a", "b"], id="id-in-metadata"),
    pytest.param({"tasks": [TASKS[0], None], "edges": [], "metadata": {"x": TASKS[1]}},
                 "malformed task graph document: task 1: " + NOT_SUBSCRIPTABLE,
                 id="null-task-beside-a-task-in-metadata"),
    pytest.param({"tasks": TASKS, "edges": [None], "metadata": {"x": EDGE}},
                 "malformed task graph document: edge 0: " + NOT_SUBSCRIPTABLE,
                 id="null-edge-beside-an-edge-in-metadata"),
    pytest.param(EDGE, "malformed task graph document: 'tasks'", id="top-level-edge"),
    pytest.param({"tasks": TASKS, "edges": [{**EDGE, "bytes": 5.0}]}, ["a", "b"], id="integral-float-bytes"),
    pytest.param({"tasks": TASKS, "edges": [{**EDGE, "bytes": 1.9}]}, NOT_INTEGER_BYTES + "1.9", id="fraction-bytes"),
    pytest.param({"tasks": TASKS, "edges": [{**EDGE, "bytes": True}]}, NOT_INTEGER_BYTES + "True", id="bool-bytes"),
    pytest.param({"tasks": TASKS, "edges": [{**EDGE, "bytes": "12"}]}, NOT_INTEGER_BYTES + "'12'", id="string-bytes"),
    pytest.param({"tasks": [*TASKS, TASKS[0]], "edges": [EDGE]}, "duplicate task ids", id="duplicate-ids"),
    pytest.param({"tasks": TASKS, "edges": [{**EDGE, "dst": "c"}]}, "edge 'a'->'c' references unknown task",
                 id="unknown-end"),
])
def test_graph_readers_agree_on_each_case(doc_path, doc, expected):
    """`expected` is the error message, or the graph's ids."""
    from_file, from_doc = read_graph_both_ways(doc, doc_path)
    assert from_file == from_doc
    assert from_file == expected if isinstance(expected, str) else from_file[0] == [*map(repr, expected)]


# --- the chunked reader: a file read a few characters at a time gives what the whole document gives ---

READERS = {
    "trace": (wl.load_trace, wl.InvocationTrace.from_json, trace_columns, VALID_TRACE),
    "graph": (wl.load_task_graph, graph_from_doc, graph_columns, VALID_GRAPH),
}


def load_in_chunks(load, path, chunk):
    """`load(path)` with the file read `chunk` bytes at a time, at least."""
    with patch.object(wl, "CHUNK", chunk):
        return load(path)


def read_chunked_and_whole(path, chunk, kind):
    """What the file reader of `kind` makes of the file at `path`, read `chunk` bytes at a time, and what the
    document reader makes of the whole file parsed at once: the columns as repr texts, or the type and message of
    the error (a `GraphError`, or a `JSONDecodeError` for text that is not JSON)."""
    load, from_doc, columns, _ = READERS[kind]
    outcomes = []
    for read in (lambda: load_in_chunks(load, path, chunk),
                 lambda: from_doc(json.loads(path.read_text(encoding="utf-8")))):
        try:
            outcomes.append(columns(read()))
        except ValueError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


WHITESPACE = st.text(" \t\n\r", max_size=3)


@st.composite
def layouts(draw, doc):
    """`doc` as a file's text: as `json.dumps` or faasim writes it, or with whitespace drawn around its tokens;
    then with `\r\n` line ends or not."""
    layout = draw(st.sampled_from(["json.dumps", "jsontext", "whitespace"]))
    if layout == "json.dumps":
        text = json.dumps(doc)
    elif layout == "jsontext":
        text = dumps(doc)
    else:
        separators = (draw(WHITESPACE) + "," + draw(WHITESPACE), draw(WHITESPACE) + ":" + draw(WHITESPACE))
        text = json.dumps(doc, indent=draw(st.none() | WHITESPACE), separators=separators)
        text = draw(WHITESPACE) + text + draw(WHITESPACE)
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


@PROPERTY_SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(READERS)), chunk=st.integers(1, 16))
def test_chunked_reader_agrees_with_the_document_reader(doc_path, data, kind, chunk):
    doc = data.draw(json_values | mutated(READERS[kind][3]))
    write_new(doc_path, data.draw(layouts(doc)))
    chunked, whole = read_chunked_and_whole(doc_path, chunk, kind)
    assert chunked == whole


CHUNK_SIZES = (*range(1, 17), jsonchunks.CHUNK)


def _with(key, value):
    return lambda item, at: {**item, key: value}


def _without(key):
    return lambda item, at: {name: value for name, value in item.items() if name != key}


# What makes an item of each kind faulty: a boolean, a missing key, a list value or an unknown end. `str` reads a
# list id, so a task's id has no such fault.
ITEM_FAULTS = {
    "entry": [_with("arrival_s", True), _with("memory_gb", False), _without("arrival_s"), _without("duration_s"),
              _with("duration_s", [1])],
    "task": [_without("id"), _without("duration_s"), _with("duration_s", [1]), _with("memory_gb", [0.5]),
             _with("duration_s", True), _with("memory_gb", False)],
    "edge": [_with("bytes", True), _without("src"), _without("bytes"), _with("bytes", [8]),
             lambda edge, at: {**edge, "dst": f"nowhere-{at}"}],
}


@PROPERTY_SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(READERS)))
def test_the_first_faulty_item_is_named_at_every_chunk_size(doc_path, data, kind):
    """1-3 items replaced by faulty ones: the error names the first in the file, by its kind and its position
    among the items of its array, whatever the layout and the chunk size. The oracle is where the faults were put."""
    load, from_doc, _, valid = READERS[kind]
    doc = copy.deepcopy(valid)
    arrays = [("entry", doc)] if kind == "trace" else [("task", doc["tasks"]), ("edge", doc["edges"])]
    slots = [(item, items, i) for item, items in arrays for i in range(len(items))]  # in file order
    faulty = data.draw(st.lists(st.sampled_from(range(len(slots))), min_size=1, max_size=3, unique=True))
    for slot in faulty:
        item, items, i = slots[slot]
        items[i] = data.draw(st.sampled_from(ITEM_FAULTS[item]))(items[i], i)
    item, items, i = slots[min(faulty)]
    if items[i].get("dst") == f"nowhere-{i}":
        expected = f"edge {items[i]['src']!r}->'nowhere-{i}' references unknown task"
    else:
        expected = f"malformed {'trace' if kind == 'trace' else 'task graph'} document: {item} {i}: "
    write_new(doc_path, data.draw(layouts(doc)))
    for read in (*(partial(load_in_chunks, load, doc_path, chunk) for chunk in range(1, 17)), partial(from_doc, doc)):
        with pytest.raises(wl.GraphError) as refusal:
            read()
        assert str(refusal.value).startswith(expected)


@pytest.mark.parametrize("kind,doc", [
    ("trace", VALID_TRACE),
    ("trace", [{**ENTRY, "memory_gb": 0.25, "x": None}, {"arrival_s": "1.5", "duration_s": 2}]),
    ("graph", VALID_GRAPH),
    ("graph", json.loads(dumps(wl.gen_cholesky_dag(3).to_json_dict()))),
    ("graph", {"tasks": [{**TASKS[0], "id": 1}, {**TASKS[1], "id": 2}],
               "edges": [{"src": 1, "dst": 2, "bytes": 8}, {"src": 1, "dst": "2", "bytes": 5.0}], "metadata": {}}),
])
@pytest.mark.parametrize("dump", [json.dumps, dumps, lambda doc: json.dumps(doc, indent="\t"),
                                  lambda doc: f" \r\n{dumps(doc)}\n".replace("\n", "\r\n")])
def test_chunked_reader_takes_the_files_faasim_writes(tmp_path, monkeypatch, kind, doc, dump):
    """The columns come from the chunks at every chunk size, with no parse of the whole file, and equal the document
    reader's; so do int ids and edge ends, and integral-float bytes, which the column builder reads as the document
    reader does."""
    load, from_doc, columns, _ = READERS[kind]
    path = tmp_path / "doc.json"
    path.write_bytes(dump(doc).encode("utf-8"))
    expected = columns(from_doc(doc))

    def whole(*args, **kwargs):
        raise AssertionError("the whole file was parsed")

    monkeypatch.setattr(json, "loads", whole)
    monkeypatch.setattr(json, "load", whole)
    for chunk in CHUNK_SIZES:
        assert columns(load_in_chunks(load, path, chunk)) == expected


NESTED_OBJECTS = [{"a": 1}, {"b": 2}]


@pytest.mark.parametrize("kind,text,expected", [
    pytest.param("graph", json.dumps({"tasks": [{**TASKS[0], "id": "a},{b"}, TASKS[1]],
                                      "edges": [{**EDGE, "src": "a},{b"}], "metadata": {}}), ["a},{b", "b"],
                 id="id-holding-a-cut"),
    pytest.param("trace", json.dumps([{**ENTRY, "tags": NESTED_OBJECTS}, ENTRY]), [["0.0", "0.0"], ["1.0", "1.0"],
                                                                                    ["0.125", "0.125"]],
                 id="entry-with-a-list-of-objects"),
    pytest.param("graph", json.dumps({"tasks": [{**TASKS[0], "x": NESTED_OBJECTS}, TASKS[1]], "edges": [EDGE],
                                      "metadata": {"x": NESTED_OBJECTS}}), ["a", "b"],
                 id="task-with-a-list-of-objects"),
    pytest.param("trace", "\ufeff" + json.dumps([ENTRY]), "JSONDecodeError", id="bom"),
    pytest.param("graph", "\ufeff" + json.dumps(VALID_GRAPH), "JSONDecodeError", id="graph-bom"),
    # json.loads keeps the last copy of a repeated member; the file reader has streamed the first, and refuses.
    pytest.param("graph", '{"tasks": [%s], "edges": [], "metadata": {}, "tasks": %s}' % (
        json.dumps(TASKS[0]), json.dumps(TASKS)),
        ("JSONDecodeError", "'tasks' is named twice: line 1 column 79 (char 78)"), id="duplicate-tasks-key"),
    pytest.param("graph", '{"tasks": %s, "tasks": [], "edges": [], "metadata": {}}' % json.dumps(TASKS),
                 ("JSONDecodeError", "'tasks' is named twice: line 1 column 80 (char 79)"),
                 id="duplicate-tasks-key-first"),
    pytest.param("trace", json.dumps([ENTRY]) + " x", "JSONDecodeError", id="text-after-the-list"),
    pytest.param("trace", json.dumps([ENTRY]) + "]", "JSONDecodeError", id="bracket-after-the-list"),
    pytest.param("graph", json.dumps(VALID_GRAPH) + " {}", "JSONDecodeError", id="text-after-the-object"),
    pytest.param("trace", "[]", [[], [], []], id="empty-list"),
    pytest.param("graph", '{"tasks": [], "edges": [], "metadata": {}}', [], id="empty-arrays"),
    pytest.param("graph", json.dumps({"edges": [EDGE], "tasks": TASKS, "metadata": {}}), ["a", "b"],
                 id="edges-before-tasks"),
    # Edges read before the tasks are numbered once, from 0, as they are added after the tasks.
    pytest.param("graph", json.dumps({"edges": [EDGE, {**EDGE, "bytes": 1.5}], "tasks": TASKS}),
                 ("GraphError", "malformed task graph document: edge 1: edge bytes must be integers, not 1.5"),
                 id="edges-before-tasks-with-a-bad-edge"),
    # Numbers cut by a chunk's end after `.`, `e` or a sign read on; so does an empty name.
    pytest.param("graph", '{"": [null], "x": 0.5, "tasks": %s, "y": 1e-3, "edges": [], "z": -12.25E+2}'
                 % json.dumps(TASKS), ["a", "b"], id="numbers-and-an-empty-name-beside-the-arrays"),
    pytest.param("trace", '{"": [null]}', ("GraphError", "malformed trace document: the top level must be a list of "
                                                         "entries"), id="array-under-an-empty-name"),
    pytest.param("trace", "-12.5e-3", ("GraphError", "malformed trace document: the top level must be a list of "
                                                     "entries"), id="top-level-number"),
    # A cut after an object that is a member's value: the run's parse fails at the `]` put after the cut.
    pytest.param("trace", '[{"arrival_s": 0, "duration_s": {"b": 1}, {"c": 2}}]', "JSONDecodeError",
                 id="object-after-a-comma-in-an-entry"),
    pytest.param("trace", json.dumps([ENTRY, ENTRY])[:-1], "JSONDecodeError", id="unterminated-list"),
    pytest.param("trace", "[%s,\f%s]" % (json.dumps(ENTRY), json.dumps(ENTRY)), "JSONDecodeError",
                 id="form-feed-between-entries"),
    pytest.param("graph", "\f" + json.dumps(VALID_GRAPH), "JSONDecodeError", id="form-feed-before-the-object"),
    pytest.param("graph", json.dumps({"tasks": TASKS, "edges": [{**EDGE, "bytes": 1}, {**EDGE, "bytes": True}],
                                      "metadata": {}}),
                 "GraphError", id="bool-bytes-after-an-equal-int"),
    pytest.param("graph", json.dumps({"tasks": TASKS, "edges": [{**EDGE, "bytes": 5}, {**EDGE, "bytes": 5.0}],
                                      "metadata": {}}), ["a", "b"], id="integral-float-bytes-after-an-equal-int"),
    # Two faults, in one run or in two: the first in the file is named at every size.
    pytest.param("trace", json.dumps([{**ENTRY, "duration_s": "x"}, ENTRY, {"duration_s": 1}]),
                 ("GraphError", "malformed trace document: entry 0: could not convert string to float: 'x'"),
                 id="bad-duration-then-missing-arrival"),
    pytest.param("graph", json.dumps({"tasks": TASKS, "edges": [{**EDGE, "dst": "c"}, EDGE, {**EDGE, "bytes": 1.5}],
                                      "metadata": {}}),
                 ("GraphError", "edge 'a'->'c' references unknown task"), id="unknown-end-then-fraction-bytes"),
    pytest.param("graph", json.dumps({"tasks": TASKS, "edges": [{**EDGE, "dst": "c"}], "metadata": 5}),
                 ("GraphError", "edge 'a'->'c' references unknown task"), id="unknown-end-then-metadata-not-an-object"),
    pytest.param("graph", '{"tasks": [{"id": "a", "duration_s": true, "memory_gb": false}]}',
                 ("GraphError", "malformed task graph document: task 0: duration_s must be a number, not a boolean"),
                 id="bool-task-duration"),
    # Text that is not JSON after whole items that are good, or in the item it cuts short, is json's own error.
    pytest.param("trace", '[%s, {"arrival_s": 1, x}]' % json.dumps(ENTRY), "JSONDecodeError",
                 id="good-entry-then-text-that-is-not-json"),
    pytest.param("trace", '[%s, 12x]' % json.dumps(ENTRY), "JSONDecodeError", id="number-cut-short-by-the-error"),
    pytest.param("trace", '[{"arrival_s": 0, "duration_s": "x", x}]', "JSONDecodeError",
                 id="text-that-is-not-json-in-a-faulty-entry"),
    # The walk of the object around the streamed arrays: a missing `:` or `,`, a name that is not a string, and a
    # trailing comma.
    pytest.param("graph", '{"tasks" []}', "JSONDecodeError", id="missing-colon"),
    pytest.param("graph", '{"tasks": [] "edges": []}', "JSONDecodeError", id="missing-comma-after-an-array"),
    pytest.param("graph", '{1: 2}', "JSONDecodeError", id="number-name"),
    pytest.param("graph", '{"tasks": [], }', "JSONDecodeError", id="trailing-comma"),
    pytest.param("graph", '{"metadata": {} "tasks": []}', "JSONDecodeError", id="missing-comma-after-an-object"),
])
def test_chunked_reader_agrees_on_each_case(doc_path, kind, text, expected):
    """`expected` is the error's type, or its type and message, the trace's columns or the graph's ids."""
    write_new(doc_path, text)
    for chunk in CHUNK_SIZES:
        chunked, whole = read_chunked_and_whole(doc_path, chunk, kind)
        if "named twice" not in str(expected):  # json.loads keeps a repeated member's last copy
            assert chunked == whole
        if isinstance(expected, str):
            assert chunked[0] == expected
        elif kind == "graph" and isinstance(expected, list):
            assert chunked[0] == [*map(repr, expected)]
        else:  # the trace's columns, or the error's type and message
            assert chunked == expected


@pytest.mark.parametrize("kind,text,expected", [
    pytest.param("trace", '[{"arrival_s": 0, "duration_s": "x"}, {"arrival_s": 1, x}]',
                 "malformed trace document: entry 0: could not convert string to float: 'x'", id="trace"),
    pytest.param("graph", '{"tasks": [{"id": "a", "duration_s": "x"}, {"id": "b", x}]}',
                 "malformed task graph document: task 0: could not convert string to float: 'x'", id="graph"),
])
def test_a_faulty_item_before_text_that_is_not_json_is_named_at_every_chunk_size(doc_path, kind, text, expected):
    """The first fault in the file wins: the items before the error in its run are added before it is raised."""
    write_new(doc_path, text)
    for chunk in CHUNK_SIZES:
        with pytest.raises(wl.GraphError) as refusal:
            load_in_chunks(READERS[kind][0], doc_path, chunk)
        assert str(refusal.value) == expected


@PROPERTY_SETTINGS
@given(doc=json_values | mutated(VALID_GRAPH))
def test_any_graph_document_runs_or_errors(doc_path, doc):
    assert_result_or_error(doc, doc_path, ("place", "--graph", str(doc_path), "--instances", "3", "--slots", "2"),
                           ("workload", "profile", "--graph", str(doc_path)))


# --- workload trace: the bytes of the list-based generators ---------------------

POSITIVE = st.floats(1e-3, 1e3) | st.floats(min_value=0, exclude_min=True, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(fixed=st.booleans(), count=st.integers(0, 10_000) | st.sampled_from([2047, 2048, 2049, 4097]), rate=POSITIVE,
       interval=st.floats(1e-3, 1e3) | st.floats(min_value=0, allow_infinity=False), duration=POSITIVE,
       memory=POSITIVE, seed=st.integers(-2**64, 2**65), fmt=st.sampled_from(["json", "table", "csv"]),
       to_file=st.booleans())
@example(fixed=False, count=2, rate=1e-300, interval=1.0, duration=0.5, memory=0.125, seed=0, fmt="json",
         to_file=False)  # arrivals near 2e300, written
@example(fixed=False, count=1000, rate=1e-305, interval=1.0, duration=0.5, memory=0.125, seed=0, fmt="json",
         to_file=True)  # no bound on the arrivals short of a double's range: they are run once to find the last
@example(fixed=False, count=3, rate=5e-324, interval=1.0, duration=0.5, memory=0.125, seed=0, fmt="json",
         to_file=True)
@example(fixed=True, count=3, rate=1.0, interval=1e308, duration=0.5, memory=0.125, seed=0, fmt="csv",
         to_file=False)
@example(fixed=True, count=4097, rate=1.0, interval=0.0, duration=2.0, memory=1.0, seed=0, fmt="table",
         to_file=True)
def test_workload_trace_writes_the_reference_bytes(fixed, count, rate, interval, duration, memory, seed, fmt,
                                                   to_file):
    """Every format, on stdout or with -o, against `jsontext` writing the reference trace, its columns held whole as
    lists, and the report of it: the output the generators gave when they returned one."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.json")
        argv = ("workload", "trace", "--arrivals", "fixed" if fixed else "poisson", "--count", str(count),
                "--rate", repr(rate), "--interval", repr(interval), "--duration", repr(duration),
                "--memory", repr(memory), "--seed", str(seed), "--format", fmt, *(("-o", path) if to_file else ()))
        try:
            table, metadata = (reference_fixed_interval_trace(count, interval, duration, memory) if fixed
                               else reference_poisson_trace(count, rate, duration, memory, seed))
        except wl.GraphError as exc:
            assert run(*argv) == (2, "", f"error: {exc}\n")
            assert not os.listdir(directory)
            return
        expected = io.StringIO()
        cli.Report("workload trace", metadata, {"written": path} if to_file else table, seed=seed).emit(fmt, expected)
        assert run(*argv) == (0, expected.getvalue(), "")
        if to_file:
            with open(path, encoding="utf-8") as file:
                assert file.read() == dumps(table) + "\n"


@pytest.mark.parametrize("seed", [-1, 2**64, 10**30, -10**30])
def test_workload_trace_with_an_extreme_seed_writes_the_reference_trace(tmp_path, seed):
    """A seed is taken mod 2**64 for the draws and recorded in the manifest as given."""
    path = tmp_path / "t.json"
    doc = run_json("workload", "trace", "--arrivals", "poisson", "--count", "2049", "--rate", "5", "--seed", str(seed),
                   "-o", str(path))
    assert doc["manifest"]["seed"] == seed
    table, _ = reference_poisson_trace(2049, 5.0, 0.5, 0.125, seed)
    assert_same_text(path.read_text(encoding="utf-8"), dumps(table) + "\n")


# --- generator sizes: refused before anything is allocated ---------------------


def faasim_env():
    src = str(Path(faasim.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def limit_address_space(size=2**30):
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (size, size))


@pytest.mark.parametrize("argv", [
    ("workload", "gen", "--kind", "cholesky", "--blocks", "391"),  # 10,039,316 tasks
    ("workload", "gen", "--kind", "cholesky", "--blocks", "272"),  # 3,391,024 tasks, 10,061,688 edges
    ("workload", "gen", "--kind", "paramserver", "--rounds", str(wl.MATERIALIZE_EDGE_LIMIT // 2 + 1)),
    ("workload", "trace", "--count", str(wl.MATERIALIZE_EDGE_LIMIT + 1)),
    ("workload", "trace", "--arrivals", "fixed", "--count", str(wl.MATERIALIZE_EDGE_LIMIT + 1)),
])
def test_generator_size_over_the_budget_is_one_error_line(argv):
    """With 1 GiB of address space, allocating such an output would end in an internal error instead."""
    assert wl.cholesky_task_count(390) <= wl.MATERIALIZE_EDGE_LIMIT < wl.cholesky_task_count(391)
    assert wl.cholesky_edge_count(271) <= wl.MATERIALIZE_EDGE_LIMIT < wl.cholesky_edge_count(272)
    proc = subprocess.run([sys.executable, "-m", "faasim", *argv], env=faasim_env(), capture_output=True, text=True,
                          preexec_fn=limit_address_space, timeout=60)
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert f"limit of {wl.MATERIALIZE_EDGE_LIMIT} elements" in proc.stderr


def test_a_million_entry_trace_is_written_in_64_mib():
    """The trace is made a chunk at a time as it is written: holding its columns took about 100 MB."""
    limit = partial(limit_address_space, 64 << 20)
    probe = subprocess.run([sys.executable, "-c", "bytearray(128 << 20)"], preexec_fn=limit, capture_output=True,
                           timeout=60)
    if probe.returncode == 0:
        pytest.skip("the address space limit is not enforced here")
    proc = subprocess.run([sys.executable, "-m", "faasim", "workload", "trace", "--count", "1000000", "-o", os.devnull],
                          env=faasim_env(), capture_output=True, text=True, preexec_fn=limit, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("instances,slots", [
    (10**9, 1),
    (1, 10**12),
    (2**63 - 1, 2**63 - 1),
])
def test_place_caps_instances_and_slots_at_the_task_count(tmp_path, instances, slots):
    """Seating allocates per instance and per slot; with 1 GiB of address space, uncapped counts end in an
    internal error instead."""
    graph = tmp_path / "graph.json"
    graph.write_text(dumps(wl.gen_cholesky_dag(2).to_json_dict()), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "faasim", "place", "--graph", str(graph), "--instances",
                           str(instances), "--slots", str(slots)], env=faasim_env(), capture_output=True, text=True,
                          preexec_fn=limit_address_space, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    # First fit uses no instance or slot at or past the task count, 4, so capping changes no output.
    _, capped, _ = run("place", "--graph", str(graph), "--instances", str(min(instances, 4)),
                       "--slots", str(min(slots, 4)))
    assert json.loads(proc.stdout)["result"] == json.loads(capped)["result"]


# --- cyclic garbage collection is paused for one command ------------------------


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv,status", [
    (("breakeven", "--ratio", "7.5"), 0),
    (("place", "--graph", "missing.json", "--instances", "1", "--slots", "1"), 2),
])
def test_main_restores_the_callers_gc_setting(tmp_path, monkeypatch, enabled, argv, status):
    """The handler and the rendering of its report both run while collection is paused."""
    monkeypatch.chdir(tmp_path)
    paused = []
    for module, name in ((cli_breakeven, "breakeven"), (cli_place, "place")):
        handler = getattr(module, name)
        monkeypatch.setattr(module, name, lambda args, handler=handler: paused.append(("handler", not gc.isenabled()))
                            or handler(args))
    emit = cli.Report.emit
    monkeypatch.setattr(cli.Report, "emit", lambda report, fmt, out: paused.append(("emit", not gc.isenabled()))
                        or emit(report, fmt, out))
    caller = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = cli.main(list(argv), out=io.StringIO(), err=io.StringIO())
        after = gc.isenabled()
    finally:
        (gc.enable if caller else gc.disable)()
    # A bad --graph fails in the handler, so no report is rendered.
    steps = [("handler", True), ("emit", True)] if status == 0 else [("handler", True)]
    assert (code, after, paused) == (status, enabled, steps)


def _parser_garbage(argv) -> int:
    """The cyclic garbage of building and using the parser of `argv` alone."""
    gc.collect()
    parser, _ = cli.command_parser(list(argv))
    parser.parse_args(list(argv))
    del parser
    return gc.collect()


def test_graph_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    """The pause is sound while command data hold no reference cycles: each command leaves only its parser's."""
    monkeypatch.chdir(tmp_path)
    commands = [("breakeven",), ("workload", "gen", "--kind", "cholesky", "--blocks", "3", "-o", "g.json"),
                ("workload", "profile", "--graph", "g.json"),
                ("place", "--graph", "g.json", "--instances", "3", "--slots", "4"),  # 10 tasks: exhaustive too
                ("place", "--graph", "missing.json", "--instances", "1", "--slots", "1")]
    caller = gc.isenabled()
    gc.disable()
    try:
        collected = []
        for argv in commands * 2:  # the first round also imports modules
            gc.collect()
            run(*argv)
            collected.append(gc.collect())
        parsers = [_parser_garbage(argv) for argv in commands]
    finally:
        (gc.enable if caller else gc.disable)()
    assert collected[len(commands):] == parsers


# --- import-light: each command loads only its handler module and the modules that handler runs ---------

# The desk-queries command lines of the benchmark.
DESK_COMMANDS = {
    "catalog show": ("catalog", "show"),
    "catalog cost": ("catalog", "cost", "--service", "object", "--capacity-gb", "1"),
    "catalog cost iops": ("catalog", "cost", "--service", "object", "--iops", "100000", "--per", "minute", "--mix",
                          "1.0"),
    "comm": ("comm", "--pattern", "shuffle", "--n", "2", "--k", "2", "--granularity", "function"),
    "shuffle plan": ("shuffle", "plan", "--data", "100TB", "--block", "3GB", "--stages", "50"),
    "shuffle price": ("shuffle", "price", "--preset", "cloudsort100tb"),
    "breakeven": ("breakeven", "--ratio", "7.5"),
    "repro json": ("repro",),
    "repro": ("repro", "--format", "table"),
    "workload gen": ("workload", "gen", "--kind", "paramserver"),
}
LIGHT_COMMANDS = {"catalog show", "catalog cost", "catalog cost iops", "comm", "shuffle plan", "breakeven"}
# What a command must not load: code it never runs.
NOT_LOADED = {
    "shuffle plan": {"faasim.catalog"},
    "workload gen": {"faasim.workloads", "faasim.jsonchunks"},
}
# What no command loads: `hashlib` loads OpenSSL's libcrypto, several MB, and the catalog digest needs none of it.
OPENSSL = {"hashlib", "_hashlib"}
LOADED = """import io, json, sys
before = set(sys.modules)
from faasim import cli
status = cli.main(sys.argv[1:], out=io.StringIO())
print(json.dumps([status, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize("name", DESK_COMMANDS)
def test_desk_command_loads_only_what_it_runs(name):
    proc = subprocess.run([sys.executable, "-c", LOADED, *DESK_COMMANDS[name]], env=faasim_env(),
                          capture_output=True, text=True, check=True)
    status, loaded = json.loads(proc.stdout)
    assert status == 0, proc.stderr
    assert "dataclasses" not in loaded
    assert "importlib.resources" not in loaded  # bundled data is found beside the modules
    assert {m for m in loaded if m.startswith("faasim.cli_")} == {f"faasim.cli_{DESK_COMMANDS[name][0]}"}
    assert not (NOT_LOADED.get(name, set()) | OPENSSL) & set(loaded)
    if name in LIGHT_COMMANDS:
        assert not {"faasim.workloads", "faasim.placement", "faasim.repro"} & set(loaded)
    if name == "breakeven":
        assert {m for m in loaded if m.startswith("faasim.")} == {"faasim.cli", "faasim.cli_breakeven",
                                                                   "faasim.jsontext", "faasim.money"}


# Tiny command lines of the other workloads, run in order: each reads what the ones before it wrote.
FILE_COMMANDS = (
    ("workload", "trace", "--count", "3", "--seed", "1", "-o", "trace.json"),
    ("simulate", "--trace", "trace.json"),
    ("workload", "gen", "--kind", "cholesky", "--blocks", "3", "-o", "graph.json"),
    ("workload", "profile", "--graph", "graph.json"),
    ("place", "--graph", "graph.json", "--instances", "3", "--slots", "4"),
)


def test_no_command_loads_openssl(tmp_path):
    for argv in FILE_COMMANDS:
        proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=faasim_env(), cwd=tmp_path,
                              capture_output=True, text=True, check=True)
        status, loaded = json.loads(proc.stdout)
        assert status == 0, proc.stderr
        assert not OPENSSL & set(loaded), argv
