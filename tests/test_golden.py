"""Byte-identity of CLI output: pinned sha256 of small reports and artifacts.

Each command below runs in a fresh directory with relative file names and
a copy of the bundled catalog, so the bytes do not depend on where the
package is installed. Any change to rendering, to the graph core or to the
simulator that alters one byte of these outputs fails here; if such a
change is intended, update the digests in the same commit and say why.
"""

import hashlib
import io
import shutil
from pathlib import Path

import pytest

from faasim import catalog as cat
from faasim import cli

# (name, argv, file written with -o or None) -> digests of stdout and file.
GOLDEN = [
    ("gen cholesky", ("workload", "gen", "--kind", "cholesky", "--blocks", "6", "-o", "chol.json"), "chol.json"),
    ("gen shuffle", ("workload", "gen", "--kind", "shuffle", "--mappers", "8", "--reducers", "8",
                     "-o", "shuf.json"), "shuf.json"),
    ("gen small cholesky", ("workload", "gen", "--kind", "cholesky", "--blocks", "3", "-o", "small.json"),
     "small.json"),
    ("profile cholesky", ("workload", "profile", "--graph", "chol.json"), None),
    ("profile shuffle", ("workload", "profile", "--graph", "shuf.json"), None),
    ("place cholesky", ("place", "--graph", "chol.json", "--instances", "10", "--slots", "8"), None),
    ("place shuffle", ("place", "--graph", "shuf.json", "--instances", "4", "--slots", "8"), None),
    ("place exhaustive", ("place", "--graph", "small.json", "--instances", "2", "--slots", "5"), None),
    ("trace", ("workload", "trace", "--count", "200", "--seed", "1", "-o", "trace.json"), "trace.json"),
    ("simulate", ("simulate", "--trace", "trace.json", "--catalog", "catalog.json"), None),
    ("catalog show", ("catalog", "show", "--catalog", "catalog.json"), None),
    # Bursty, four memory classes, equal-timestamp ties, prestarted pool,
    # over-limit and bad-memory rows.
    ("simulate bursty", ("simulate", "--trace", "bursty_trace.json", "--catalog", "catalog.json",
                         "--keep-alive", "10", "--t-env", "2", "--t-app", "0.3", "--prestarted", "5"), None),
]
# Table and CSV stdout of the reports that hold record lists (trace entries,
# graph tasks and edges, profile levels, invocations and rejected entries).
GOLDEN += [
    (f"{name} {fmt}", argv + ("--format", fmt), None)
    for name, argv in [
        ("trace", ("workload", "trace", "--count", "200", "--seed", "1")),
        ("gen small cholesky", ("workload", "gen", "--kind", "cholesky", "--blocks", "3")),
        ("profile cholesky", ("workload", "profile", "--graph", "chol.json")),
        ("simulate bursty", ("simulate", "--trace", "bursty_trace.json", "--catalog", "catalog.json",
                             "--keep-alive", "10", "--t-env", "2", "--t-app", "0.3", "--prestarted", "5")),
    ]
    for fmt in ("table", "csv")
]

DIGESTS = {
    "gen cholesky": (
        "06bec6ef1e1f1cb065d76a434ae70b025ecca7eb7aa7e414f03e3ee193d0d7d0",
        "6fc2852d045f8689bedf2d2b4f0401294262d1fa86dcd6d35ddffd18790f4e05",
    ),
    "gen shuffle": (
        "c30a47ee76bac3fcf2f4d35056a238a1b309c4c87c9347b79a77572356f4d216",
        "d25be083d5b431a1148956d2c503868f90034bd2ad44f999d93fa1d44095b597",
    ),
    "gen small cholesky": (
        "5b2d54741cb6db3ae9a4c559182961ecfca20b3cc6f37f6c903b7f7d4260373b",
        "a4361066256a01ec575ba3f66855e509f245c3d8b6acbbbc67dfcb9ffbffe501",
    ),
    "profile cholesky": (
        "c29c358e90b4e18951788159201c5c519a4f1b4538ed67855fd06ca63f01ebff",
        None,
    ),
    "profile shuffle": (
        "49a62c88efbe4e50c0b6a7de97f191e01cc2aff9ec7edf44d77fc5d99f18906f",
        None,
    ),
    "place cholesky": (
        "3cdfbc3d00ec323fb14bd85e15b0a9a2a6b7f5da056b0758639054f7fd546e28",
        None,
    ),
    "place shuffle": (
        "a942d013cdf752e56cb272b53f2a8e1890d31c161dc7c1c8d60089705c7dd80b",
        None,
    ),
    "place exhaustive": (
        "dbb066db85ea7e508e5cfa623178317e72439b2e35d185897c56fe8cd605195b",
        None,
    ),
    "trace": (
        "174de338097dd7d33d84bb58edcd9ee77e1b5a544b3fa9aefc3231272026abac",
        "f83ea0269e61ea461c49dd4c066075db6f02073686a5510763d2b67a3e869c1a",
    ),
    "simulate": (
        "fadd839a661cdecdf9d11c43d6177d7fcb9c2e9ac3cd5ef4f44accaf714477aa",
        None,
    ),
    "catalog show": (
        "55169645afc4a6fc125d65dea1c5dcabe7155913b339df96ffd84805edc1c73a",
        None,
    ),
    "simulate bursty": (
        "471338766d95ed0ce7a2d69b00ffc441aeaa2818df22a4deb9dd96cf680912f2",
        None,
    ),
    "trace table": (
        "bb7aee873be9c5e0feaf415343d6100122b95119d118acd8c32c877c01130c6b",
        None,
    ),
    "trace csv": (
        "3640a8ae58ded34ed0abf93642e20d6dbed13d7712518b62d35e3cd0ac992557",
        None,
    ),
    "gen small cholesky table": (
        "bce157b29fd9d644e445a542e861c68815458048b490b986084a7b1961c4ed21",
        None,
    ),
    "gen small cholesky csv": (
        "82db56ad8ab028a935b8337bc6de1c1647992d6cd0c32addaad38e43c6e1ce1a",
        None,
    ),
    "profile cholesky table": (
        "abbd4086d294ca1bbd4601204c61403d6122ca637a8b87235b18976a9580a9cf",
        None,
    ),
    "profile cholesky csv": (
        "83ddb96a8b8102c5d70eddaa9ccaed59bdcab48a6158ac1e5c87dbcfa89bb5a2",
        None,
    ),
    "simulate bursty table": (
        "c18e4a45c8598155987680dd308f4e50048cb4cc3f44ec03b4397987fbdb9e59",
        None,
    ),
    "simulate bursty csv": (
        "5d20d74f2997b51760f9d3035aad22cc6c89c01c7a2f854375f2751d7ad76e7c",
        None,
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    """Run every command in order in one directory; name -> (stdout, file) digests."""
    directory = tmp_path_factory.mktemp("golden")
    shutil.copyfile(cat.default_catalog_path(), directory / "catalog.json")
    shutil.copyfile(Path(__file__).parent / "data" / "bursty_trace.json", directory / "bursty_trace.json")
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        mp.delenv("FAASIM_CATALOG", raising=False)
        for name, argv, written in GOLDEN:
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(list(argv), out=out, err=err)
            assert code == 0, err.getvalue()
            file_digest = sha256((directory / written).read_bytes()) if written else None
            results[name] = (sha256(out.getvalue().encode("utf-8")), file_digest)
    return results


@pytest.mark.parametrize("name", [name for name, _, _ in GOLDEN])
def test_output_bytes_unchanged(golden_outputs, name):
    assert golden_outputs[name] == DIGESTS[name]
