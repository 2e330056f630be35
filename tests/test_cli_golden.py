"""Golden pins for every CLI report: the bytes each subcommand writes.

Each case runs ``main`` in process and pins its exit code and the sha256 of
its JSON report, its CSV report, its stdout (with the two report paths
masked) and its stderr.  Reports must be byte-identical across reruns and
across changes that do not mean to change them; these pins make that a
standing check instead of a hand comparison.

BLAS roundoff can differ across machines, so ``RECORDED_IN`` names the
environment the pins were taken in.  On a mismatch the failure message
names both environments and prints ``RECORDED_IN`` and ``GOLDEN`` as this
run computed them, ready to paste over the ones below.  A change that means
to change report bytes pastes them in and says which pins moved and why.
"""

import contextlib
import hashlib
import io
import pathlib
import platform

import numpy as np
import pytest

from vnlab.cli import REPORT_DIR_ENV, main

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# case name -> argv; check-separability runs with tests/fixtures as its
# working directory, so the "points_file" it echoes is the bare file name
CASES = {
    "verify-deepsets": ["verify-deepsets"],
    "verify-kernel": ["verify-kernel"],
    "verify-deep": ["verify-deep"],
    "verify-kernel-mlp-table": ["verify-kernel", "--set", "mlp_table=true"],
    "verify-deep-gatv2": ["verify-deep", "--set", "gatv2=true"],
    "check-separability-certifies": ["check-separability", "sphere8.csv"],
    "check-separability-inseparable": ["check-separability",
                                       "sphere8_centroid.csv"],
    "dataset-arith": ["dataset-arith"],
    "verify-deepsets-inject-fault": ["verify-deepsets",
                                     "--set", "inject_fault=true"],
    "usage-unknown-key": ["verify-kernel", "--set", "bogus=1"],
}

ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__}

# the environment the pins were taken in; then per case: (exit code, sha256
# of the JSON report, of the CSV report, of stdout, of stderr), with None
# where no report is written
RECORDED_IN = {"python": "3.11.7", "numpy": "2.4.6"}

GOLDEN = {
    "verify-deepsets": (
        0,
        "6ae0cc54d2b7e460b75f2f034abeb724c6923d137bc1393f424c9c1d47ccf2be",
        "3a0bcb3bef389482390b678d96c5b941bb3837b2fb498bdefe0c44127d6f4371",
        "eb693762c663c841bfbbdcc8eb304a276ef83ec4582b56d16c8e1343655b129a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-kernel": (
        0,
        "3d2a82953a26d40382a578846f25ef07b1bd07acaf099bf12d406158c78317f6",
        "b8b0cee45be2b2fc52b924b6d6c1ef5adf9a62708ab90bfb588fe23af42e0570",
        "01e422eaf5fa8e2cf0446b019a073768bd5cdfbad8b5395e5b2d74bd3c516057",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-deep": (
        0,
        "2a1ea7a331b021bf073fe4761fde70001c7d19abad8c923b485b7b34888f51ab",
        "93c0e50f083fe86e5f9ed9d89a1519a7b701c088af98defc2e1a28cc5862bd3b",
        "dcdb39c01e84204d5a8a7ce9d6ea6786384af7e8113a11dcc6a74abb82d0bfb8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-kernel-mlp-table": (
        0,
        "6740eb7fce9443434ec4bb3d973af48013b0b18fc2feaf0f065e7f1797698b53",
        "4cc2c1e600bf520dccb611ebfd2f5be785c50f43c70f6a12005f2010a68b511e",
        "65f92dfa5366ec95b3b3e2a4272b9ef5b6603d59dc25294e721786085423860f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-deep-gatv2": (
        0,
        "4d26eb6eaaf4fb41b88e2c7ab32b9aee0beb3576b67508f19af9edb0ca9785b9",
        "ef00b484549e8ad38a7972a32436127cd93b9402f7b5e6bdf81c74ad4556e757",
        "92ea7f5b7602fde972a7b54a3007fae3001570fbc2ddd30ece769b12a8158773",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "check-separability-certifies": (
        0,
        "041d3b78e1eb99aeed25523ff2cfa9386843dd0d971b675acf7dbe412774bd9a",
        "6cf2387ee55a912f4516a8a2deff1c3848a4427b21de6aca1ff0a11f507305ae",
        "e799055e0998ca5b7eda1eec88a8e002ffea092d674e67eb72e04a5a5028cf8b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "check-separability-inseparable": (
        0,
        "6065991e447f8edc81c7592c7631cd265094f75fb30f2392c6672065f62d26ed",
        "a09425a07ad7d4581441cdba29a9c6d82cad64d1363f811c9c3863bedb8430b4",
        "c470f8bda242a049c64f235e5d418acf055c0408d3b65036b15f3ba93f30a1fe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "dataset-arith": (
        0,
        "4cf163d401799e7d97c96e340bedd98f22c7b28bad6b8be96954a256dae02000",
        "0727f2c7dd88b373fd757cf9bed0f05ea2a5b5e04fa4a2138019aef4c327f9da",
        "4dd4d98ea075fccb4d166145ae49a7d063c0056c798b35f79d18e0d2ffb5e86b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-deepsets-inject-fault": (
        2,
        "0be8e8a45095135d4fbeda76fcb35bd3f7da6d4de19f64342aa4c1df84517dad",
        "30a10a822078bf89fb12f1c04adf70b39f1d87ce43bcada73c514f5c9df2c368",
        "c190bf84ea8afd3f009a1a68c9fdc7addc62120fb7477d98ba3dde25b31500fa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "usage-unknown-key": (
        1,
        None,
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1341ff15cabc8b188d6dc544245dc605864d8216b2eb8450d3f29e681771ee6d",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list, out_dir: pathlib.Path) -> tuple:
    """Run ``main(argv)`` writing both reports under ``out_dir``: its exit
    code and the digests of its reports, masked stdout and stderr."""
    json_path, csv_path = out_dir / "report.json", out_dir / "report.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(REPORT_DIR_ENV, raising=False)
        mp.chdir(FIXTURES)
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([*argv, "--json", str(json_path),
                         "--csv", str(csv_path)])
    text = (stdout.getvalue().replace(str(json_path), "<json>")
            .replace(str(csv_path), "<csv>"))
    reports = [sha256(path.read_bytes()) if path.exists() else None
               for path in (json_path, csv_path)]
    return (code, *reports, sha256(text.encode()),
            sha256(stderr.getvalue().encode()))


def pins_source(recorded_in: dict, golden: dict) -> str:
    """``RECORDED_IN`` and ``GOLDEN`` as python source, in this file's
    layout."""
    def lit(value) -> str:
        return f'"{value}"' if isinstance(value, str) else repr(value)

    env = ", ".join(f"{lit(k)}: {lit(v)}" for k, v in recorded_in.items())
    lines = [f"RECORDED_IN = {{{env}}}", "", "GOLDEN = {"]
    for name, pin in golden.items():
        lines.append(f"    {lit(name)}: (")
        lines.extend(f"        {lit(value)}," for value in pin)
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    out = {}
    for name, argv in CASES.items():
        out_dir = tmp_path_factory.mktemp(name)
        out[name] = run_case(argv, out_dir)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(computed, name):
    assert computed[name] == GOLDEN.get(name), (
        f"CLI case {name!r} ({' '.join(CASES[name])}) changed: pins "
        f"recorded under {RECORDED_IN}, this run under {ENVIRONMENT}.  "
        "If the change is meant, replace the pins in "
        "tests/test_cli_golden.py with:\n\n"
        + pins_source(ENVIRONMENT, computed))


def test_every_pin_has_a_case():
    assert sorted(GOLDEN) == sorted(CASES)


def test_pins_source_reads_back():
    namespace = {}
    exec(pins_source(RECORDED_IN, GOLDEN), namespace)
    assert namespace["RECORDED_IN"] == RECORDED_IN
    assert namespace["GOLDEN"] == GOLDEN

