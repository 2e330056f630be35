"""Every document format the loader reads has a committed fixture that loads
and runs.

``mpnnvn.FORMATS`` lists the format tags ``program_from_json`` accepts.  A
tag is covered when some ``tests/fixtures/*.json`` document of that format
loads and runs on the pinned programs' input rows (5 nodes, 3 features) with
a finite output, so the reader kept for old documents is exercised by a real
one and not only by documents the current writer produced.
"""

import pathlib

import numpy as np

from vnlab import numkit
from vnlab.graphs import Graph, add_virtual_node
from vnlab.mpnnvn import FORMATS, load_program

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
X = 0.5 * numkit.make_rng(4).normal(size=(5, 3))


def runnable_formats(paths) -> set[str]:
    """Format tags of the documents in ``paths`` that load and run on X."""
    formats = set()
    for path in paths:
        try:
            out = load_program(path).execute(add_virtual_node(Graph(5, ())), X)
        except ValueError:
            continue
        if np.isfinite(out).all():
            formats.add(numkit.load_json(path)["format"])
    return formats


def test_detects_a_fixture_that_does_not_run():
    # the rich fixture, a codec sample and no compiled program, is refused
    # at load
    assert runnable_formats([FIXTURES / "deep_oracle.v1.json",
                             FIXTURES / "rich.v2.json"]) == {"layer-program/v1"}


def test_every_format_has_a_fixture_that_loads_and_runs():
    covered = runnable_formats(sorted(FIXTURES.glob("*.json")))
    assert sorted(set(FORMATS) - covered) == []
