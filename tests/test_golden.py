"""The command line's outputs are the recorded ones, bit for bit, whatever
the thread count.

``tests/golden.json`` holds the exit code and the sha256 of the stdout and
of each output file of the commands in ``golden.COMMANDS``.  They run twice,
at ``BVLIFT_THREADS`` 1 and 3, and the two runs must agree on any numpy.
Sums are taken in orders numpy does not promise across versions, so on
another numpy only the exit codes are compared with the record, and the
digest comparison skips, naming both versions.  A change that moves
outputs on purpose rewrites the record with
``PYTHONPATH=src python tests/golden.py``.
"""

import numpy as np
import pytest

import golden


@pytest.fixture(scope="module")
def runs():
    """The digests at ``BVLIFT_THREADS=1`` and at ``BVLIFT_THREADS=3``."""
    out = []
    for threads in ("1", "3"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("BVLIFT_THREADS", threads)
            out.append(golden.digests())
    return out


def test_outputs_do_not_depend_on_the_thread_count(runs):
    moved = golden.differing(*runs)
    assert not moved, "outputs differ between 1 and 3 threads:\n" + "\n".join(
        moved)


def test_exit_codes_are_the_golden_ones(runs):
    want, got = ({k: v for k, v in d.items() if k.endswith(" | exit")}
                 for d in (golden.load()["digests"], runs[0]))
    moved = golden.differing(want, got)
    assert not moved, "exit codes differ from tests/golden.json:\n" + (
        "\n".join(f"{k}: {want.get(k)} -> {got.get(k)}" for k in moved))


def test_outputs_are_the_golden_ones(runs):
    record = golden.load()
    if record["numpy"] != np.__version__:
        pytest.skip(f"golden outputs were recorded on numpy "
                    f"{record['numpy']}, this is numpy {np.__version__}")
    moved = golden.differing(record["digests"], runs[0])
    assert not moved, "outputs differ from tests/golden.json:\n" + "\n".join(
        moved)
