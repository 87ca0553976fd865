"""The command line's outputs are the recorded ones, bit for bit.

``tests/golden.json`` holds the exit code and the sha256 of the stdout and
of each output file of the commands in ``golden.COMMANDS``.  Sums are taken
in orders numpy does not promise across versions, so on another numpy the
test skips, naming both versions.  A change that moves outputs on purpose
rewrites the record with ``PYTHONPATH=src python tests/golden.py``.
"""

import numpy as np
import pytest

import golden


def test_outputs_are_the_golden_ones():
    record = golden.load()
    if record["numpy"] != np.__version__:
        pytest.skip(f"golden outputs were recorded on numpy "
                    f"{record['numpy']}, this is numpy {np.__version__}")
    got = golden.digests()
    moved = golden.differing(record["digests"], got)
    assert not moved, "outputs differ from tests/golden.json:\n" + "\n".join(
        moved)
