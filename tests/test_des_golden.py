"""Golden DES outputs: exact results pinned in ``data/des_golden.json``.

``test_determinism.py`` shows that two runs agree with each other; a
change that reorders events but stays deterministic would still pass
there.  These tests pin the results themselves, so any change to event
order, timing or accounting in the simulator shows up as a diff against
a file captured before the DES fast paths of docs/PERFORMANCE.md
existed.  The runs are shared with ``test_determinism.py`` through
:mod:`tests.des_cases`.
"""

import hashlib
import json

import pytest

from tests import des_cases

GOLDEN = json.loads(des_cases.GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(des_cases.CASES)


@pytest.mark.parametrize("name", sorted(des_cases.CASES))
def test_des_output_matches_golden(name):
    got = json.loads(des_cases.canonical(des_cases.first(name)))
    assert got == GOLDEN[name]


def test_exp2c_golden_is_the_bench_digest():
    """The pinned exp2c result is the one ``bench/`` digests for
    des_ramp (sha256 of the sorted-key JSON of ``result.to_dict()``)."""
    text = json.dumps(GOLDEN["exp2c_bench_scale"], sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest.startswith("1c18ff889fa7")
    assert GOLDEN["exp2c_bench_scale"]["exp_id"] == "exp2c"
