"""End-to-end bytes across commits: two pinned configs run through the CLI
must write the files whose digests `record_digests.py` recorded for this
numerical environment (numpy and the BLAS build and kernels)."""

import json

import pytest

from record_digests import CONFIGS, DIGEST_FILE, environment_key, run_all


@pytest.fixture(scope="module")
def pinned():
    key = environment_key()
    recorded = json.loads(DIGEST_FILE.read_text())
    if key not in recorded:
        pytest.skip(f"no digests pinned for {key!r} in {DIGEST_FILE.name}; record them "
                    f"with `python tests/record_digests.py` at a commit known to be right")
    return recorded[key]


@pytest.fixture(scope="module")
def ran(pinned, tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_run_matches_pinned_digests(pinned, ran, name):
    want, have = pinned[name], ran[name]
    assert sorted(have) == sorted(want)
    moved = [f for f in sorted(want) if have[f] != want[f]]
    assert not moved, f"config {name!r}: these files changed bytes: {moved}"
