"""Every number in the golden grid is bit-identical to the recorded one.

See ``tests/golden_digests.py`` for the grid and for how to regenerate
the recorded file. The digests hold only for the numpy, scipy and
OpenBLAS builds they were made with, so another build fails here by
name rather than with a list of changed digests.
"""

import json

from golden_digests import DIGEST_FILE, compute_digests, environment


def test_digests_match_the_recorded_build_and_numbers():
    recorded = json.loads(DIGEST_FILE.read_text())
    current = environment()
    differing = [
        f"{key}: recorded {recorded['environment'].get(key)!r}, running {value!r}"
        for key, value in current.items()
        if recorded["environment"].get(key) != value
    ]
    assert not differing, "digests were recorded on another numeric build: " + "; ".join(
        differing
    )

    digests = compute_digests()
    assert sorted(digests) == sorted(recorded["digests"])
    changed = [name for name in sorted(digests) if digests[name] != recorded["digests"][name]]
    assert not changed, f"{len(changed)} digest(s) changed: {changed}"
