"""Golden-digest conformance, two verdicts.

``tests/golden/golden.json`` holds, at fixed seeds, sha256 digests of
every paper-facing table/figure (rendered text) and the trace digests of
the traced scenarios.  An *output* digest that differs means the model
computes something else: that is never an optimisation.  A *trace*
digest that differs means same-instant work ran in another order (or was
traced under other names) — allowed only to a PR whose stated purpose it
is, which regenerates them in one commit and lists what moved (PR 16 did:
``outputs`` byte-equal, all four ``trace_digests`` moved).

Regenerate (only after an *intentional* change) with::

    PYTHONPATH=src python -m repro golden --write -j4
"""

import json
import os

import pytest

from repro.bench import (
    GOLDEN_OUTPUTS,
    GOLDEN_TRACED,
    compute_output_digests,
    compute_trace_digests,
    default_golden_path,
    write_golden,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "golden", "golden.json")


def _load():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_is_complete():
    ref = _load()
    assert ref["schema"] == "repro-golden/1"
    assert set(ref["outputs"]) == set(GOLDEN_OUTPUTS)
    assert set(ref["trace_digests"]) == set(GOLDEN_TRACED)


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_output_digest_matches_golden(name):
    ref = _load()["outputs"]
    fresh = compute_output_digests([name])
    assert fresh[name] == ref[name], (
        "MODEL CHANGED: rendered output of %r differs from the golden" % name
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACED))
def test_trace_digest_matches_golden(name):
    ref = _load()["trace_digests"]
    fresh = compute_trace_digests([name])
    assert fresh[name] == ref[name], (
        "SCHEDULE CHANGED: trace digest of %r differs from the golden" % name
    )


def test_default_golden_path_is_the_committed_file():
    assert os.path.samefile(default_golden_path(), GOLDEN_PATH)


def regenerate():  # pragma: no cover - maintenance helper
    from repro.parallel import default_jobs

    print("wrote %s" % write_golden(GOLDEN_PATH, jobs=default_jobs()))
