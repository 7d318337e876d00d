"""The trace-as-determinism-oracle tests.

Two runs of the same seeded workload must export *byte-identical*
Chrome traces — any divergence means nondeterminism crept into the
scheduler, the RNG plumbing, or the exporters.  A different seed (with
packet loss enabled, so the seed matters) must produce a different
trace.
"""


from repro.experiments import run_traced_andrew
from repro.trace import chrome_trace_json, trace_digest

DROP = 0.02  # make the run seed-sensitive


def _trace_bytes(protocol, seed):
    run = run_traced_andrew(protocol, seed=seed, drop_rate=DROP)
    return chrome_trace_json(run.tracer), trace_digest(run.tracer)


def test_snfs_same_seed_is_byte_identical():
    text_a, digest_a = _trace_bytes("snfs", seed=3)
    text_b, digest_b = _trace_bytes("snfs", seed=3)
    assert digest_a == digest_b
    assert text_a == text_b


def test_nfs_same_seed_is_byte_identical():
    text_a, digest_a = _trace_bytes("nfs", seed=3)
    text_b, digest_b = _trace_bytes("nfs", seed=3)
    assert digest_a == digest_b
    assert text_a == text_b


def test_different_seed_produces_different_trace():
    _, digest_a = _trace_bytes("snfs", seed=3)
    _, digest_c = _trace_bytes("snfs", seed=4)
    assert digest_a != digest_c
