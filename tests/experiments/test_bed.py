"""Tests for the one testbed builder, its driver, and the registry."""

import ast
import pathlib

import pytest

import repro
from repro.experiments import (
    PROTOCOL_REGISTRY,
    ResilienceBed,
    build_bed,
    build_cluster,
    build_sharded_cluster,
    build_testbed,
)
from repro.fs import OpenMode
from repro.proto.shard import ShardMap


def _write(kernel, path, data):
    fd = yield from kernel.open(path, OpenMode.WRITE, create=True, truncate=True)
    yield from kernel.write(fd, data)
    yield from kernel.close(fd)


def _read(kernel, path):
    fd = yield from kernel.open(path, OpenMode.READ)
    got = yield from kernel.read(fd, 1 << 20)
    yield from kernel.close(fd)
    return got


@pytest.mark.parametrize("n_shards", (None, 1, 3))
@pytest.mark.parametrize("protocol", PROTOCOL_REGISTRY)
def test_write_on_one_client_is_read_back_on_another(protocol, n_shards):
    shard_map = None if n_shards is None else ShardMap(n_shards)
    bed = build_bed(protocol, 2, shard_map, seed=7)
    assert len(bed.servers) == len(bed.server_hosts) == (n_shards or 1)
    assert [h.name for h in bed.server_hosts] == (
        ["server"] if n_shards is None
        else ["server%d" % k for k in range(n_shards)]
    )
    k0, k1 = bed.kernels
    for name in ("alpha", "beta", "gamma"):  # hash-spread over the shards
        bed.run(k0.mkdir("/data/" + name))
        bed.run(_write(k0, "/data/%s/f" % name, name.encode()))
        assert bed.run(_read(k1, "/data/%s/f" % name)) == name.encode()
    assert bed.total_rpcs() > 0
    assert len(bed.shard_mounts(0)) == 2


def test_protocol_tuples_are_the_registry_keys():
    from repro.experiments.cluster import CLUSTER_PROTOCOLS, PROTOCOLS
    from repro.nemesis import ALL_PROTOCOLS

    keys = tuple(PROTOCOL_REGISTRY)
    assert keys == ("nfs", "snfs", "rfs", "kent", "lease")
    assert CLUSTER_PROTOCOLS == ALL_PROTOCOLS == keys
    assert PROTOCOLS == ("local",) + keys


def test_unknown_protocol_is_rejected_by_name():
    with pytest.raises(ValueError, match="must be one of nfs, snfs"):
        build_bed("afs", 1)


# -- the driver: one behaviour on failure and on timeout ------------------------


_BUILDERS = {
    "cluster": lambda: build_cluster("snfs", 2),
    "sharded": lambda: build_sharded_cluster("snfs", 2, 2),
    "resilience": lambda: ResilienceBed("snfs", n_clients=2),
    "testbed": lambda: build_testbed("snfs"),
}
every_bed = pytest.mark.parametrize("build", _BUILDERS.values(), ids=list(_BUILDERS))


@every_bed
def test_run_all_reraises_the_failing_child_not_a_timeout(build):
    # regression: the cluster and sharded beds tested "not triggered"
    # before "exception", and AllOf fails fast — so a client raising at
    # t=1 s while its neighbour was still running surfaced as
    # TimeoutError("... did not finish before 1e+07")
    bed = build()

    def slow():
        yield bed.sim.timeout(50.0)

    def broken():
        yield bed.sim.timeout(1.0)
        raise RuntimeError("client 1 broke")

    t0 = bed.sim.now
    with pytest.raises(RuntimeError, match="client 1 broke"):
        bed.run_all(slow(), broken())
    assert bed.sim.now - t0 == pytest.approx(1.0)


@every_bed
def test_hitting_the_limit_is_a_timeout_error_naming_it(build):
    # regression: ResilienceBed.run_all returned None at the limit (a
    # hung nemesis workload was judged as if it had finished) and
    # Testbed.run_all raised an opaque SimulationError
    bed = build()

    def hung():
        yield bed.sim.timeout(1e9)

    def fine():
        yield bed.sim.timeout(1.0)

    limit = bed.sim.now + 100.0
    with pytest.raises(TimeoutError, match="%g" % limit):
        bed.run_all(fine(), hung(), limit=limit)
    with pytest.raises(TimeoutError, match="%g" % (limit + 100)):
        bed.run(hung(), limit=limit + 100)


# -- structure: the ladders cannot grow back --------------------------------------

_SRC = pathlib.Path(repro.__file__).parent
_CONSTRUCTORS = {
    cls.__name__ for spec in PROTOCOL_REGISTRY.values() for cls in (spec.server, spec.client)
}


def _is_protocol_operand(node):
    return (isinstance(node, ast.Name) and node.id == "protocol") or (
        isinstance(node, ast.Attribute) and node.attr == "protocol"
    )


def _ladder_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _CONSTRUCTORS:
                yield node.lineno, "constructs %s" % name
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            sides = [node.left] + node.comparators
            if any(_is_protocol_operand(s) for s in sides) and any(
                isinstance(s, ast.Constant) and isinstance(s.value, str) for s in sides
            ):
                yield node.lineno, "compares protocol to a string"


def test_only_bed_py_names_protocol_classes_or_compares_protocol_names():
    offenders = []
    for package in ("experiments", "bench", "nemesis"):
        for path in sorted((_SRC / package).rglob("*.py")):
            if path.name == "bed.py":
                continue
            tree = ast.parse(path.read_text())
            offenders += [
                "%s:%d %s" % (path.relative_to(_SRC), line, what)
                for line, what in _ladder_sites(tree)
            ]
    assert offenders == []
    # and the detector does see what it is meant to
    planted = ast.parse(
        "if protocol == 'nfs':\n    s = NfsServer(h, e)\nelif bed.protocol != 'snfs':\n    pass\n"
    )
    assert [what for _, what in _ladder_sites(planted)] == [
        "compares protocol to a string",
        "constructs NfsServer",
        "compares protocol to a string",
    ]
