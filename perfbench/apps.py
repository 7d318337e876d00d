"""The simulated applications perfbench runs on top of the syscall layer.

These are coroutines over a ``Kernel``: the per-client loop of the
``cluster`` workload and the read-back helpers the verifiers use.  The
sampler charges this file to the ``workloads`` layer, next to
``repro/workloads``.
"""

from __future__ import annotations

import posixpath

from .surface import OpenMode

__all__ = [
    "edit_compile_client",
    "read_whole",
    "tree_mismatches",
    "write_whole",
]

_BLOCK = b"w" * 4096
_IO_CHUNK = 8192


def edit_compile_client(kernel, home, iterations, scratch_blocks, think):
    """One user's closed edit/compile loop: write a scratch file, read
    it back, keep a small result, delete the scratch, think.

    Returns ``(bytes_written, bytes_reread)`` over the scratch files so
    the verifier can tell a short or stale reread from a correct one.
    """
    written = reread = 0
    yield from kernel.mkdir(home)
    for i in range(iterations):
        scratch = posixpath.join(home, "scratch%d" % i)
        keeper = posixpath.join(home, "out%d" % i)
        fd = yield from kernel.open(scratch, OpenMode.WRITE, create=True)
        for _ in range(scratch_blocks):
            yield from kernel.write(fd, _BLOCK)
            written += len(_BLOCK)
        yield from kernel.close(fd)
        fd = yield from kernel.open(scratch, OpenMode.READ)
        while True:
            data = yield from kernel.read(fd, _IO_CHUNK)
            if not data:
                break
            reread += len(data)
        yield from kernel.close(fd)
        fd = yield from kernel.open(keeper, OpenMode.WRITE, create=True)
        yield from kernel.write(fd, _BLOCK)
        yield from kernel.close(fd)
        yield from kernel.unlink(scratch)
        yield kernel.sim.timeout(think)
    return written, reread


def write_whole(kernel, path, data):
    fd = yield from kernel.open(path, OpenMode.WRITE, create=True)
    for offset in range(0, len(data), _IO_CHUNK):
        yield from kernel.write(fd, data[offset:offset + _IO_CHUNK])
    yield from kernel.close(fd)


def read_whole(kernel, path):
    fd = yield from kernel.open(path, OpenMode.READ)
    chunks = []
    while True:
        data = yield from kernel.read(fd, 65536)
        if not data:
            break
        chunks.append(data)
    yield from kernel.close(fd)
    return b"".join(chunks)


def tree_mismatches(kernel, root, tree):
    """Paths of ``tree`` whose copy under ``root`` does not read back
    byte-equal (a missing file is an ``FsError`` and escapes)."""
    bad = []
    for f in tree.files:
        data = yield from read_whole(kernel, posixpath.join(root, f.path))
        if data != f.content:
            bad.append(f.path)
    return bad
