"""The edit/compile client loop behind every N-client load experiment.

One user's daily pattern (§2.3's server-capacity discussion): write a
scratch file, read it back, flush one keeper, delete the scratch, think.
The scaling table and the cluster and sharded load points all run one
of these per client.
"""

from __future__ import annotations

import posixpath

from ..fs import FileExists
from ..fs.types import OpenMode

__all__ = ["edit_compile"]


def edit_compile(kernel, home: str, iterations: int, file_blocks: int, prefix: str = ""):
    """Loop ``iterations`` times in directory ``home``.  ``prefix``
    keeps file names distinct when several clients share ``home`` (the
    hot-directory variant); the mkdir tolerates losing that create race."""
    block = b"w" * 4096
    try:
        yield from kernel.mkdir(home)
    except FileExists:
        pass
    for i in range(iterations):
        scratch = posixpath.join(home, "%sscratch%d" % (prefix, i))
        keeper = posixpath.join(home, "%sout%d" % (prefix, i))
        fd = yield from kernel.open(scratch, OpenMode.WRITE, create=True)
        for _ in range(file_blocks):
            yield from kernel.write(fd, block)
        yield from kernel.close(fd)
        fd = yield from kernel.open(scratch, OpenMode.READ)
        while True:
            data = yield from kernel.read(fd, 8192)
            if not data:
                break
        yield from kernel.close(fd)
        fd = yield from kernel.open(keeper, OpenMode.WRITE, create=True)
        yield from kernel.write(fd, block)
        yield from kernel.close(fd)
        yield from kernel.unlink(scratch)
        # a little think time between iterations
        yield kernel.sim.timeout(0.2)
