"""SNFS protocol definitions (§3).

SNFS is the NFS protocol plus three calls:

* ``open`` (client→server): file handle + write-intent flag; returns a
  ``cacheEnabled`` flag, the latest and previous version numbers, and
  the file attributes (obviating the getattr NFS makes at open time).
* ``close`` (client→server): file handle + the writeMode flag from the
  matching open ("it must be supplied since open could have been called
  several times, with different modes, on a single file handle").
* ``callback`` (server→client): two flags — write dirty blocks back,
  and/or invalidate cached blocks and stop caching.

Entry points carry the ``snfs.`` prefix — the paper's authors renamed
entry points so NFS and SNFS could coexist in one kernel (§4), and a
hybrid client discovers a plain-NFS server by its rejection of ``open``
(§6.1).
"""

from __future__ import annotations

from ..proto.procs import proc_namespace

__all__ = ["SPROC"]


SPROC = proc_namespace(
    "snfs",
    doc="SNFS procedure names.",
    # the three additions
    OPEN="snfs.open",
    CLOSE="snfs.close",
    CALLBACK="snfs.callback",  # server -> client
    # crash-recovery extension (§2.4; implemented here, future work in
    # the paper)
    PING="snfs.ping",  # keepalive / reboot detection
    REOPEN="snfs.reopen",  # bulk state reassertion after a reboot
    KEEPALIVE="snfs.keepalive",  # server -> client liveness probe
)
