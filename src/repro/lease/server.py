"""An NQNFS-style lease server, built on the ``repro.proto`` core.

Not-Quite NFS (Macklem's NQNFS, which the paper's §7 line of work led
to) bounds server state in *time* instead of tracking it forever: a
client may cache a file only while it holds a **lease** on it.

* ``lease.open(fh, write)`` grants a read or write lease for a fixed
  term and returns ``(expiry, version, prev_version, attr)``.  Before
  granting, the server *recalls* conflicting leases with ``vacate``
  callbacks — but a lapsed read lease needs no callback at all (its
  holder already stopped trusting its cache), which is the lease
  scheme's recovery story: server state expires instead of needing a
  §2.4-style grace period.  A lapsed *write* lease is still recalled,
  since the holder may hold delayed writes worth saving.
* Version numbers follow the paper's §3.1 rule: bumped on every open
  for write, and a writer's cache stays valid across its own reopen
  via ``prev_version``.
* ``lease.getattr`` piggybacks renewal: if the caller still holds a
  non-conflicting lease, the reply carries a fresh expiry (and the
  current version) along with the attributes — so steady-state cache
  revalidation costs one RPC that was being sent anyway.

Like the SNFS server, opens are serialized per file with the core's
lock table, and a vacate target that does not answer forfeits its
lease (the dead-holder rule, §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

from ..fs.types import FileHandle
from ..host import Host
from ..net import RpcError
from ..proto import RemoteFsServer, proc_namespace
from ..vfs import LocalMount

__all__ = ["LeaseServer", "LPROC", "DEFAULT_LEASE_TERM", "DEFAULT_WRITE_SLACK"]

#: how long a lease is good for; NQNFS used tens of seconds so that a
#: crashed client's state evaporates quickly
DEFAULT_LEASE_TERM = 30.0

#: extra post-reboot slack, beyond the lease term, before new leases
#: are granted — time for pre-crash write-lease holders to flush their
#: delayed data (NQNFS's ``write_slack``).  Sized for the worst case:
#: an update-daemon sync interval (30 s) for the flush to start, plus
#: the retransmission backoff cap for a retry that was mid-sleep when
#: the server came back.
DEFAULT_WRITE_SLACK = 45.0

#: how long the server waits for one vacate callback before declaring
#: the holder dead
VACATE_TIMEOUT = 15.0


LPROC = proc_namespace(
    "lease",
    doc="Lease-protocol procedure names.",
    OPEN="lease.open",
    VACATE="lease.vacate",  # server -> client: recall a lease
)


@dataclass
class _LeaseEntry:
    """Lease state for one file."""

    version: int = 0
    prev_version: int = 0
    #: client address -> read-lease expiry time
    read_holders: Dict[str, float] = field(default_factory=dict)
    write_holder: str = ""
    write_expiry: float = 0.0
    last_writer: Optional[str] = None


class LeaseServer(RemoteFsServer):
    """Remote-FS service with time-bounded per-file lease state."""

    PROC = LPROC

    def __init__(
        self,
        host: Host,
        export: LocalMount,
        lease_term: float = DEFAULT_LEASE_TERM,
        write_slack: float = DEFAULT_WRITE_SLACK,
    ):
        self._leases: Dict[Hashable, _LeaseEntry] = {}
        self.lease_term = lease_term
        self.write_slack = write_slack
        # recovery by expiry: after a reboot, no new lease may be
        # granted until every lease the pre-crash server could have
        # issued has lapsed (plus write_slack for delayed-data flushes)
        self.boot_epoch = 1
        self._recovering_until = 0.0
        super().__init__(host, export)

    def _register(self) -> None:
        super()._register()
        self.host.rpc.register(self.PROC.OPEN, self.proc_open)

    # -- crash recovery: by expiry, not by reassertion ---------------------

    @property
    def in_recovery(self) -> bool:
        return self.sim.now < self._recovering_until

    def on_server_crash(self) -> None:
        """The lease table is volatile — and that is the whole design:
        nothing needs rebuilding, because every entry was going to
        expire anyway."""
        self._leases.clear()

    def on_server_reboot(self) -> None:
        self.boot_epoch += 1
        # the youngest lease the dead server could have granted was
        # issued an instant before the crash, so every pre-crash lease
        # has lapsed ``lease_term`` after *reboot*; write_slack on top
        # lets pre-crash write-lease holders land their delayed data
        # before anyone else can open the files
        self._recovering_until = self.sim.now + self.lease_term + self.write_slack
        if self.sim.probe is not None:
            self.sim.probe.mark(
                "lease.recovery", "lease", self.host.name,
                epoch=self.boot_epoch, until=self._recovering_until,
            )

    def _check_recovering(self) -> None:
        """No new leases while pre-crash leases may still be live.

        Only lease *grants* are fenced: data, attribute, and namespace
        traffic stays up, which is exactly NQNFS's write_slack — a
        pre-crash write-lease holder can flush its delayed data during
        the window, and a pre-crash read-lease holder can fill cache
        misses, while nobody new can acquire a conflicting claim.
        """
        if self.in_recovery:
            raise self._recovering(self._recovering_until - self.sim.now)

    def _entry(self, key: Hashable) -> _LeaseEntry:
        entry = self._leases.get(key)
        if entry is None:
            version = self.next_version()
            entry = _LeaseEntry(version=version, prev_version=version)
            self._leases[key] = entry
        return entry

    def _write_lease_valid(self, entry: _LeaseEntry) -> bool:
        return bool(entry.write_holder) and self.sim.now < entry.write_expiry

    # -- lease granting ------------------------------------------------------

    def proc_open(self, src, fh: FileHandle, write: bool):
        """Grant a lease, recalling conflicting holders first.

        Returns ``(expiry, version, prev_version, attr)``.
        """
        self._check_recovering()
        inum = self.lfs.resolve(fh)
        key = fh.key()
        lock = self._lock_for(key)  # serialize opens per file
        yield lock.acquire()
        try:
            entry = self._entry(key)
            now = self.sim.now
            if write:
                # exclusivity: valid readers must stop caching; a lapsed
                # read lease needs no callback (the NQNFS economy)
                for reader in sorted(entry.read_holders):
                    if reader != src and now < entry.read_holders[reader]:
                        yield from self._vacate(
                            reader, fh, writeback=False, invalidate=True
                        )
                    entry.read_holders.pop(reader, None)
                if entry.write_holder and entry.write_holder != src:
                    # even a lapsed write lease is recalled: the holder
                    # may have delayed writes worth saving
                    yield from self._vacate(
                        entry.write_holder, fh, writeback=True, invalidate=True
                    )
                # §3.1 versioning: bump per open-for-write so returning
                # readers revalidate; the writer itself stays valid
                # across its own reopen via prev_version
                entry.prev_version = entry.version
                entry.version = self.next_version()
                entry.last_writer = src
                entry.write_holder = src
                entry.write_expiry = now + self.lease_term
                expiry = entry.write_expiry
            else:
                if entry.write_holder and entry.write_holder != src:
                    # recall the writer's delayed data (even if its lease
                    # lapsed — the data is still worth saving); it keeps
                    # its cache and is downgraded to a read lease
                    ok = yield from self._vacate(
                        entry.write_holder, fh, writeback=True,
                        invalidate=False,
                    )
                    if ok:
                        entry.read_holders[entry.write_holder] = (
                            entry.write_expiry
                        )
                    entry.write_holder = ""
                    entry.write_expiry = 0.0
                entry.read_holders[src] = now + self.lease_term
                expiry = entry.read_holders[src]
            return expiry, entry.version, entry.prev_version, self.lfs._attr(inum)
        finally:
            lock.release()

    # -- renewal piggybacked on getattr --------------------------------------

    def proc_getattr(self, src, fh: FileHandle):
        """Attributes plus lease renewal: ``(attr, expiry, version)``.

        ``expiry`` is None when the caller holds no renewable lease
        (none at all, or a conflicting writer exists) — the client
        must then do a full ``lease.open``.
        """
        attr = yield from super().proc_getattr(src, fh)
        entry = self._leases.get(fh.key())
        if entry is None:
            return attr, None, 0
        now = self.sim.now
        expiry = None
        if entry.write_holder == src:
            entry.write_expiry = now + self.lease_term
            expiry = entry.write_expiry
        elif src in entry.read_holders and not (
            entry.write_holder and entry.write_holder != src
        ):
            entry.read_holders[src] = now + self.lease_term
            expiry = entry.read_holders[src]
        return attr, expiry, entry.version

    # -- recall --------------------------------------------------------------

    def _vacate(self, client: str, fh: FileHandle, writeback: bool, invalidate: bool):
        try:
            yield from self.host.rpc.call(
                client,
                self.PROC.VACATE,
                fh,
                writeback,
                invalidate,
                timeout=VACATE_TIMEOUT,
                max_retries=2,
            )
            return True
        except RpcError:
            return False  # dead holder: its lease is forfeit

    # -- bookkeeping on deletion ---------------------------------------------

    def proc_remove(self, src, dirfh: FileHandle, name: str):
        from ..fs import NoSuchFile

        dirg = self._gnode(dirfh)
        try:
            inum = yield from self.lfs.lookup(dirg.fid, name)
            key = self.lfs.handle(inum).key()
        except NoSuchFile:
            key = None
        result = yield from super().proc_remove(src, dirfh, name)
        if key is not None:
            self._leases.pop(key, None)
            self._file_locks.pop(key, None)
        return result

    # -- observability -------------------------------------------------------

    def lease_count(self) -> int:
        """Live (unexpired) leases — the server's bounded state."""
        now = self.sim.now
        count = 0
        for entry in self._leases.values():
            count += sum(1 for exp in entry.read_holders.values() if now < exp)
            if self._write_lease_valid(entry):
                count += 1
        return count
