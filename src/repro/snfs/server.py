"""The SNFS server: NFS service + state table + callbacks (§3, §4.3).

Extends the stateless NFS server with:

* ``open``/``close`` services that drive the state table and return
  cachability decisions and version numbers;
* the callback engine — server→client RPCs executed *before* an open
  completes, with the N−1 thread rule ("If there are N threads, only
  N−1 may be doing callbacks simultaneously, so that at least one
  thread can service the write-backs", §3.2);
* state-table entry reclamation via write-back callbacks when the
  table fills (§4.3.1);
* dead-client handling: if a callback target does not respond, the
  open is honoured but the new client is told the file may be
  inconsistent (§3.2).

Per-file opens/closes are serialized with a per-file lock so that
concurrent opens observe a consistent table.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from ..fs import NoSuchFile, StaleHandle
from ..fs.types import FileHandle
from ..host import Host
from ..net import RpcError, RpcTimeout
from ..proto import RemoteFsServer
from ..sim import Interrupt, Resource
from ..vfs import LocalMount
from .protocol import SPROC
from .recovery import DEFAULT_GRACE_PERIOD
from .state_table import Callback, FileState, StateTable, StateTableFull

__all__ = ["SnfsServer", "OpenReply"]

#: how long the server waits for one callback before declaring the
#: client dead (generous: the client may be writing back many blocks)
CALLBACK_TIMEOUT = 15.0


class OpenReply(tuple):
    """(cache_enabled, version, prev_version, attr, inconsistent)."""

    __slots__ = ()

    def __new__(cls, cache_enabled, version, prev_version, attr, inconsistent=False):
        return super().__new__(
            cls, (cache_enabled, version, prev_version, attr, inconsistent)
        )

    cache_enabled = property(lambda self: self[0])
    version = property(lambda self: self[1])
    prev_version = property(lambda self: self[2])
    attr = property(lambda self: self[3])
    inconsistent = property(lambda self: self[4])


class SnfsServer(RemoteFsServer):
    """SNFS service for one exported filesystem."""

    PROC = SPROC

    def __init__(
        self,
        host: Host,
        export: LocalMount,
        max_open_files: int = 1000,
        grace_period: float = DEFAULT_GRACE_PERIOD,
        keepalive_interval: float = 0.0,
        dead_client_timeout: float = 45.0,
    ):
        self.state = StateTable(max_entries=max_open_files)
        # §7 extension: which clients have resolved names in each
        # directory (they may cache those translations; namespace
        # mutations invalidate them by callback)
        self._dir_interest: Dict[Hashable, set] = {}
        # N-1 rule: one server thread must stay free for write-backs
        n_threads = host.config.rpc_server_threads
        self._callback_slots = Resource(
            host.sim, capacity=max(1, n_threads - 1), name="callback-slots"
        )
        # crash recovery (§2.4)
        self.grace_period = grace_period
        self.boot_epoch = 1
        self._recovery_until = 0.0
        self._reasserted: set = set()  # clients that reopened this epoch
        # dead-client sweep (mirrors lockd's keepalive): opt-in, since
        # the probe loop is a perpetual daemon and would keep a bare
        # ``sim.run()`` from ever terminating
        self.keepalive_interval = keepalive_interval
        self.dead_client_timeout = dead_client_timeout
        self._last_heard: Dict[str, float] = {}
        self._keepalive_proc = None
        super().__init__(host, export)
        # SimTSan: every table mutation is reported as a write to the
        # per-file shared structure, so an unserialized mutation during
        # another open's callback wait is flagged as a race
        self.state.observer = self._observe_table
        host.rpc.serve_listeners.append(self._note_client_traffic)
        if keepalive_interval > 0:
            self.start_keepalive()

    def _observe_table(self, event, key, client, before, after) -> None:
        if self.sim.probe is not None:
            self.sim.probe.table_transition(self.host.name, event, key, client, before, after)

    def _register(self) -> None:
        super()._register()
        rpc = self.host.rpc
        rpc.register(self.PROC.OPEN, self.proc_open)
        rpc.register(self.PROC.CLOSE, self.proc_close)
        rpc.register(self.PROC.PING, self.proc_ping)
        rpc.register(self.PROC.REOPEN, self.proc_reopen)

    # -- recovery (§2.4) -----------------------------------------------------

    @property
    def in_recovery(self) -> bool:
        return self.sim.now < self._recovery_until

    def _check_available(self, src: str) -> None:
        """Property 2: state may not change until the server allows it.

        During the grace period every state-changing or data call is
        rejected; clients reassert via ``reopen`` and retry after the
        window closes.
        """
        if self.in_recovery:
            raise self._recovering(self._recovery_until - self.sim.now)
        # after the grace period, a client we have never heard from this
        # epoch must still reassert before touching state: its claims
        # are validated individually (and possibly rejected) rather
        # than silently accepted against the rebuilt table
        if self.boot_epoch > 1 and src not in self._reasserted:
            raise self._recovering(0.0)

    def proc_ping(self, src):
        """Keepalive: returns the boot epoch so clients detect reboots."""
        return self.boot_epoch
        yield  # pragma: no cover

    def proc_reopen(self, src, report):
        """Bulk state reassertion from one client: property 1.

        Returns ``(boot_epoch, rejected_handles)``.  During the grace
        period every claim on a live file is accepted (the combined
        reports *are* the truth).  After it, a late-arriving client's
        claims are checked against the state rebuilt without it: a
        claim loses if the file's version moved on or other clients
        hold it open against a writer's claim.  Rejected handles tell
        the client its cached copy (including dirty delayed writes)
        must be discarded, not pushed over newer data.
        """
        rejected = []
        for fh, readers, writers, version, dirty in report:
            try:
                self.lfs.resolve(fh)
            except StaleHandle:
                rejected.append(fh)  # the file vanished; drop the claim
                continue
            key = fh.key()
            # a late (post-grace) reopen can race an in-flight open that
            # is mid-callback for the same file: take the per-file lock
            # so the claim is validated against settled state
            lock = self._lock_for(key)
            yield lock.acquire()
            try:
                if not self.in_recovery and self._claim_conflicts(
                    key, src, version, writers, dirty
                ):
                    rejected.append(fh)
                    continue
                self.state.rebuild_entry(
                    key,
                    src,
                    readers=readers,
                    writers=writers,
                    version=version,
                    dirty=dirty,
                )
            finally:
                lock.release()
        if self.sim.probe is not None and src not in self._reasserted:
            # recovery time as the clients experience it: how long
            # after the reboot each client got its state reasserted
            self.sim.probe.observe(
                "recovery.reassert_delay",
                self.sim.now - (self._recovery_until - self.grace_period),
                server=self.host.name, proto="snfs",
            )
        self._reasserted.add(src)
        self._last_heard[src] = self.sim.now
        return (self.boot_epoch, rejected)

    def _claim_conflicts(self, key, src, version, writers, dirty) -> bool:
        """Would accepting this post-grace claim clobber newer state?"""
        entry = self.state.entry(key)
        current = (
            entry.version if entry is not None else self.state.remembered_version(key)
        )
        if current is not None and version < current:
            return True  # the file was opened for write since: stale claim
        if entry is not None and (writers or dirty):
            others = [c for c in entry.open_clients() if c != src]
            if others or (entry.last_writer not in (None, src)):
                return True
        return False

    def crash(self) -> None:
        """Power-fail the server host; the state table is volatile."""
        self.host.crash()

    def reboot(self) -> None:
        """Restart: begin the recovery grace period."""
        self.host.reboot()

    def on_server_crash(self) -> None:
        """Volatile server state (the table) is lost in a crash."""
        self.state.clear()
        self._dir_interest.clear()
        self.stop_keepalive()

    def on_server_reboot(self) -> None:
        self.boot_epoch += 1
        self._reasserted = set()
        self._last_heard.clear()
        self._recovery_until = self.sim.now + self.grace_period
        # version numbers carry the boot epoch in their high bits: a
        # freshly minted version must order after every version any
        # client could still hold from an earlier epoch, or a stale
        # post-grace claim could pass the version conflict check
        self.state.advance_versions(self.boot_epoch << 32)
        if self.keepalive_interval > 0:
            self.start_keepalive()

    # -- dead-client keepalive sweep ---------------------------------------

    def start_keepalive(self) -> None:
        """Begin periodic probing of clients that hold open state."""
        if self.keepalive_interval <= 0:
            raise ValueError("keepalive_interval must be positive")
        if self._keepalive_proc is not None and self._keepalive_proc.is_alive:
            return
        self._keepalive_proc = self.sim.spawn(
            self._keepalive_loop(), name="snfs-keepalive:%s" % self.host.name
        )

    def stop_keepalive(self) -> None:
        if self._keepalive_proc is not None and self._keepalive_proc.is_alive:
            self._keepalive_proc.interrupt("stopped")
        self._keepalive_proc = None

    def _note_client_traffic(self, proc, src, args, result, error, now) -> None:
        """Any executed request from a client counts as a liveness proof."""
        if src != self.host.name:
            self._last_heard[src] = now

    def _keepalive_loop(self):
        """Like ``lockd``'s: probe clients holding state; reap the dead.

        A client that crashes and never reboots would otherwise pin
        its state-table entries (and block other clients' opens on
        write-back callbacks that can never succeed) forever.
        """
        while True:
            try:
                yield self.sim.timeout(self.keepalive_interval)
            except Interrupt:
                return
            if self.in_recovery:
                continue  # clients are busy reasserting; don't probe
            try:
                yield from self._sweep_dead_clients()
            except Interrupt:
                return

    def _sweep_dead_clients(self):
        holders: set = set()
        for entry in self.state.entries():
            holders.update(entry.open_clients())
            if entry.last_writer is not None:
                holders.add(entry.last_writer)
        now = self.sim.now
        for client in sorted(holders):
            heard = self._last_heard.get(client)
            if heard is not None and now - heard < self.dead_client_timeout:
                continue
            try:
                yield from self.host.rpc.call(
                    client,
                    self.PROC.KEEPALIVE,
                    timeout=CALLBACK_TIMEOUT,
                    max_retries=1,
                )
                self._last_heard[client] = self.sim.now  # lint: ok=ATOM001 — freshness note; concurrent note-heard paths only move it forward
            except (RpcTimeout, RpcError):
                # the probe raced real traffic: if the client was heard
                # from while the keepalive was in flight it is alive,
                # and dropping it would destroy live open state
                if self._last_heard.get(client) != heard:
                    continue
                yield from self._drop_dead_client(client)

    def _drop_dead_client(self, client: str):
        """Coroutine: reclaim all state a dead client holds (open files,
        dirty claims, directory interest, recovery standing).

        Each file's claim is dropped under that file's lock: the sweep
        must not mutate an entry while an open for the same file is
        mid-callback (the sanitizer flags that interleaving as a race).
        """
        keys = [
            e.key
            for e in self.state.entries()
            if client in e.clients or e.last_writer == client
        ]
        for key in keys:
            lock = self._lock_for(key)
            yield lock.acquire()
            try:
                self.state.drop_client(key, client)
            finally:
                lock.release()
        for interested in self._dir_interest.values():
            interested.discard(client)
        self._reasserted.discard(client)
        self._last_heard.pop(client, None)

    # -- open / close services --------------------------------------------

    def _state_region(self, key: Hashable, label: str):
        if self.sim.probe is None:
            return None
        return self.sim.probe.region_begin("snfs-state", key, label, wrote=False)

    def proc_open(self, src, fh: FileHandle, write: bool):
        """The SNFS open RPC (§3.1)."""
        self._check_available(src)
        inum = self.lfs.resolve(fh)  # raises StaleHandle for dead handles
        key = fh.key()
        region = self._state_region(key, "open:%s" % src)
        try:
            lock = self._lock_for(key)
            yield lock.acquire()
            try:
                grant, callbacks = yield from self._open_locked(key, src, write)
                inconsistent = yield from self._run_callbacks(fh, callbacks)
                attr = self.lfs._attr(inum)
                return OpenReply(
                    grant.cache_enabled,
                    grant.version,
                    grant.prev_version,
                    attr,
                    inconsistent,
                )
            finally:
                lock.release()
        finally:
            if region is not None:
                self.sim.probe.region_end(region)

    def _open_locked(self, key, src, write):
        while True:
            try:
                return self.state.open_file(key, src, write)
            except StateTableFull:
                reclaimed = yield from self._reclaim_entries()
                if not reclaimed:
                    raise

    def _reclaim_entries(self, want: int = 8):
        """Free CLOSED_DIRTY entries by calling back their last writers."""
        pairs = self.state.reclaim_callbacks(want=want)
        if pairs and self.sim.probe is not None:
            self.sim.probe.mark("snfs.reclaim", "snfs", self.host.name, entries=len(pairs))
        dropped = 0
        for key, cb in pairs:
            fh = self._fh_for_key(key)
            if fh is not None:
                yield from self._callback(fh, cb)
            # the entry was CLOSED_DIRTY when selected, but the file may
            # have been reopened while the write-back callback was in
            # flight; dropping it then would destroy live open state
            if self.state.state_of(key) in (
                FileState.CLOSED,
                FileState.CLOSED_DIRTY,
            ):
                self.state.drop(key)  # lint: ok=ATOM001 — guarded by the state recheck above; a reopen during the callback leaves the entry open and skips the drop
                dropped += 1
        return dropped

    def _fh_for_key(self, key) -> Optional[FileHandle]:
        fsid, inum, generation = key
        fh = FileHandle(fsid, inum, generation)
        try:
            self.lfs.resolve(fh)
        except StaleHandle:
            return None
        return fh

    def proc_close(self, src, fh: FileHandle, write: bool):
        """The SNFS close RPC: 'does nothing but notify the state table
        manager' (§4.3.1)."""
        self._check_available(src)
        key = fh.key()
        region = self._state_region(key, "close:%s" % src)
        try:
            lock = self._lock_for(key)
            yield lock.acquire()
            try:
                self.state.close_file(key, src, write)
            finally:
                lock.release()
        finally:
            if region is not None:
                self.sim.probe.region_end(region)
        return None

    # -- callbacks ---------------------------------------------------------

    def _run_callbacks(self, fh: FileHandle, callbacks: List[Callback]):
        """Execute callbacks before the open completes; returns True if
        any target client appeared dead (the file may be inconsistent)."""
        inconsistent = False
        for cb in callbacks:
            ok = yield from self._callback(fh, cb)
            if not ok:
                inconsistent = True
        return inconsistent

    def _callback(self, fh: FileHandle, cb: Callback):
        """One server->client callback RPC, honouring the N-1 rule."""
        yield self._callback_slots.acquire()
        probe = self.sim.probe
        span = None
        if probe is not None:
            span = probe.span_begin(
                "snfs.callback", "snfs", self.host.name,
                client=cb.client, writeback=cb.writeback, invalidate=cb.invalidate,
            )
        try:
            yield from self.host.rpc.call(
                cb.client,
                self.PROC.CALLBACK,
                fh,
                cb.writeback,
                cb.invalidate,
                timeout=CALLBACK_TIMEOUT,
                max_retries=2,
            )
            return True
        except (RpcTimeout, RpcError):
            # the client is down: honour the open anyway (§3.2); its
            # claim on the file is forgotten
            if probe is not None:
                probe.mark("snfs.callback.dead", "snfs", self.host.name, client=cb.client)
            self.state.drop_client(fh.key(), cb.client)
            return False
        finally:
            if span is not None:
                probe.span_end(span)
            self._callback_slots.release()

    # -- consistent directory caching (§7 extension) -----------------------

    def proc_lookup(self, src, dirfh: FileHandle, name: str):
        """Record the caller's interest in the directory's namespace."""
        result = yield from super().proc_lookup(src, dirfh, name)
        self._dir_interest.setdefault(dirfh.key(), set()).add(src)
        return result

    def _invalidate_dir_names(self, src, dirfh: FileHandle):
        """Namespace mutation: call back every other interested client
        so its cached name translations are dropped."""
        interested = self._dir_interest.get(dirfh.key())
        if not interested:
            return
        for client in sorted(interested - {src}):
            yield self._callback_slots.acquire()
            try:
                yield from self.host.rpc.call(
                    client,
                    self.PROC.CALLBACK,
                    dirfh,
                    False,  # writeback
                    False,  # invalidate data
                    True,  # invalidate cached names
                    timeout=CALLBACK_TIMEOUT,
                    max_retries=2,
                )
            except (RpcTimeout, RpcError):
                interested.discard(client)  # dead client: forget it
            finally:
                self._callback_slots.release()

    def proc_create(self, src, dirfh: FileHandle, name: str, mode: int = 0o644):
        result = yield from super().proc_create(src, dirfh, name, mode)
        yield from self._invalidate_dir_names(src, dirfh)
        return result

    def proc_mkdir(self, src, dirfh: FileHandle, name: str, mode: int = 0o755):
        result = yield from super().proc_mkdir(src, dirfh, name, mode)
        yield from self._invalidate_dir_names(src, dirfh)
        return result

    def proc_rmdir(self, src, dirfh: FileHandle, name: str):
        result = yield from super().proc_rmdir(src, dirfh, name)
        yield from self._invalidate_dir_names(src, dirfh)
        return result

    # -- namespace overrides: deletions clear consistency state -----------

    def proc_remove(self, src, dirfh: FileHandle, name: str):
        dirg = self._gnode(dirfh)
        try:
            inum = yield from self.lfs.lookup(dirg.fid, name)
            key = self.lfs.handle(inum).key()
        except NoSuchFile:
            key = None
        result = yield from super().proc_remove(src, dirfh, name)
        if key is not None:
            self.state.note_file_removed(key)
            self._file_locks.pop(key, None)
        yield from self._invalidate_dir_names(src, dirfh)
        return result

    def proc_rename(self, src, sdirfh, sname, ddirfh, dname):
        # a rename that replaces a file destroys the replaced file
        ddirg = self._gnode(ddirfh)
        try:
            inum = yield from self.lfs.lookup(ddirg.fid, dname)
            key = self.lfs.handle(inum).key()
        except NoSuchFile:
            key = None
        result = yield from super().proc_rename(src, sdirfh, sname, ddirfh, dname)
        if key is not None:
            self.state.note_file_removed(key)
            self._file_locks.pop(key, None)
        yield from self._invalidate_dir_names(src, sdirfh)
        if ddirfh.key() != sdirfh.key():
            yield from self._invalidate_dir_names(src, ddirfh)
        return result
