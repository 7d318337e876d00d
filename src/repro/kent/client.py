"""The block-token client (Kent's scheme, §2.5).

Every cached block is covered by a token: shared for clean read
copies, exclusive for delayed-write dirty ones.  Tokens are cached
until the server revokes them, so repeated access to "my" blocks costs
nothing — even while another client is actively writing *other* blocks
of the same file, the case where SNFS turns caching off entirely.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from ..fs import NoSuchFile, StaleHandle
from ..fs.types import FileAttr, FileHandle, OpenMode
from ..host import Host
from ..proto import ConsistencyPolicy, RemoteFsClient, RemoteFsConfig
from ..vfs import Gnode, block_range, merge_block
from .server import KPROC

__all__ = ["KentClient", "KentPolicy", "mount_kent"]


class KentPolicy(ConsistencyPolicy):
    """Per-block MSI ownership: consistency one block at a time."""

    def __init__(self, client):
        super().__init__(client)
        # (file key, bno) -> "shared" | "exclusive"
        self._tokens: Dict[Tuple[Hashable, int], str] = {}

    def push_procs(self):
        return {KPROC.REVOKE: "serve_revoke"}

    def serve_revoke(self, fh: FileHandle, bno: int, invalidate: bool):
        """Write the block back if dirty; drop it (and the token) if
        the server demands invalidation, else downgrade to shared."""
        c = self.client
        g = c._gnodes.get(fh.key())
        key = (fh.key(), bno)
        if g is not None:
            buf = c.cache.lookup(g.cache_key, bno)
            if buf is not None and buf.dirty and not buf.busy:
                stamp = c.cache.flush_begin(buf)
                ok = False
                try:
                    yield from self.write_rpc(g, bno, bytes(buf.data))
                    ok = True
                finally:
                    c.cache.flush_end(buf, stamp, clean=ok)
            if invalidate and buf is not None:
                c.cache.discard(g.cache_key, bno)
        if invalidate:
            self._tokens.pop(key, None)
        elif self._tokens.get(key) == "exclusive":
            self._tokens[key] = "shared"
        return None

    # -- attribute handling ------------------------------------------------

    def store_attr(self, g: Gnode, attr: FileAttr) -> None:
        """Never mtime-invalidate: consistency comes from block tokens,
        and our delayed writes keep the local view ahead of the server's
        (same reasoning as the SNFS policy)."""
        c = self.client
        local = g.private.get("attr")
        if local is not None and c.cache.dirty_buffers(file_key=g.cache_key):
            attr = attr.copy()
            attr.size = max(attr.size, local.size)
            attr.mtime = max(attr.mtime, local.mtime)
        g.private["attr"] = attr
        g.private["attr_time"] = c.sim.now
        g.private["known_mtime"] = attr.mtime

    # -- token acquisition -------------------------------------------------

    def _ensure_token(self, g: Gnode, bno: int, write: bool):
        """Coroutine: hold a sufficient token; returns the block bytes
        when the grant carried them (fresh acquisition), else None."""
        c = self.client
        key = (g._fid_key(), bno)
        have = self._tokens.get(key)
        if have == "exclusive" or (have == "shared" and not write):
            return None
        data, attr = yield from c._call(c.PROC.ACQUIRE, g.fid, bno, write)
        self._tokens[key] = "exclusive" if write else "shared"
        self.store_attr(g, attr)
        return data

    # -- open / close: nothing on the wire ---------------------------------

    def on_open(self, g: Gnode, mode: OpenMode):
        return
        yield  # pragma: no cover

    def on_close(self, g: Gnode, mode: OpenMode):
        return
        yield  # pragma: no cover

    # -- data: token-protected cached blocks -------------------------------

    def on_read(self, g: Gnode, offset: int, count: int):
        c = self.client
        # acquire the first block's token *before* trusting attributes:
        # the grant revokes any writer (forcing its write-back) and
        # carries post-revocation attributes, so the size we clamp by
        # reflects that writer's delayed data
        first_grant = yield from self._ensure_token(
            g, offset // c.block_size, write=False
        )
        attr = yield from self.on_getattr(g)
        if offset >= attr.size:
            return b""
        count = min(count, attr.size - offset)
        chunks = []
        blocks = list(block_range(offset, count, c.block_size))
        for bno in blocks:
            if bno == blocks[0] and first_grant is not None:
                data = first_grant
            else:
                data = yield from self._ensure_token(g, bno, write=False)
            buf = c.cache.lookup(g.cache_key, bno)
            if buf is None:
                if data is None:
                    # token was cached but the block was evicted
                    data, attr2 = yield from c._call(
                        c.PROC.READ, g.fid, bno * c.block_size,
                        c.block_size,
                    )
                buf = yield from c.cache.insert(g.cache_key, bno, data)
            block = buf.data
            needed = min(c.block_size, attr.size - bno * c.block_size)
            if len(block) < needed:
                block = block + b"\x00" * (needed - len(block))
            chunks.append(block)
        whole = b"".join(chunks)
        skip = offset - blocks[0] * c.block_size
        return whole[skip:skip + count]

    def on_write(self, g: Gnode, offset: int, data: bytes):
        c = self.client
        attr = c._local_attr(g)
        pos = 0
        for bno in block_range(offset, len(data), c.block_size):
            granted = yield from self._ensure_token(g, bno, write=True)
            block_start = bno * c.block_size
            start = max(offset - block_start, 0)
            end = min(offset + len(data) - block_start, c.block_size)
            piece = data[pos:pos + (end - start)]
            pos += len(piece)
            buf = c.cache.lookup(g.cache_key, bno)
            if buf is None:
                old = granted if granted is not None else b""
                merged = merge_block(old, start, piece)
                buf = yield from c.cache.insert(
                    g.cache_key, bno, merged, dirty=True
                )
            else:
                buf.data = merge_block(buf.data, start, piece)
                c.cache.mark_dirty(buf)
            buf.tag = g
        c.bump_local_attr(g, offset + len(data), attr)

    def on_getattr(self, g: Gnode):
        """Attributes: trust the local view while we hold dirty blocks;
        else fall back to the probe machinery."""
        c = self.client
        attr = g.private.get("attr")
        if attr is not None and c.cache.dirty_buffers(file_key=g.cache_key):
            return attr
        attr = yield from c._probe(g)
        return attr

    def before_remove(self, g: Gnode):
        # release our tokens and cancel delayed writes: block ownership
        # makes delete-before-writeback safe here too
        c = self.client
        c.cache.cancel_dirty_file(g.cache_key)
        for key in [k for k in self._tokens if k[0] == g._fid_key()]:
            del self._tokens[key]
        return
        yield  # pragma: no cover

    def write_rpc(self, g: Gnode, bno: int, data: bytes):
        c = self.client
        try:
            attr = yield from c._call(
                c.PROC.WRITE, g.fid, bno * c.block_size, data
            )
        except (StaleHandle, NoSuchFile):
            return
        # an eviction write-back mid-file carries a server size short of
        # ours while later dirty blocks remain: keep the local size
        self.store_attr(g, attr)


class KentClient(RemoteFsClient):
    """A remote mount with per-block ownership tokens."""

    PROC = KPROC
    policy_class = KentPolicy

    @classmethod
    def default_config(cls) -> RemoteFsConfig:
        # the invalidate-on-close bug is an Ultrix NFS artifact; token
        # consistency keeps the cache across closes
        return RemoteFsConfig(invalidate_on_close=False)

    @property
    def _tokens(self):
        return self.policy._tokens


def mount_kent(host: Host, server_addr: str, mount_point: str, mount_id=None):
    """Coroutine: create, attach, and mount a Kent-scheme filesystem."""
    mount_id = mount_id or "kent:%s:%s%s" % (host.name, server_addr, mount_point)
    client = KentClient(mount_id, host, server_addr)
    yield from client.attach()
    host.kernel.mount(mount_point, client)
    return client
