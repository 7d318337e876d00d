"""``estimate_size`` against the reflective walk it replaced.

The wire size of a message is simulated time (transmission delay) and
``net.bytes``; the per-class dispatch in ``repro.net.rpc`` must return
the same integer as the isinstance / ``dataclasses.fields()`` walk below
for everything that can appear in an RPC payload.
"""

import dataclasses
import enum
import importlib
import pkgutil
from collections import deque
from typing import NamedTuple

import pytest

from repro.fs.types import FileAttr, FileHandle, FileType, OpenMode
from repro.net import estimate_size


def reflective_size(obj):
    """The reference: one isinstance chain and a ``fields()`` walk per object."""
    if obj is None:
        return 0
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, dict):
        return sum(reflective_size(k) + reflective_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(reflective_size(item) for item in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            reflective_size(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return 8


# -- every dataclass of the stateful protocols -----------------------------------------

#: sample values for dataclass fields that have no default
REQUIRED = {
    "client": "client07",
    "cache_enabled": True,
    "version": 41,
    "prev_version": 40,
    "key": ("exportfs", 12, 3),
}


def protocol_dataclasses():
    found = []
    for package in ("repro.snfs", "repro.lease", "repro.kent", "repro.lockd"):
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__, package + "."):
            module = importlib.import_module(info.name)
            for obj in vars(module).values():
                if (
                    isinstance(obj, type)
                    and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__
                ):
                    found.append(obj)
    return found


def build(cls):
    """An instance with every container field populated."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            kwargs[f.name] = REQUIRED[f.name]
    obj = cls(**kwargs)
    for f in dataclasses.fields(cls):
        value = getattr(obj, f.name)
        if isinstance(value, set):
            value.update({"client01", "c2"})
        elif isinstance(value, deque):
            value.append(("client01", True))
        elif isinstance(value, dict):
            value["client01"] = 17.5
    return obj


PROTOCOL_DATACLASSES = protocol_dataclasses()


def test_the_protocol_packages_were_actually_searched():
    names = {cls.__name__ for cls in PROTOCOL_DATACLASSES}
    assert {"Callback", "OpenGrant", "FileEntry", "BlockToken"} <= names


@pytest.mark.parametrize("cls", PROTOCOL_DATACLASSES, ids=lambda c: c.__qualname__)
def test_protocol_dataclass_sizes_agree(cls):
    obj = build(cls)
    assert estimate_size(obj) == reflective_size(obj)
    # a second call takes the cached-class path
    assert estimate_size(obj) == reflective_size(obj)
    assert estimate_size(cls) == reflective_size(cls) == 8


# -- the payload types that cross the wire today ------------------------------------


class Color(enum.IntEnum):
    RED = 1


class Perm(enum.IntFlag):
    R = 4
    W = 2


class Tag(str, enum.Enum):
    LONG = "a-long-tag"


class Name(str):
    pass


class Blob(bytes):
    pass


class Pair(NamedTuple):
    fh: FileHandle
    count: int


@dataclasses.dataclass
class Base:
    name: str
    kind: dataclasses.InitVar[int] = 0
    registry = {}  # a class attribute, not a field


class Derived(Base):  # inherits the fields without being decorated itself
    pass


@dataclasses.dataclass
class Nested:
    attr: FileAttr
    handles: list
    extra: dict = dataclasses.field(default_factory=dict)


FH = FileHandle("exportfs", 12, 3)
ATTR = FileAttr(file_id=12, ftype=FileType.REGULAR, size=4096, mtime=17.25)

PAYLOADS = [
    None, True, False, 0, 7, -1, 2.5, Color.RED, Perm.R | Perm.W,
    OpenMode.READ, OpenMode.WRITE, FileType.DIRECTORY, Tag.LONG,
    "", "abc", Name("client"), b"", b"x" * 4096, Blob(b"12345"),
    bytearray(b"abc"), memoryview(b"abcd"),
    FH, ATTR, FileAttr, FileHandle, object(), deque([1, 2]), range(3), 1 + 2j,
    (), [], {}, set(), frozenset(),
    (FH, 0, 4096), (FH, b"data" * 10, OpenMode.WRITE),
    [ATTR, None, (FH, "name")], {"name": FH, 3: [ATTR, ATTR]},
    {FH, "x"}, frozenset({1, "ab"}),
    Pair(FH, 3), Base("n"), Derived("nn"),
    Nested(ATTR, [FH, FH], {"k": (ATTR, b"zz", None)}),
    (ATTR, [("dir", FH, ATTR), ("file", FH, None)]),
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
def test_payload_sizes_agree(payload):
    assert estimate_size(payload) == reflective_size(payload)
    assert estimate_size(payload) == reflective_size(payload)


def test_known_sizes():
    assert estimate_size(FH) == len("exportfs") + 8 + 8
    assert estimate_size(ATTR) == 8 * 8
    assert estimate_size((FH, 0, b"x" * 100)) == 24 + 8 + 100
    assert estimate_size(Tag.LONG) == len("a-long-tag")
    assert estimate_size(FileAttr) == 8
