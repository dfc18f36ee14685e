"""Device trust store: device id -> public key + trusted/revoked status.

File format (``registry.rsr``): UTF-8 lines ``device_id SP status SP
pubkey_hex`` with LF endings; lines starting with '#' and blank lines are
ignored on load. Device ids are unique: a Registry indexes its entries by id
once, at construction, and refuses a repeated id. save() emits the canonical
form (entries only), so load/save round-trips canonical files byte-identically.

load_registry() checks the whole file at C speed before it builds any
entry. A file with no '#' is checked as it is; any other, or one that fails,
is checked again with its comment and blank lines dropped (split on LF only,
so no U+2028 or U+0085 ends a comment). Once bytes.translate has deleted the
id charset, what is checked must read two spaces per line, LF-separated, with
a final LF only where the file has one; any other byte, non-ASCII ones too,
is kept and refuses the file. The two spaces fix three slots on each line, so
when str.split() gives three fields per line, no slot is empty. Then each
column is checked: ids are at most 64 characters, keys are 64 lowercase hex
(over chunks of joined keys) and none is a small-order point, and each
status is trusted or revoked. This accepts exactly the files whose every
line is an entry, a comment or blank. The entries are then built without
checking each field again, with the cyclic garbage collector paused. By then
the decoded text and its split list are gone, and no copy of the file is
held: the load peaks near the size of the registry it returns. A file that
does not check, or that repeats an id, is decoded again and walked line by
line: each entry line gets RegistryEntry's own field checks, then the check
for a repeated id, and the first that fails is named with its line number.
"""

from __future__ import annotations

import gc
import re
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat

from .errors import RegistryError
from .manifest import _HEX64_RE, _HEX_CLASS, _ID_CLASS, _ID_MAX, DEVICE_ID_RE, _require_bytes

TRUSTED = "trusted"
REVOKED = "revoked"
# One string object per status, shared by every loaded entry.
_STATUSES = {TRUSTED: TRUSTED, REVOKED: REVOKED}

# The 14 encodings of the eight points of order dividing 8: seven y values
# (p, p + 1 and p - 1 among them), each with either sign bit. cryptography
# accepts them, and under each a signature of R = identity, S = 0 verifies for
# a share of all messages (every message under the identity), so such a key
# proves nothing, and no seal under it could ever verify. libsodium refuses
# the same list; so do RegistryEntry, load_registry and sealing.verify_data.
_SMALL_ORDER_HEX = frozenset((
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "0100000000000000000000000000000000000000000000000000000000000000",
    "0100000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
))
_SMALL_ORDER_KEYS = frozenset(map(bytes.fromhex, _SMALL_ORDER_HEX))
# The ASCII characters of _ID_CLASS and _HEX_CLASS, the byte tables that
# bytes.translate deletes; the statuses and hex keys are drawn from the id
# charset too.
_ID_CHARS, _HEX_CHARS = (b"".join(re.findall(char_class.encode(), bytes(range(128))))
                         for char_class in (_ID_CLASS, _HEX_CLASS))
# Keys joined per hex check: ~256 KiB, so no temporary is the size of the file.
_KEY_CHUNK = 4096


# slots: no __dict__ per entry, ~45 B less each in a 10^5-device registry
@dataclass(frozen=True, slots=True)
class RegistryEntry:
    device_id: str
    status: str
    public_key_hex: str

    def __post_init__(self) -> None:
        for name in ("device_id", "status", "public_key_hex"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise RegistryError(f"{name} must be str, not {type(value).__name__}")
        if not DEVICE_ID_RE.match(self.device_id):
            raise RegistryError(f"bad device id {self.device_id!r}")
        if self.status not in _STATUSES:
            raise RegistryError(f"bad status {self.status!r}")
        if not _HEX64_RE.match(self.public_key_hex):
            raise RegistryError("public key must be 64 lowercase hex chars")
        if self.public_key_hex in _SMALL_ORDER_HEX:
            raise RegistryError("public key is a small-order point")


def _unchecked_entries(ids: list[str], statuses: list[str],
                       keys: list[str]) -> list[RegistryEntry]:
    """Entries of fields load_registry() has already checked, column by column.

    Sets the three slots of each entry with one C-level pass per slot instead
    of running __init__ and __post_init__, which would add ~0.25-0.4 s to the
    load of 10^5 entries. load_registry() calls it with the collector paused.
    """
    entries = list(map(object.__new__, repeat(RegistryEntry, len(ids))))
    for slot, values in ((RegistryEntry.device_id, ids), (RegistryEntry.status, statuses),
                         (RegistryEntry.public_key_hex, keys)):
        deque(map(slot.__set__, entries, values), maxlen=0)
    return entries


@dataclass(frozen=True)
class Registry:
    entries: tuple[RegistryEntry, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.entries, Iterable):
            raise RegistryError(f"registry entries must be an iterable of RegistryEntry, "
                                f"not {type(self.entries).__name__}")
        entries = tuple(self.entries)
        if not all(map(isinstance, entries, repeat(RegistryEntry))):
            bad = next(e for e in entries if not isinstance(e, RegistryEntry))
            raise RegistryError(
                f"registry entries must be RegistryEntry, not {type(bad).__name__}")
        by_id = {e.device_id: e for e in entries}
        if len(by_id) < len(entries):
            seen = set()
            for e in entries:
                if e.device_id in seen:
                    raise RegistryError(f"duplicate device id {e.device_id!r}")
                seen.add(e.device_id)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "entries", entries)


def lookup(registry: Registry, device_id: str) -> RegistryEntry | None:
    """Exact, case-sensitive lookup."""
    return registry._by_id.get(device_id)


def revoke(registry: Registry, device_id: str) -> Registry:
    """Return a copy with the device blacklisted; idempotent."""
    if lookup(registry, device_id) is None:
        raise RegistryError(f"unknown device id {device_id!r}")
    return Registry(tuple(
        RegistryEntry(e.device_id, REVOKED, e.public_key_hex) if e.device_id == device_id else e
        for e in registry.entries))


def add_entry(registry: Registry, entry: RegistryEntry) -> Registry:
    return Registry(registry.entries + (entry,))


def load_registry(data: bytes) -> Registry:
    """Parse registry file bytes; errors carry 1-based line numbers."""
    columns = _checked_columns(data)
    if columns is not None:
        # Entries hold only strings and form no reference cycles, so reference
        # counting frees them and a collection pass over the new objects would
        # find nothing; at 10^5 entries those passes cost ~60-80 ms.
        # Not thread-safe with respect to another thread toggling the
        # collector meanwhile: that change can be undone here.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return Registry(_unchecked_entries(*columns))
        except RegistryError:
            pass  # a repeated id; _first_error names its line
        finally:
            if gc_was_enabled:
                gc.enable()
    raise _first_error(_require_bytes(data, RegistryError, "registry").decode("utf-8"))


def _checked_columns(data: bytes) -> tuple[list[str], list[str], list[str]] | None:
    """The id, status and key columns of a file of well-formed lines, else None.

    Raises RegistryError only for input that is not bytes-like or not UTF-8.
    """
    raw = _require_bytes(data, RegistryError, "registry")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise RegistryError("registry file is not valid UTF-8") from None
    # Any byte but a space, an LF or an id char (non-ASCII ones too) is kept
    # by the translate and spoils the layout, so no isascii() pass is needed.
    rows = -1 if "#" in text else _rows(raw.translate(None, _ID_CHARS), raw.endswith(b"\n"))
    del raw
    if rows < 0:  # comments or blank lines, or a file to refuse: drop them, look again
        text = "\n".join(line for line in text.split("\n") if line and line[0] != "#")
        rows = _rows(text.encode("utf-8").translate(None, _ID_CHARS), False)
        if rows < 0:  # refuse before the split: its token count has no bound
            return None
    fields = text.split()
    # Free the text, then the split list and its one status string per line,
    # before the entries are built: at 10^5 lines they are ~16 MB.
    del text
    if len(fields) != 3 * rows:  # an empty slot
        return None
    ids, keys = fields[0::3], fields[2::3]
    try:
        statuses = list(map(_STATUSES.__getitem__, fields[1::3]))
    except KeyError:
        return None
    del fields
    if max(map(len, ids), default=0) > _ID_MAX or not set(map(len, keys)) <= {64}:
        return None
    for i in range(0, len(keys), _KEY_CHUNK):
        if "".join(keys[i:i + _KEY_CHUNK]).encode("ascii").translate(None, _HEX_CHARS):
            return None
    if not _SMALL_ORDER_HEX.isdisjoint(keys):
        return None
    return ids, statuses, keys


def _rows(layout: bytes, final_lf: bool) -> int:
    """n if layout is n lines of two spaces, with a final LF iff the file has one; else -1.

    The final LF must be the file's own: a last line of id chars alone also
    translates to nothing after an LF.
    """
    n = (len(layout) + 1) // 3
    lines = b"  \n" * n
    return n if layout == (lines if final_lf else lines[:-1]) else -1


def _first_error(text: str) -> RegistryError:
    """The first error of a file load_registry() refuses, with its line number.

    Each entry line, split at most three times (a refused line's token count
    has no bound), gets RegistryEntry's own field checks and then the check
    for a repeated id.
    """
    seen = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line[0] == "#":
            continue
        fields = line.split(" ", 3)
        try:
            if len(fields) != 3:
                raise RegistryError("expected 'device_id status pubkey_hex'")
            RegistryEntry(*fields)
            if fields[0] in seen:
                raise RegistryError(f"duplicate device id {fields[0]!r}")
        except RegistryError as exc:
            return RegistryError(f"line {lineno}: {exc}")
        seen.add(fields[0])


def save_registry(registry: Registry) -> bytes:
    lines = [f"{e.device_id} {e.status} {e.public_key_hex}" for e in registry.entries]
    return ("".join(line + "\n" for line in lines)).encode("utf-8")
