"""Device trust store: device id -> public key + trusted/revoked status.

File format (``registry.rsr``): UTF-8 lines ``device_id SP status SP
pubkey_hex`` with LF endings; lines starting with '#' and blank lines are
ignored on load. Device ids are unique: a Registry indexes its entries by id
once, at construction, and refuses a repeated id. save() emits the canonical
form (entries only), so load/save round-trips canonical files byte-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import RegistryError
from .manifest import DEVICE_ID_RE

TRUSTED = "trusted"
REVOKED = "revoked"

_PUBKEY_HEX_RE = re.compile(r"^[0-9a-f]{64}\Z")


# slots: no __dict__ per entry, ~45 B less each in a 10^5-device registry
@dataclass(frozen=True, slots=True)
class RegistryEntry:
    device_id: str
    status: str
    public_key_hex: str

    def __post_init__(self) -> None:
        if not DEVICE_ID_RE.match(self.device_id):
            raise RegistryError(f"bad device id {self.device_id!r}")
        if self.status not in (TRUSTED, REVOKED):
            raise RegistryError(f"bad status {self.status!r}")
        if not _PUBKEY_HEX_RE.match(self.public_key_hex):
            raise RegistryError("public key must be 64 lowercase hex chars")


@dataclass(frozen=True)
class Registry:
    entries: tuple[RegistryEntry, ...] = ()

    def __post_init__(self) -> None:
        by_id: dict[str, RegistryEntry] = {}
        for e in self.entries:
            if e.device_id in by_id:
                raise RegistryError(f"duplicate device id {e.device_id!r}")
            by_id[e.device_id] = e
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "entries", tuple(by_id.values()))  # dicts keep insertion order


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
    try:
        text = bytes(data).decode("utf-8")
    except UnicodeDecodeError:
        raise RegistryError("registry file is not valid UTF-8") from None
    lineno = 0

    def parse():
        # Registry pulls one entry at a time, so lineno is the line of
        # whichever entry an error (syntax, field or duplicate) is about.
        nonlocal lineno
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line or line.startswith("#"):
                continue
            fields = line.split(" ")
            if len(fields) != 3:
                raise RegistryError("expected 'device_id status pubkey_hex'")
            yield RegistryEntry(*fields)

    try:
        return Registry(parse())
    except RegistryError as exc:
        raise RegistryError(f"line {lineno}: {exc}") from None


def save_registry(registry: Registry) -> bytes:
    lines = [f"{e.device_id} {e.status} {e.public_key_hex}" for e in registry.entries]
    return ("".join(line + "\n" for line in lines)).encode("utf-8")
