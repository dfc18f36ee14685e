import pytest

from realseal import (
    Registry,
    RegistryEntry,
    RegistryError,
    REVOKED,
    TRUSTED,
    add_entry,
    load_registry,
    lookup,
    revoke,
    save_registry,
)

KEY_A = "aa" * 32
KEY_B = "bb" * 32

CANONICAL = (f"CAM-001 trusted {KEY_A}\n" f"CAM-002 revoked {KEY_B}\n").encode()


def test_load_single_entry():
    reg = load_registry(f"CAM-001 trusted {KEY_A}\n".encode())
    assert len(reg.entries) == 1
    assert reg.entries[0] == RegistryEntry("CAM-001", TRUSTED, KEY_A)


def test_save_load_round_trip_is_byte_identical():
    assert save_registry(load_registry(CANONICAL)) == CANONICAL


def test_load_ignores_comments_and_blank_lines():
    noisy = b"# fleet keys\n\n" + CANONICAL + b"# end\n"
    assert save_registry(load_registry(noisy)) == CANONICAL


def test_duplicate_device_id_names_line():
    dup = CANONICAL + f"CAM-001 trusted {KEY_B}\n".encode()
    with pytest.raises(RegistryError, match="line 3"):
        load_registry(dup)


def test_duplicate_after_comments_names_its_file_line():
    noisy = (b"# fleet keys\n\n" + CANONICAL + b"\n# more\n"
             + f"CAM-002 trusted {KEY_A}\n".encode())
    # the duplicate is entry 3 but line 7 of the file
    with pytest.raises(RegistryError, match=r"^line 7: duplicate device id 'CAM-002'$"):
        load_registry(noisy)


def test_duplicate_on_last_line_without_newline():
    dup = CANONICAL + f"CAM-002 trusted {KEY_A}".encode()
    with pytest.raises(RegistryError, match=r"^line 3: duplicate"):
        load_registry(dup)


def test_registry_built_directly_refuses_duplicate():
    e = RegistryEntry("CAM-001", TRUSTED, KEY_A)
    e2 = RegistryEntry("CAM-001", REVOKED, KEY_B)
    for entries in ((e, e2), (e, e)):
        with pytest.raises(RegistryError, match="duplicate device id 'CAM-001'"):
            Registry(entries)


def test_every_id_looks_up_to_its_entry_across_updates():
    entries = tuple(RegistryEntry(f"CAM-{i:04d}", TRUSTED, f"{i:064x}") for i in range(1000))
    reg = Registry(iter(entries))
    assert reg.entries == entries
    revoked = revoke(reg, "CAM-0500")
    grown = add_entry(revoked, RegistryEntry("CAM-1000", TRUSTED, KEY_A))
    for r in (reg, revoked, grown):
        for i, e in enumerate(r.entries):
            assert lookup(r, f"CAM-{i:04d}") is e
    assert lookup(revoked, "CAM-0500").status == REVOKED
    assert lookup(grown, "CAM-1000").public_key_hex == KEY_A
    assert lookup(grown, "CAM-1001") is None


def test_syntax_error_names_line():
    with pytest.raises(RegistryError, match="line 2"):
        load_registry(f"CAM-001 trusted {KEY_A}\nCAM-002 trusted\n".encode())


def test_bad_hex_rejected():
    with pytest.raises(RegistryError, match="line 1"):
        load_registry(f"CAM-001 trusted {'zz' * 32}\n".encode())
    with pytest.raises(RegistryError):
        load_registry(f"CAM-001 trusted {'AA' * 32}\n".encode())  # uppercase hex


def test_bad_status_rejected():
    with pytest.raises(RegistryError, match="line 1"):
        load_registry(f"CAM-001 banned {KEY_A}\n".encode())


def test_lookup_exact_and_case_sensitive():
    reg = load_registry(CANONICAL)
    assert lookup(reg, "CAM-001").status == TRUSTED
    assert lookup(reg, "CAM-002").status == REVOKED
    assert lookup(reg, "cam-001") is None
    assert lookup(reg, "CAM-003") is None


def test_revoke_flips_status_only():
    reg = load_registry(CANONICAL)
    revoked = revoke(reg, "CAM-001")
    assert lookup(revoked, "CAM-001").status == REVOKED
    assert lookup(revoked, "CAM-001").public_key_hex == KEY_A
    assert lookup(revoked, "CAM-002") == lookup(reg, "CAM-002")
    # original snapshot untouched
    assert lookup(reg, "CAM-001").status == TRUSTED


def test_revoke_idempotent():
    reg = load_registry(CANONICAL)
    once = revoke(reg, "CAM-001")
    assert revoke(once, "CAM-001") == once


def test_revoke_unknown_id():
    with pytest.raises(RegistryError, match="unknown"):
        revoke(load_registry(CANONICAL), "CAM-404")


def test_add_entry_rejects_duplicates():
    reg = load_registry(CANONICAL)
    with pytest.raises(RegistryError, match="duplicate"):
        add_entry(reg, RegistryEntry("CAM-001", TRUSTED, KEY_B))
    bigger = add_entry(reg, RegistryEntry("CAM-003", TRUSTED, KEY_B))
    assert len(bigger.entries) == 3


def test_not_utf8_rejected():
    with pytest.raises(RegistryError, match="UTF-8"):
        load_registry(b"\xff\xfe\x00")


@pytest.mark.parametrize("data", [CANONICAL.decode(), None, 5], ids=["str", "None", "int"])
def test_load_refuses_what_is_not_bytes(data):
    with pytest.raises(RegistryError, match=type(data).__name__):
        load_registry(data)


def test_load_accepts_every_bytes_like_form():
    for kind in (bytearray, memoryview):
        assert save_registry(load_registry(kind(CANONICAL))) == CANONICAL
