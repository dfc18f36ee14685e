import gc
import re
import tracemalloc

import pytest

import realseal.registry
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
from realseal.manifest import DEVICE_ID_RE
from realseal.rng import fill_u64

from oracles import (REGISTRY_GRAMMAR, ed25519_small_order_encodings, load_registry_reference,
                     released_memoryview)

KEY_A = "aa" * 32
KEY_B = "bb" * 32

CANONICAL = (f"CAM-001 trusted {KEY_A}\n" f"CAM-002 revoked {KEY_B}\n").encode()


def _key(n: int) -> str:
    """n as 64 hex digits, but KEY_B for 0 and 128: those spell small-order
    points, which a registry refuses."""
    return KEY_B if n in (0, 128) else f"{n:064x}"


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
    entries = tuple(RegistryEntry(f"CAM-{i:04d}", TRUSTED, _key(i)) for i in range(1000))
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


@pytest.mark.parametrize("data", [CANONICAL.decode(), None, 5, released_memoryview()],
                         ids=["str", "None", "int", "released-memoryview"])
def test_load_refuses_what_is_not_bytes(data):
    with pytest.raises(RegistryError, match=type(data).__name__):
        load_registry(data)


def _strided(data: bytes) -> memoryview:
    """A non-contiguous memoryview whose bytes are data."""
    return memoryview(bytes(b for byte in data for b in (byte, 0)))[::2]


def test_load_accepts_every_bytes_like_form():
    for kind in (bytearray, memoryview, _strided):
        assert save_registry(load_registry(kind(CANONICAL))) == CANONICAL


@pytest.mark.parametrize("kind", [bytearray, memoryview, _strided],
                         ids=["bytearray", "memoryview", "strided-memoryview"])
def test_duplicate_in_every_bytes_like_form_names_its_line(kind):
    # a repeated id makes the loader decode the input a second time
    noisy = b"# fleet keys\n\n" + CANONICAL + f"CAM-002 trusted {KEY_A}".encode()
    with pytest.raises(RegistryError, match=r"^line 5: duplicate device id 'CAM-002'$"):
        load_registry(kind(noisy))


def test_entries_are_built_after_the_text_and_its_split_are_freed(monkeypatch):
    data = "".join(f"CAM-{i:05d} {REVOKED if i % 13 == 0 else TRUSTED} {_key(i * 7919)}\n"
                   for i in range(20_000)).encode()
    build = realseal.registry._unchecked_entries
    held = []

    def measured(*fields):
        held.append(tracemalloc.get_traced_memory()[0])
        return build(*fields)

    monkeypatch.setattr(realseal.registry, "_unchecked_entries", measured)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reg = load_registry(data)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(reg.entries) == 20_000
    # what is live when the entries start is at most what the registry keeps:
    # its id and key strings, not the decoded text, the split list or one
    # status string per line
    assert held[0] - base <= kept


@pytest.mark.parametrize("data, error", [
    (CANONICAL, None),
    (CANONICAL + CANONICAL[:CANONICAL.index(b"\n") + 1], "line 3: duplicate"),
    (CANONICAL + b"CAM-003 lost " + KEY_A.encode(), "line 3: bad status"),
], ids=["accepted", "duplicate-fallback", "error"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_load_leaves_the_collector_as_it_found_it(monkeypatch, data, error, enabled):
    build = realseal.registry._unchecked_entries
    seen = []

    def recorded(*fields):
        seen.append(gc.isenabled())
        return build(*fields)

    monkeypatch.setattr(realseal.registry, "_unchecked_entries", recorded)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert save_registry(load_registry(data)) == CANONICAL
        else:
            with pytest.raises(RegistryError, match=error):
                load_registry(data)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # the entries of a file whose lines all check are built with the collector
    # off, also when a repeated id then sends it to the error path
    assert seen == ([] if error == "line 3: bad status" else [False])


def test_load_peaks_near_what_the_registry_keeps():
    data = "".join(f"CAM-{i:05d} {REVOKED if i % 13 == 0 else TRUSTED} {_key(i * 7919)}\n"
                   for i in range(20_000)).encode()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reg = load_registry(data)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reg.entries) == 20_000
    # the whole load, checks included, stays within 1.5x of what it returns:
    # no copy of the file and no per-character work space outlives the split
    assert peak - base <= 1.5 * (now - base)


def test_refused_layout_is_not_split_into_tokens():
    # 8 MiB of two-character tokens after a bad line 1, as line 1 itself, or
    # after two fields of it: splitting them would make ~2.8M strings, ~20x
    # the input; the refusal stays near a few copies
    for prefix in (b"x\n", b"", b"CAM trusted "):
        data = prefix + b"ab " * (2**23 // 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(RegistryError, match=r"^line 1: expected"):
                load_registry(data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(data), prefix


def test_layout_charset_is_the_device_id_charset():
    ascii_chars = [chr(c) for c in range(128)]
    id_chars = [c for c in ascii_chars if c.encode() in realseal.registry._ID_CHARS]
    assert id_chars == [c for c in ascii_chars if DEVICE_ID_RE.match(c)]
    longest = realseal.registry._ID_MAX
    assert DEVICE_ID_RE.match("C" * longest) and not DEVICE_ID_RE.match("C" * (longest + 1))
    assert not (set(TRUSTED + REVOKED + "0123456789abcdef") - set(id_chars))


@pytest.mark.parametrize("fields, type_name", [
    ((5, TRUSTED, KEY_A), "int"),
    ((b"CAM-1", TRUSTED, KEY_A), "bytes"),
    (("CAM-1", None, KEY_A), "NoneType"),
    (("CAM-1", TRUSTED, None), "NoneType"),
], ids=["int-id", "bytes-id", "None-status", "None-key"])
def test_entry_refuses_a_field_that_is_not_str(fields, type_name):
    with pytest.raises(RegistryError, match=f"must be str, not {type_name}$"):
        RegistryEntry(*fields)


@pytest.mark.parametrize("item", [1, None, ("CAM-002", TRUSTED, KEY_B)],
                         ids=["int", "None", "tuple"])
def test_registry_refuses_an_item_that_is_not_an_entry(item):
    first = RegistryEntry("CAM-001", TRUSTED, KEY_A)
    with pytest.raises(RegistryError, match=f"not {type(item).__name__}$"):
        Registry((first, item))
    with pytest.raises(RegistryError, match=f"not {type(item).__name__}$"):
        Registry((item,))
    if not isinstance(item, tuple):  # not iterable at all
        with pytest.raises(RegistryError,
                           match=f"iterable of RegistryEntry, not {type(item).__name__}$"):
            Registry(item)


def test_load_at_scale_keeps_bytes_entries_and_file_line_numbers():
    lines = []
    for i in range(8000):
        if i % 7 == 0:
            lines.append(f"# batch {i} #{i}")
        if i % 11 == 0:
            lines.append("")
        lines.append(f"CAM-{i:05d} {REVOKED if i % 13 == 0 else TRUSTED} {_key(i * 7919)}")
    text = "".join(line + "\n" for line in lines)
    canonical = "".join(line + "\n" for line in lines if line and line[0] != "#").encode()
    reg = load_registry(text.encode())
    assert save_registry(reg) == canonical
    assert len(reg.entries) == 8000 and len(lines) > 9000
    for e in reg.entries:
        assert lookup(reg, e.device_id) is e
        assert e.status is TRUSTED or e.status is REVOKED
    # the bad entry and the repeat are entries 8001 but lines len(lines) + 1
    last = len(lines) + 1
    with pytest.raises(RegistryError, match=rf"^line {last}: public key must be 64 lowercase"):
        load_registry((text + f"CAM-08000 trusted {KEY_A.upper()}\n").encode())
    with pytest.raises(RegistryError, match=rf"^line {last}: duplicate device id 'CAM-00000'$"):
        load_registry((text + f"CAM-00000 trusted {KEY_A}").encode())


@pytest.mark.parametrize("line, error", [
    (f"CAM-99999 trusted {KEY_A.upper()}", "public key must be 64 lowercase hex chars"),
    (f"CAM-00000 trusted {KEY_A}", "duplicate device id 'CAM-00000'"),
    (f"CAM-99999 trusted {'00' * 32}", "public key is a small-order point"),
], ids=["refused-line", "repeated-id", "small-order-key"])
def test_an_error_at_line_100000_is_named_with_its_line(line, error):
    head = "".join(f"CAM-{i:05d} trusted {_key(i * 7919)}\n" for i in range(99_999))
    with pytest.raises(RegistryError, match=f"^line 100000: {error}$"):
        load_registry((head + line + "\n").encode())


def test_each_small_order_key_is_refused_on_its_line():
    for key in sorted(ed25519_small_order_encodings()):
        line = f"CAM-003 revoked {key.hex()}\n".encode()
        with pytest.raises(RegistryError, match="^public key is a small-order point$"):
            RegistryEntry("CAM-003", REVOKED, key.hex())
        for data, lineno in ((line, 1), (CANONICAL + b"# note\n\n" + line + CANONICAL, 5)):
            with pytest.raises(RegistryError,
                               match=f"^line {lineno}: public key is a small-order point$"):
                load_registry(data)


# Characters that str.split() takes for whitespace and splitting on "\n" does
# not; the loader must never let one split a field or a comment.
_SPLIT_SPACES = "\t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0 \u2028\u3000"
_ID_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
_COMMENT_CHARS = "ab #-" + _SPLIT_SPACES
_REGISTRY_CASES = [
    "", "\n", "\n\n", "# only a comment", "# only\n# comments\n",
    f"CAM-001 trusted {KEY_A}", f"\ufeffCAM-001 trusted {KEY_A}\n", f"\ufeff# bom\n",
    f"CAM-001  trusted {KEY_A}\n", f"CAM-001 trusted {KEY_A} \n", f" CAM-001 trusted {KEY_A}\n",
    f"CAM-001 trusted {KEY_A[:-1]}\n", f"CAM-001 trusted {KEY_A}a\n",
    f"CAM-001 trusted {KEY_A.upper()}\n",
    f"{'C' * 64} trusted {KEY_A}\n", f"{'C' * 65} trusted {KEY_A}\n", f"CAM-001 Trusted {KEY_A}\n",
    f"CAM-001 trusted {KEY_A}\r\n", f"CAM-001 trusted {KEY_A}\n #x\n",
    # a repeat before a bad line, and a bad line before a repeat
    f"CAM-001 trusted {KEY_A}\nCAM-001 trusted {KEY_B}\nCAM-002 lost {KEY_A}\n",
    f"CAM-001 trusted {KEY_A}\nCAM-002 lost {KEY_A}\nCAM-001 trusted {KEY_B}\n",
    f"CAM-001 trusted {KEY_A}\n# note\nCAM-001 revoked {KEY_B}",
    f"CAM-001 trusted {KEY_A}\nCAM-002 trusted {KEY_A[1:]}",
    f"CAM-001 trusted {KEY_A}\n\r\nCAM-002 trusted {KEY_B}\n",
    f"CAM-001 trusted {KEY_A}\n   \n",
    # the token and separator counts of a good file, with fields on the wrong lines
    f"CAM-001\n trusted {KEY_A}\n", f"CAM-001 trusted\n{KEY_A}\n",
    f"CAM-001 trusted {KEY_A}\nCAM-002\ntrusted  {KEY_B}\n",
    # a last line of id chars alone after an LF, which is not the final LF
    f" CAM-001 trusted\n{KEY_A}", f"# c\n CAM-001 trusted\n{KEY_A}\n",
    f"CAM-001 trusted {KEY_A}#x\n", f"CAM-001 trusted {KEY_A}#x", f"CAM-001 #trusted {KEY_A}\n",
    "#a#b\n", "#a#b",
    # line breaks to splitlines() but not to the format: the entry stays in its comment
    f"# a\u2028CAM-001 trusted {KEY_A}\n", f"#\x85CAM-001 trusted {KEY_A}\nCAM-002 trusted {KEY_B}",
    f"CAM-001 trusted {KEY_A}\n# end", f"CAM-001 trusted {KEY_A}\n\n# end",
    # a small-order key, alone, after a bad line and before a repeat
    f"CAM-001 trusted {'00' * 32}\n", f"CAM-001 lost {KEY_A}\nCAM-002 trusted {'00' * 32}\n",
    f"CAM-001 trusted {KEY_A}\nCAM-002 trusted {'ee' + 'ff' * 31}\nCAM-001 trusted {KEY_B}",
] + [case for c in _SPLIT_SPACES for case in (
    f"# a{c}b\nCAM-001 trusted {KEY_A}\n# {c}\n",
    f"CAM-001{c}trusted {KEY_A}\n",
    f"CAM-001 trusted{c}{KEY_A}\n",
    f"CAM-001 trusted {KEY_A}{c}\n",
    f"{c}CAM-001 trusted {KEY_A}\n",
)]


def _random_registry(seed: int) -> str:
    """A small registry file of entries, comments and blank lines, with 0-2
    mutations: inserted split-spaces, case flips, deleted or doubled chars,
    trailing spaces, over-long ids, repeated ids (some 100 lines apart), a
    BOM or a missing final LF."""
    draws = iter(fill_u64(seed, 96).tolist())

    def below(n: int) -> int:
        return next(draws) % n

    def text(chars: str, u: int, length: int) -> str:
        return "".join(chars[(u >> 6 * k) % len(chars)] for k in range(length))

    ids: list[str] = []
    lines = []
    for _ in range(below(7)):
        kind = below(8)
        if kind == 5:
            lines.append("#" + text(_COMMENT_CHARS, next(draws), below(10)))
        elif kind == 6:
            lines.append("")
        else:
            if kind == 7 and ids:
                ids.append(ids[below(len(ids))])
            else:
                ids.append(text(_ID_CHARS, next(draws), 1 + below(9)))
            key = "".join(f"{next(draws):016x}" for _ in range(4))
            lines.append(f"{ids[-1]} {(TRUSTED, REVOKED)[below(2)]} {key}")
    if ids and below(8) == 0:  # a repeated id far from its first line
        lines += [f"FILL-{k:03d} trusted {KEY_B}" for k in range(100)]
        lines.append(f"{ids[0]} revoked {KEY_A}")
    for _ in range(below(3) if lines else 0):
        i = below(len(lines))
        line = lines[i]
        at = below(len(line) + 1)
        kind = below(7)
        if kind == 0:
            line = line[:at] + _SPLIT_SPACES[below(len(_SPLIT_SPACES))] + line[at:]
        elif kind == 1:
            line = line[:at] + line[at:].swapcase()[:1] + line[at + 1:]
        elif kind == 2:
            line = line[:at] + line[at + 1:]
        elif kind == 3:
            line = line[:at] + line[at:at + 1] + line[at:]
        elif kind == 4:
            line += " "
        elif kind == 5 and " " in line:
            line = "C" * 65 + line[line.index(" "):]
        else:
            line = line[:at] + "#\n x"[below(4)] + line[at + 1:]
        lines[i] = line
    data = "\n".join(lines) + ("" if below(6) == 0 else "\n")
    return ("\ufeff" if below(20) == 0 else "") + data


def _load_or_error(load, data: bytes):
    try:
        return load(data)
    except RegistryError as exc:
        return str(exc)


def test_load_agrees_with_per_line_reference(monkeypatch):
    line_passes = 0
    first_error = realseal.registry._first_error

    def counted(text):
        nonlocal line_passes
        line_passes += 1
        return first_error(text)

    monkeypatch.setattr(realseal.registry, "_first_error", counted)
    accepted = refused = 0
    cases = _REGISTRY_CASES + [_random_registry(seed) for seed in range(2500)]
    for case in cases:
        data = case.encode()
        want = _load_or_error(load_registry_reference, data)
        passes = line_passes
        got = _load_or_error(load_registry, data)
        assert (got if isinstance(got, str) else got.entries) == want, data
        # only a file that is refused takes the error path
        assert line_passes - passes == isinstance(want, str), data
        accepted += not isinstance(want, str)
        refused += isinstance(want, str)
    assert accepted > 800 and refused > 800


def _moved_separators(seed: int) -> str:
    """A small registry file of good lines (entries, comments, blank lines)
    with 0-3 mutations that mostly move separators rather than fields:
    swapping an adjacent space and LF, moving a field onto its own line,
    joining two lines, doubling or dropping an LF, or putting a '#' in a
    space's place. Some files repeat an id or lack their final LF."""
    draws = iter(fill_u64(seed, 64).tolist())

    def below(n: int) -> int:
        return next(draws) % n

    lines = []
    for k in range(1 + below(5)):
        kind = below(6)
        if kind == 4:
            lines.append("#" + "ab \u2028\x85#"[below(6)] * below(3))
        elif kind == 5:
            lines.append("")
        else:
            device = f"CAM-{below(3) if below(3) == 0 else 10 + k}"
            lines.append(f"{device} {(TRUSTED, REVOKED)[below(2)]} {(KEY_A, KEY_B)[below(2)]}")
    text = "\n".join(lines) + ("" if below(5) == 0 else "\n")
    for _ in range(below(4)):
        kind = below(6)
        spots = [i for i in range(len(text) - 1) if text[i:i + 2] in (" \n", "\n ")]
        if kind == 0 and spots:  # swap an adjacent space and LF
            i = spots[below(len(spots))]
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
            continue
        spaces = [i for i, c in enumerate(text) if c == " "]
        breaks = [i for i, c in enumerate(text) if c == "\n"]
        if kind == 1 and spaces:  # a field onto its own line; a line joined elsewhere
            i = spaces[below(len(spaces))]
            text = text[:i] + "\n" + text[i + 1:]
            if breaks:
                j = breaks[below(len(breaks))]
                text = text[:j] + " " + text[j + 1:]
        elif kind == 2 and breaks:  # two lines joined
            j = breaks[below(len(breaks))]
            text = text[:j] + " " + text[j + 1:]
        elif kind == 3 and breaks:  # an LF doubled or dropped
            j = breaks[below(len(breaks))]
            text = text[:j] + "\n" * 2 * below(2) + text[j + 1:]
        elif kind == 4 and spaces:  # a '#' in a space's place
            i = spaces[below(len(spaces))]
            text = text[:i] + "#" + text[i + 1:]
        elif spaces:  # a line broken at a space, which is kept or dropped
            i = spaces[below(len(spaces))]
            text = text[:i] + " " * below(2) + "\n" + text[i + 1:]
    return text


def test_load_agrees_with_reference_and_grammar_when_separators_move():
    accepted = refused = repeats = 0
    for seed in range(3000):
        data = _moved_separators(seed).encode()
        want = _load_or_error(load_registry_reference, data)
        try:
            got = load_registry(data).entries
        except RegistryError as exc:  # anything else, TypeError from `raise None` too, fails
            got = str(exc)
        assert got == want, data
        matched = REGISTRY_GRAMMAR.fullmatch(data.decode()) is not None
        if isinstance(want, str):
            # a file the grammar matches is refused only for a repeated id
            assert not matched or " duplicate device id " in want, data
            refused += 1
            repeats += matched
        else:
            assert matched, data
            accepted += 1
    assert accepted > 900 and refused > 1600 and repeats > 30


# ---------------------------------------------------------------------------
# seeded mutants: each one loads to valid entries that save back, or is
# refused with a RegistryError that names one of its lines
# ---------------------------------------------------------------------------

_FUZZ_BASES = (
    CANONICAL,
    b"# fleet keys\n\n" + CANONICAL + b"# end\n",
    CANONICAL[:-1],
    f"{'X' * 64} trusted {KEY_A}\nc_9 revoked {KEY_B}\n\n".encode(),
)
# bytes that mean something to the format, or to UTF-8
_FUZZ_SNIPPETS = (b" ", b"\n", b"#", b"\r\n", b"\t", b"A", b"f", b"-", b"0" * 64, b"trusted",
                  b"\xef\xbb\xbf", b"\xff", "é".encode(), " ".encode(), b"\x85")
_FUZZ_STATUSES = (b"Trusted", b"TRUSTED", b"revokeD", b"REVOKED")


def _registry_mutant(data: bytes, other: bytes, kind: int, a: int, b: int) -> bytes:
    """One mutation of data, as drawn: kind picks it, a and b place and size it."""
    pos = a % (len(data) + 1)
    if b & 1:  # at the start of its line
        pos = data.rfind(b"\n", 0, pos) + 1
    b >>= 1
    if kind == 0:
        return data[:pos] + _FUZZ_SNIPPETS[b % len(_FUZZ_SNIPPETS)] + data[pos:]
    if kind == 1:  # delete 1-8 bytes
        return data[:pos] + data[pos + b % 8 + 1:]
    if kind == 2:
        return data[:pos]
    if kind == 3:  # splice: this file's head onto another's tail, from a line start or not
        at = b % (len(other) + 1)
        return data[:pos] + other[other.rfind(b"\n", 0, at) + 1 if b & 1 else at:]
    lines = data.split(b"\n")
    if kind == 4:  # a line repeated elsewhere: an entry's id comes twice
        lines.insert(a % (len(lines) + 1), lines[b % len(lines)])
        return b"\n".join(lines)
    if kind == 5 and data:  # one byte replaced: a '#' or LF in a field, or a non-hex id char
        at = pos % len(data)
        return data[:at] + b"#\nAg"[b % 4:][:1] + data[at + 1:]
    if kind == 6:  # CRLF line ends, on one line or all
        i = b % len(lines)
        return b"\r\n".join(lines) if a & 1 else b"\n".join(
            lines[:i] + [lines[i] + b"\r"] + lines[i + 1:])
    if kind == 7:
        return b"\xef\xbb\xbf" + data
    for status in (b"trusted", b"revoked"):  # a status in another case
        at = data.find(status, pos)
        if at >= 0:
            return data[:at] + _FUZZ_STATUSES[b % len(_FUZZ_STATUSES)] + data[at + 7:]
    return data


def test_seeded_registry_mutants_load_and_save_back_or_name_their_line():
    count = 2000
    draws = iter(fill_u64(0x5EED_4E6, 10 * count).tolist())
    accepted = refused = 0
    for _ in range(count):
        data = _FUZZ_BASES[next(draws) % len(_FUZZ_BASES)]
        for _ in range(1 + next(draws) % 2):
            other, kind, a, b = (next(draws) for _ in range(4))
            data = _registry_mutant(data, _FUZZ_BASES[other % len(_FUZZ_BASES)], kind % 9, a, b)
        try:  # any other exception fails the test
            registry = load_registry(data)
        except RegistryError as exc:
            refused += 1
            match = re.match(r"line (\d+): ", str(exc))
            if match is None:
                assert str(exc) == "registry file is not valid UTF-8", data
                continue
            lines = data.decode().split("\n")
            lineno = int(match[1])
            # the named line exists, and is no blank or comment line
            assert 1 <= lineno <= len(lines) and lines[lineno - 1][:1] not in ("", "#"), data
            continue
        accepted += 1
        # every entry is one RegistryEntry would build, and the file saves back to them
        assert [RegistryEntry(e.device_id, e.status, e.public_key_hex)
                for e in registry.entries] == list(registry.entries), data
        assert load_registry(save_registry(registry)).entries == registry.entries, data
    # both outcomes are common, so the mutants neither all break nor all miss
    assert min(accepted, refused) >= count // 10, (accepted, refused)
