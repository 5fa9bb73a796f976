#!/usr/bin/env python3
"""Symbolize and rank the samples tools/pc_sampler.c wrote.

    python3 tools/pc_sampler_report.py pc_sampler.<pid>.out
        [--binary PATH] [--lines]
    python3 tools/pc_sampler_report.py --selftest

Each sample is a program counter. The report maps it into the ELF file of
the mapping that holds it (the `map` lines the sampler recorded undo
address-space randomisation: virtual address = pc - map start + map file
offset - first PT_LOAD's offset + its vaddr), then to the function whose
`nm -C -S` extent contains that address. It prints each function's share
of all samples, largest first; samples outside the binary are grouped by
the mapped file they fall in ("[libc.so.6]"), samples in no mapping as
"[unmapped]".

The report lists the 30 largest functions. --lines adds, under each, its
five hottest source lines from `addr2line -C -e BINARY` (needs a build with
-g; inlined code is charged to the line it was inlined from in the caller,
as addr2line reports it without -i).

The binary defaults to the first mapped file whose name is the sampled
program (the first `map` line); pass --binary when it moved or when the
samples of a shared library are wanted instead.

Shares are sample counts: with the kernel's ~4 ms tick (pc_sampler.c)
a share below about 1% of a 30 s run is a handful of samples.

Only the Python standard library and binutils' nm/addr2line are used.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Mapping:
    start: int
    end: int
    offset: int
    path: str


@dataclass(frozen=True)
class Symbol:
    address: int
    size: int
    name: str


def parse_samples(text: str) -> tuple[list[Mapping], list[int], dict[str, str]]:
    """The sampler's file: header fields, `map` lines, one hex pc a line."""
    maps: list[Mapping] = []
    pcs: list[int] = []
    header: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            for field in line[1:].split():
                key, _, value = field.partition("=")
                if value:
                    header[key] = value
        elif line.startswith("map "):
            _, start, end, offset, path = line.split(" ", 4)
            maps.append(Mapping(int(start, 16), int(end, 16), int(offset, 16),
                                path))
        else:
            pcs.append(int(line, 16))
    return maps, pcs, header


def parse_nm(text: str) -> list[Symbol]:
    """Text symbols with a size from `nm -C -S --defined-only`, by address.

    Lines read `address size type name`; the demangled name may hold
    spaces. Symbols without a size (no second hex field) are skipped.
    """
    symbols = []
    for line in text.splitlines():
        parts = line.split(" ", 3)
        if len(parts) < 4 or parts[2] not in ("t", "T", "w", "W"):
            continue
        try:
            address, size = int(parts[0], 16), int(parts[1], 16)
        except ValueError:
            continue
        if size > 0:
            symbols.append(Symbol(address, size, parts[3]))
    symbols.sort(key=lambda s: s.address)
    return symbols


def first_load(elf: bytes) -> tuple[int, int]:
    """(p_offset, p_vaddr) of the first PT_LOAD of a 64-bit ELF image."""
    if elf[:4] != b"\x7fELF" or elf[4] != 2:
        raise ValueError("not a 64-bit ELF file")
    endian = "<" if elf[5] == 1 else ">"
    phoff, = struct.unpack_from(endian + "Q", elf, 0x20)
    phentsize, phnum = struct.unpack_from(endian + "HH", elf, 0x36)
    for i in range(phnum):
        base = phoff + i * phentsize
        p_type, = struct.unpack_from(endian + "I", elf, base)
        if p_type == 1:  # PT_LOAD
            p_offset, p_vaddr = struct.unpack_from(endian + "QQ", elf, base + 8)
            return p_offset, p_vaddr
    raise ValueError("ELF file has no PT_LOAD segment")


def to_vaddr(pc: int, mapping: Mapping, load: tuple[int, int]) -> int:
    """The link-time address of `pc`, which lies in `mapping` of a file
    whose first PT_LOAD is `load`."""
    p_offset, p_vaddr = load
    return pc - mapping.start + mapping.offset - p_offset + p_vaddr


def symbol_at(symbols: list[Symbol], starts: list[int],
              address: int) -> Symbol | None:
    i = bisect.bisect_right(starts, address) - 1
    if i >= 0 and address < symbols[i].address + symbols[i].size:
        return symbols[i]
    return None


def attribute(pcs: list[int], maps: list[Mapping], binary: str,
              load: tuple[int, int], symbols: list[Symbol]):
    """Count samples per function of `binary` (other files by name).

    Returns (per-name counts, per-name list of the binary's addresses)."""
    starts = [s.address for s in symbols]
    ordered = sorted(maps, key=lambda m: m.start)
    map_starts = [m.start for m in ordered]
    counts: collections.Counter[str] = collections.Counter()
    addresses: dict[str, list[int]] = collections.defaultdict(list)
    for pc in pcs:
        i = bisect.bisect_right(map_starts, pc) - 1
        if i < 0 or pc >= ordered[i].end:
            counts["[unmapped]"] += 1
            continue
        mapping = ordered[i]
        if mapping.path != binary:
            counts[f"[{os.path.basename(mapping.path)}]"] += 1
            continue
        address = to_vaddr(pc, mapping, load)
        symbol = symbol_at(symbols, starts, address)
        name = symbol.name if symbol else f"[{os.path.basename(binary)}+?]"
        counts[name] += 1
        addresses[name].append(address)
    return counts, addresses


def lines_of(binary: str, addresses: list[int]) -> list[str]:
    """`file:line` of each address, from one addr2line call."""
    if not addresses:
        return []
    return subprocess.run(
        ["addr2line", "-C", "-e", binary] + [hex(a) for a in addresses],
        check=True, capture_output=True, text=True).stdout.splitlines()


TOP_FUNCTIONS = 30
LINES_PER_FUNCTION = 5


def report(path: str, binary: str | None, lines: bool) -> None:
    with open(path) as f:
        maps, pcs, header = parse_samples(f.read())
    if not pcs:
        print(f"{path}: no samples")
        return
    if binary is None:
        if not maps:
            sys.exit(f"{path}: no mappings recorded; pass --binary")
        binary = maps[0].path
    with open(binary, "rb") as f:
        load = first_load(f.read(4096))
    nm = subprocess.run(["nm", "-C", "-S", "--defined-only", binary],
                        check=True, capture_output=True, text=True).stdout
    symbols = parse_nm(nm)
    counts, addresses = attribute(pcs, maps, binary, load, symbols)
    total = len(pcs)
    print(f"{path}: {total} samples ({header.get('dropped', '0')} dropped), "
          f"binary {binary}")
    print(f"{'share':>7} {'samples':>8}  function")
    for name, count in counts.most_common(TOP_FUNCTIONS):
        print(f"{100.0 * count / total:6.1f}% {count:8d}  {name}")
        if lines and addresses.get(name):
            by_line = collections.Counter(lines_of(binary, addresses[name]))
            for where, n in by_line.most_common(LINES_PER_FUNCTION):
                print(f"{'':17}{100.0 * n / count:5.1f}% of it  {where}")


def selftest() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    text = "\n".join([
        "# pc_sampler interval_us=1000 samples=6 dropped=0",
        "map 555555554000 555555558000 1000 /opt/app/sim",
        "map 7ffff7c28000 7ffff7dbd000 28000 /usr/lib/libc.so.6",
        "555555554010",  # first byte of f (vaddr 0x1010)
        "55555555401f",  # last byte of f
        "555555554020",  # first byte of g
        "555555554100",  # past g: in the binary, in no symbol
        "7ffff7c29000",  # libc
        "1000",          # no mapping
        "",
    ])
    maps, pcs, header = parse_samples(text)
    check(header == {"interval_us": "1000", "samples": "6", "dropped": "0"},
          f"header {header}")
    check(len(maps) == 2 and maps[0].offset == 0x1000, f"maps {maps}")
    check(len(pcs) == 6, f"pcs {pcs}")

    nm = "\n".join([
        "0000000000001010 0000000000000010 T f(int)",
        "0000000000001020 0000000000000020 t ns::g<long>(long, long)",
        "0000000000001040 W no_size_is_skipped",
        "0000000000004000 0000000000000008 D data_is_skipped",
    ])
    symbols = parse_nm(nm)
    check([s.name for s in symbols] == ["f(int)", "ns::g<long>(long, long)"],
          f"symbols {symbols}")

    # PIE: the first PT_LOAD has offset 0 and vaddr 0.
    counts, addresses = attribute(pcs, maps, "/opt/app/sim", (0, 0), symbols)
    check(counts == collections.Counter({
        "f(int)": 2, "ns::g<long>(long, long)": 1, "[sim+?]": 1,
        "[libc.so.6]": 1, "[unmapped]": 1}), f"counts {counts}")
    check(addresses["f(int)"] == [0x1010, 0x101F], f"addresses {addresses}")

    # Non-PIE: link base 0x400000, mapped where linked.
    fixed = Mapping(0x401000, 0x402000, 0x1000, "/opt/app/sim")
    check(to_vaddr(0x401010, fixed, (0, 0x400000)) == 0x401010,
          "non-PIE vaddr")

    # The ELF reader agrees with a hand-built header.
    elf = bytearray(0x40 + 2 * 0x38)
    elf[:6] = b"\x7fELF\x02\x01"
    struct.pack_into("<Q", elf, 0x20, 0x40)
    struct.pack_into("<HH", elf, 0x36, 0x38, 2)
    struct.pack_into("<I", elf, 0x40, 6)  # PT_PHDR first
    struct.pack_into("<IIQQ", elf, 0x78, 1, 5, 0, 0x400000)
    check(first_load(bytes(elf)) == (0, 0x400000), "first_load")
    try:
        first_load(b"\x7fELF\x01")
        check(False, "32-bit ELF accepted")
    except ValueError:
        pass

    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"pc_sampler_report selftest: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("samples", nargs="?", help="pc_sampler.<pid>.out")
    parser.add_argument("--binary", help="ELF file to symbolize against")
    parser.add_argument("--lines", action="store_true",
                        help="per-line shares under each function (addr2line)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.samples is None:
        parser.error("a samples file is required")
    report(args.samples, args.binary, args.lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
