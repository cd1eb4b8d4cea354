#!/usr/bin/env python3
"""Report of a ros_prof sample file (see tools/ros_prof.cc).

    python3 tools/ros_prof_report.py ros_prof.<pid>.txt [--top N]

Prints two tables of shares of all samples:

- self: the function each sample was in. A frame outside the executable
  (libc's memcpy, libstdc++'s operator new, ...) is charged together with
  the first executable frame that called it, as "memcpy <- caller", so a
  copy shows up under the code that asked for it. A library address that
  no exported symbol covers (libc's internal memmove/memset variants have
  none) is named after its object, as "[libc.so.6] <- caller".
- inclusive: the executable's functions on the stack, each counted once
  per sample.

Symbols come from `nm` (the executable's symbol table, a library's
dynamic symbols when it has no other); addresses map to them through the
file's /proc/self/maps copy and the ELF program headers.
"""
import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def parse_profile(lines):
    """Returns (executable path, samples, maps lines) of a sample file.

    A sample is a list of addresses, innermost first; empty samples (a
    signal that found no stack) are skipped.
    """
    exe, samples, maps = None, [], []
    in_maps = False
    for line in lines:
        line = line.rstrip("\n")
        if in_maps:
            maps.append(line)
        elif line.startswith("E "):
            exe = line[2:].rsplit(" dropped=", 1)[0]
        elif line.startswith("S"):
            frames = [int(word, 16) for word in line[1:].split()]
            if frames:
                samples.append(frames)
        elif line == "M":
            in_maps = True
    return exe, samples, maps


def parse_maps(lines):
    """Executable file mappings as sorted (start, end, file offset, path)."""
    out = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in fields[0].split("-"))
        out.append((start, end, int(fields[2], 16), fields[5]))
    out.sort()
    return out


def load_segments(path):
    """PT_LOAD segments of a 64-bit little-endian ELF file as
    (file offset, file size, virtual address)."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2 or header[5] != 1:
            return []
        phoff, = struct.unpack_from("<Q", header, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", header, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def parse_nm(text):
    """Sorted (address, size, name) of `nm -S -n -C` output; symbols
    without a size are skipped."""
    symbols = []
    for line in text.splitlines():
        fields = line.split(None, 3)
        if len(fields) < 4 or fields[2] not in "TtWwi":
            continue
        symbols.append((int(fields[0], 16), int(fields[1], 16), fields[3]))
    symbols.sort()
    return symbols


def load_symbols(path):
    for extra in ([], ["-D"]):
        result = subprocess.run(
            ["nm", "-S", "-n", "-C", "--defined-only"] + extra + [path],
            capture_output=True, text=True)
        symbols = parse_nm(result.stdout) if result.returncode == 0 else []
        if symbols:
            return symbols
    return []


class Symbolizer:
    """Maps a runtime address to (object path, function name or None).

    `segments` and `symbols` are callables from an object path to its
    load_segments / load_symbols result (injectable for tests).
    """

    def __init__(self, maps, segments=load_segments, symbols=load_symbols):
        self._maps = maps
        self._starts = [m[0] for m in maps]
        self._segments = segments
        self._symbols = symbols
        self._cache = {}

    def _tables(self, path):
        if path not in self._cache:
            syms = self._symbols(path)
            self._cache[path] = (self._segments(path), syms,
                                 [s[0] for s in syms])
        return self._cache[path]

    def resolve(self, addr):
        i = bisect.bisect_right(self._starts, addr) - 1
        if i < 0 or addr >= self._maps[i][1]:
            return None, None
        start, _, offset, path = self._maps[i]
        file_offset = addr - start + offset
        segments, symbols, keys = self._tables(path)
        vaddr = None
        for seg_offset, seg_size, seg_vaddr in segments:
            if seg_offset <= file_offset < seg_offset + seg_size:
                vaddr = seg_vaddr + file_offset - seg_offset
        if vaddr is None:
            return path, None
        j = bisect.bisect_right(keys, vaddr) - 1
        if j >= 0 and vaddr < symbols[j][0] + max(symbols[j][1], 1):
            return path, symbols[j][2]
        return path, None


def short_name(name):
    """Drops parameter lists: "f(int, g(x)) [clone .actor]" reads
    "f() [clone .actor]"."""
    name = name.replace("(anonymous namespace)", "{anon}")
    out, depth = [], 0
    for c in name:
        if c == "(":
            depth += 1
            if depth == 1:
                out.append(c)
        elif c == ")":
            depth -= 1
            if depth == 0:
                out.append(c)
        elif depth == 0:
            out.append(c)
    return "".join(out)


def frame_name(path, name):
    if name is not None:
        return short_name(name)
    return "[%s]" % os.path.basename(path) if path else "[unknown]"


def charge(samples, resolve, exe):
    """Self and inclusive Counters over `samples`.

    A return address (every frame past the first) is looked up one byte
    back, inside its call instruction.
    """
    self_counts = collections.Counter()
    inclusive = collections.Counter()
    for sample in samples:
        frames = [resolve(a if i == 0 else a - 1) for i, a in enumerate(sample)]
        ours = [frame_name(p, n) for p, n in frames if p == exe]
        leaf_path, leaf_name = frames[0]
        if leaf_path == exe:
            self_counts[frame_name(leaf_path, leaf_name)] += 1
        else:
            caller = ours[0] if ours else "(no caller in the executable)"
            self_counts["%s <- %s" % (frame_name(leaf_path, leaf_name),
                                      caller)] += 1
        for name in set(ours):
            inclusive[name] += 1
    return self_counts, inclusive


def render(title, counts, total, top):
    lines = ["%s (%d samples)" % (title, total)]
    for name, n in counts.most_common(top):
        lines.append("%6.2f%%  %s" % (100.0 * n / total, name))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=30)
    args = parser.parse_args(argv)
    with open(args.profile) as f:
        exe, samples, maps = parse_profile(f)
    if not samples:
        print("no samples", file=sys.stderr)
        return 1
    symbolizer = Symbolizer(parse_maps(maps))
    self_counts, inclusive = charge(samples, symbolizer.resolve, exe)
    print(render("self, library frames charged to their first caller",
                 self_counts, len(samples), args.top))
    print()
    print(render("inclusive", inclusive, len(samples), args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
