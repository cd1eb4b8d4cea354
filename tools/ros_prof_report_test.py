#!/usr/bin/env python3
"""Unit tests for tools/ros_prof_report.py (run via ctest or directly)."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ros_prof_report import (Symbolizer, charge, main, parse_maps, parse_nm,
                             parse_profile, short_name)

EXE = "/srv/ros/rosbench"
LIBC = "/lib/x86_64-linux-gnu/libc.so.6"

# A PIE executable mapped at 0x555500000000 whose text segment starts at
# file offset and vaddr 0x1000, and libc mapped at 0x7f0000000000 whose
# text segment sits at file offset 0x28000 but vaddr 0x29000.
MAPS = [
    "555500000000-555500001000 r--p 00000000 08:01 11 " + EXE,
    "555500001000-555500009000 r-xp 00001000 08:01 11 " + EXE,
    "7f0000000000-7f0000028000 r--p 00000000 08:01 22 " + LIBC,
    "7f0000028000-7f0000100000 r-xp 00028000 08:01 22 " + LIBC,
    "7ffd00000000-7ffd00021000 rw-p 00000000 00:00 0 [stack]",
]
SEGMENTS = {EXE: [(0x1000, 0x8000, 0x1000)], LIBC: [(0x28000, 0xd8000, 0x29000)]}
SYMBOLS = {
    EXE: [(0x1000, 0x100, "main"),
          (0x1100, 0x100, "ros::disk::RaidVolume::StoreStripes(unsigned long)"),
          (0x1200, 0x100, "ros::disk::StorageDevice::StoreDirect(unsigned long)"),
          (0x1300, 0x10, "ros::gf256::XorAcc(std::span<unsigned char>)")],
    LIBC: [(0x30000, 0x200, "malloc")],
}
EXE_BASE = 0x555500000000
LIBC_BASE = 0x7f0000000000 + 0x28000 - 0x29000  # runtime = vaddr + this


def symbolizer():
    return Symbolizer(parse_maps(MAPS), segments=SEGMENTS.__getitem__,
                      symbols=SYMBOLS.__getitem__)


class ParseTest(unittest.TestCase):
    def test_profile_sections(self):
        lines = ["E %s dropped=3\n" % EXE, "S 10 20\n", "S\n", "S 30\n", "M\n",
                 MAPS[0] + "\n"]
        exe, samples, maps = parse_profile(lines)
        self.assertEqual(exe, EXE)
        self.assertEqual(samples, [[0x10, 0x20], [0x30]])  # empty one skipped
        self.assertEqual(maps, [MAPS[0]])

    def test_maps_keep_executable_file_mappings(self):
        self.assertEqual([m[3] for m in parse_maps(MAPS)], [EXE, LIBC])

    def test_nm_keeps_sized_text_symbols(self):
        text = ("0000000000001000 0000000000000010 T main\n"
                "0000000000002000 B no_size\n"
                "0000000000003000 0000000000000008 D data_object\n"
                "0000000000004000 0000000000000020 t f(int, char)\n")
        self.assertEqual(parse_nm(text), [(0x1000, 0x10, "main"),
                                          (0x4000, 0x20, "f(int, char)")])

    def test_short_name_drops_parameter_lists(self):
        self.assertEqual(short_name("a::f(int, g(x)) [clone .actor]"),
                         "a::f() [clone .actor]")
        self.assertEqual(short_name("(anonymous namespace)::Fill(int)"),
                         "{anon}::Fill()")


class SymbolizerTest(unittest.TestCase):
    def test_executable_and_library_addresses(self):
        s = symbolizer()
        self.assertEqual(s.resolve(EXE_BASE + 0x1234)[1],
                         SYMBOLS[EXE][2][2])
        # Library text whose file offset and vaddr differ.
        self.assertEqual(s.resolve(LIBC_BASE + 0x30010), (LIBC, "malloc"))

    def test_uncovered_and_unmapped_addresses(self):
        s = symbolizer()
        self.assertEqual(s.resolve(LIBC_BASE + 0x40000), (LIBC, None))
        self.assertEqual(s.resolve(EXE_BASE + 0x1310), (EXE, None))
        self.assertEqual(s.resolve(0x10), (None, None))
        self.assertEqual(s.resolve(0x7ffd00000010), (None, None))


class ChargeTest(unittest.TestCase):
    def test_library_leaf_goes_to_its_first_caller_in_the_executable(self):
        memcpy = LIBC_BASE + 0x50000  # no exported symbol covers it
        malloc = LIBC_BASE + 0x30004
        store_direct = EXE_BASE + 0x1201  # return addresses: looked up - 1
        store_stripes = EXE_BASE + 0x1101
        main_ret = EXE_BASE + 0x1001
        samples = [
            [memcpy, malloc + 8, store_direct, store_stripes, main_ret],
            [memcpy, store_stripes, main_ret],
            [EXE_BASE + 0x1304, store_stripes, main_ret],
            [malloc],
        ]
        self_counts, inclusive = charge(samples, symbolizer().resolve, EXE)
        self.assertEqual(self_counts, {
            "[libc.so.6] <- ros::disk::StorageDevice::StoreDirect()": 1,
            "[libc.so.6] <- ros::disk::RaidVolume::StoreStripes()": 1,
            "ros::gf256::XorAcc()": 1,
            "malloc <- (no caller in the executable)": 1,
        })
        self.assertEqual(inclusive["main"], 3)
        self.assertEqual(inclusive["ros::disk::RaidVolume::StoreStripes()"], 3)
        self.assertEqual(inclusive["ros::disk::StorageDevice::StoreDirect()"], 1)

    def test_recursion_counts_once_inclusive(self):
        f = EXE_BASE + 0x1101
        _, inclusive = charge([[EXE_BASE + 0x1100, f, f, f]],
                              symbolizer().resolve, EXE)
        self.assertEqual(inclusive["ros::disk::RaidVolume::StoreStripes()"], 1)

    def test_a_file_without_samples_fails(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt") as f:
            f.write("E %s dropped=0\nM\n" % EXE)
            f.flush()
            self.assertEqual(main([f.name]), 1)


if __name__ == "__main__":
    unittest.main()
