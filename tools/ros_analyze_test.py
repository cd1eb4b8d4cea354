#!/usr/bin/env python3
"""Unit tests for tools/ros_analyze.py (run via ctest or directly).

Each rule gets seeded-violation fixtures (must be detected) and negative
fixtures (must stay quiet); the final test runs the analyzer over the
real src/ tree and asserts it is clean — the determinism contract says
the analyzer ships enforced with zero findings at HEAD.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ros_analyze

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def analyze_source(source, rel="src/foo/test.cc"):
    """Analyzes one in-memory translation unit; returns (rule, line)."""
    fa = ros_analyze.FileAnalyze("test.cc", source, rel)
    return [(f.rule, f.line) for f in fa.run()]


def rules_of(source, rel="src/foo/test.cc"):
    return [rule for rule, _line in analyze_source(source, rel)]


class WallclockTest(unittest.TestCase):
    def test_flags_chrono_clocks(self):
        for clock in ("system", "steady", "high_resolution"):
            src = ("void F() {\n"
                   f"  auto t = std::chrono::{clock}_clock::now();\n"
                   "}\n")
            self.assertIn(("wallclock", 2), analyze_source(src),
                          msg=clock)

    def test_flags_c_library_time_and_entropy(self):
        cases = [
            "auto t = time(nullptr);",
            "auto t = ::time(NULL);",
            "auto c = clock();",
            "gettimeofday(&tv, nullptr);",
            "std::random_device rd;",
            "int r = rand();",
            "srand(42);",
        ]
        for stmt in cases:
            src = "void F() {\n  " + stmt + "\n}\n"
            self.assertIn("wallclock", rules_of(src), msg=stmt)

    def test_sim_time_and_lookalikes_not_flagged(self):
        src = (
            "void F() {\n"
            "  auto t = sim_.now();\n"
            "  auto d = obj.time();\n"          # member named time
            "  auto r = rng_.Next();\n"
            "  int uptime(int x);\n"            # identifier suffix
            "  Rebrand(brand);\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])

    def test_sim_time_h_is_exempt(self):
        src = "inline double Wall() { return clock(); }\n"
        self.assertEqual(rules_of(src, rel="src/sim/time.h"), [])
        self.assertIn("wallclock", rules_of(src, rel="src/sim/other.h"))

    def test_allow_annotation_suppresses(self):
        src = (
            "void F() {\n"
            "  // ros_analyze: allow(wallclock): host-side bench timing\n"
            "  auto t = std::chrono::steady_clock::now();\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])


class UnorderedIterTest(unittest.TestCase):
    def test_flags_range_for_over_local(self):
        src = (
            "void F() {\n"
            "  std::unordered_map<int, int> m;\n"
            "  for (const auto& [k, v] : m) {\n"
            "    Use(k, v);\n"
            "  }\n"
            "}\n"
        )
        self.assertIn(("unordered-iter", 3), analyze_source(src))

    def test_flags_begin_call_and_alias(self):
        src = (
            "using Index = std::unordered_map<std::string, int>;\n"
            "void F() {\n"
            "  Index index;\n"
            "  auto it = index.begin();\n"
            "}\n"
        )
        self.assertIn(("unordered-iter", 4), analyze_source(src))

    def test_flags_member_iteration(self):
        src = (
            "class C {\n"
            "  void F() {\n"
            "    for (const auto& kv : map_) {\n"
            "    }\n"
            "  }\n"
            "  // ros_analyze: allow(unordered-member): point lookups\n"
            "  std::unordered_map<int, int> map_;\n"
            "};\n"
        )
        self.assertIn(("unordered-iter", 3), analyze_source(src))

    def test_point_lookups_and_ordered_iteration_not_flagged(self):
        src = (
            "void F() {\n"
            "  std::unordered_map<int, int> m;\n"
            "  std::map<int, int> ordered;\n"
            "  auto it = m.find(3);\n"
            "  m.erase(3);\n"
            "  for (const auto& kv : ordered) {\n"
            "  }\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])

    def test_allow_annotation_suppresses(self):
        src = (
            "void F() {\n"
            "  std::unordered_set<int> s;\n"
            "  // ros_analyze: allow(unordered-iter): order-insensitive\n"
            "  for (int v : s) {\n"
            "    total += v;\n"
            "  }\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])


class UnorderedMemberTest(unittest.TestCase):
    def test_flags_unannotated_member(self):
        src = (
            "class C {\n"
            "  std::unordered_map<std::string, int> index_;\n"
            "};\n"
        )
        self.assertIn(("unordered-member", 2), analyze_source(src))

    def test_annotated_member_and_local_not_flagged(self):
        src = (
            "class C {\n"
            "  // ros_analyze: allow(unordered-member): point lookups\n"
            "  // only; never iterated.\n"
            "  std::unordered_map<std::string, int> index_;\n"
            "  void F() {\n"
            "    std::unordered_map<int, int> local;\n"
            "    local.count(1);\n"
            "  }\n"
            "};\n"
        )
        self.assertEqual(rules_of(src), [])


class PointerOrderTest(unittest.TestCase):
    def test_flags_pointer_keyed_map_set_and_less(self):
        cases = [
            "std::map<Foo*, int> by_ptr;",
            "std::set<const Node*> visited;",
            "std::set<int, std::less<int*>> weird;",
        ]
        for stmt in cases:
            src = "void F() {\n  " + stmt + "\n}\n"
            self.assertIn("pointer-order", rules_of(src), msg=stmt)

    def test_flags_uintptr_casts(self):
        src = (
            "bool Less(const Foo* a, const Foo* b) {\n"
            "  return reinterpret_cast<uintptr_t>(a) <\n"
            "         reinterpret_cast<std::uintptr_t>(b);\n"
            "}\n"
        )
        self.assertIn("pointer-order", rules_of(src))

    def test_value_keyed_containers_not_flagged(self):
        src = (
            "void F() {\n"
            "  std::map<std::string, Foo*> by_name;\n"  # pointer VALUES ok
            "  std::set<int> ids;\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])


class ViewAcrossSuspendTest(unittest.TestCase):
    def test_flags_iterator_read_after_await(self):
        src = (
            "sim::Task<int> F() {\n"
            "  auto it = map_.find(key);\n"
            "  co_await sim_.Delay(1);\n"
            "  co_return it->second;\n"
            "}\n"
        )
        findings = analyze_source(src)
        self.assertIn(("view-across-suspend", 4), findings)

    def test_flags_string_view_and_borrowed_pointer(self):
        src = (
            "sim::Task<void> F() {\n"
            "  std::string_view view = Name();\n"
            "  co_await Work();\n"
            "  Use(view);\n"
            "  co_return;\n"
            "}\n"
            "sim::Task<void> G() {\n"
            "  const Image* image = mounted->second.get();\n"
            "  co_await Work();\n"
            "  image->Read();\n"
            "  co_return;\n"
            "}\n"
        )
        rules = [r for r, _l in analyze_source(src)]
        self.assertEqual(rules.count("view-across-suspend"), 2)

    def test_use_before_await_not_flagged(self):
        src = (
            "sim::Task<int> F() {\n"
            "  auto it = map_.find(key);\n"
            "  int v = it->second;\n"
            "  co_await sim_.Delay(1);\n"
            "  co_return v;\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])

    def test_same_statement_await_operand_not_flagged(self):
        # The read happens while building the co_await operand — before
        # the suspension — so it is safe.
        src = (
            "sim::Task<int> F() {\n"
            "  auto it = locks_.find(path);\n"
            "  co_return co_await it->second->Lock();\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])

    def test_reacquire_after_await_kills_liveness(self):
        # The re-acquire idiom: reassigning after the suspension makes
        # later reads safe.
        src = (
            "sim::Task<int> F() {\n"
            "  auto handle = handles_.find(path);\n"
            "  co_await sim_.Delay(cost);\n"
            "  handle = handles_.find(path);\n"
            "  co_return handle->second;\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])

    def test_non_coroutine_and_nested_lambda_not_flagged(self):
        src = (
            "int Plain() {\n"
            "  auto it = map_.find(key);\n"
            "  return it->second;\n"
            "}\n"
            "sim::Task<void> G() {\n"
            "  co_await Work();\n"
            "  auto fn = [this] {\n"
            "    auto it = map_.find(0);\n"
            "    Use(it);\n"
            "  };\n"
            "  fn();\n"
            "  co_return;\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])

    def test_flags_reference_bound_through_iterator(self):
        # The shape of a stream handle grown across a bucket write: the
        # iterator is re-acquired after one suspension, then an element
        # reference taken through it lives across the next.
        src = (
            "sim::Task<Status> F() {\n"
            "  auto handle = handles_.find(path);\n"
            "  co_await sim_.Delay(cost);\n"
            "  handle = handles_.find(path);\n"
            "  IndexFile& index = handle->second;\n"
            "  co_await Write();\n"
            "  co_return index.Update();\n"
            "}\n"
            "sim::Task<void> G() {\n"
            "  std::map<int, int>::iterator it = map_.begin();\n"
            "  auto& value = *it;\n"
            "  co_await Work();\n"
            "  value = 3;\n"
            "  co_return;\n"
            "}\n"
        )
        findings = analyze_source(src)
        self.assertIn(("view-across-suspend", 7), findings)
        self.assertIn(("view-across-suspend", 13), findings)

    def test_reference_through_iterator_used_before_await_not_flagged(self):
        src = (
            "sim::Task<int> F() {\n"
            "  auto it = map_.find(key);\n"
            "  const Entry& entry = it->second;\n"
            "  int v = entry.size;\n"
            "  co_await sim_.Delay(1);\n"
            "  co_return v;\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])

    def test_allow_annotation_suppresses(self):
        src = (
            "sim::Task<int> F() {\n"
            "  // ros_analyze: allow(view-across-suspend): map is only\n"
            "  // mutated at shutdown, which cannot overlap this path.\n"
            "  auto it = map_.find(key);\n"
            "  co_await sim_.Delay(1);\n"
            "  co_return it->second;\n"
            "}\n"
        )
        self.assertEqual(rules_of(src), [])


class StaleAllowTest(unittest.TestCase):
    def test_unused_annotation_is_detected(self):
        src = (
            "void F() {\n"
            "  // ros_analyze: allow(wallclock): obsolete excuse\n"
            "  int x = 1;\n"
            "}\n"
        )
        fa = ros_analyze.FileAnalyze("test.cc", src, "src/foo/test.cc")
        fa.run()
        annotations = fa.allow.annotations(fa.lines)
        stale = [(l, r) for l, r in annotations
                 if r in ros_analyze.RULES and (l, r) not in fa.allow.used]
        self.assertEqual(stale, [(2, "wallclock")])

    def test_used_annotation_is_not_stale(self):
        src = (
            "void F() {\n"
            "  // ros_analyze: allow(wallclock): bench timing\n"
            "  auto t = std::chrono::steady_clock::now();\n"
            "}\n"
        )
        fa = ros_analyze.FileAnalyze("test.cc", src, "src/foo/test.cc")
        fa.run()
        stale = [(l, r) for l, r in fa.allow.annotations(fa.lines)
                 if r in ros_analyze.RULES and (l, r) not in fa.allow.used]
        self.assertEqual(stale, [])


class CorpusTest(unittest.TestCase):
    def test_source_tree_is_clean(self):
        """The determinism contract: zero findings (and zero stale
        allows) over src/, bench/ and tests/ at HEAD."""
        rc = ros_analyze.main(
            ["--check-allows"] +
            [os.path.join(REPO_ROOT, d) for d in ("src", "bench", "tests")])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
