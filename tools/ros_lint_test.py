#!/usr/bin/env python3
"""Unit tests for tools/ros_lint.py (run via ctest or directly)."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ros_lint


def lint_source(source, status_fns=None, extra_decls=""):
    """Lints a single in-memory translation unit; returns finding rules
    with line numbers. `extra_decls` participates in status-fn inventory
    without being linted (models a header elsewhere in the tree)."""
    files = {"test.cc": source}
    if extra_decls:
        files["decls.h"] = extra_decls
    fns = status_fns if status_fns is not None \
        else ros_lint.collect_status_fns(files)
    lint = ros_lint.FileLint("test.cc", source, fns)
    return [(f.rule, f.line) for f in lint.run()]


class StripTest(unittest.TestCase):
    def test_strips_comments_and_strings_preserving_offsets(self):
        src = 'int x; // new Foo\nconst char* s = "delete p";\n/* new */ int y;\n'
        out = ros_lint.strip_comments_and_strings(src)
        self.assertEqual(len(out), len(src))
        self.assertNotIn("new", out)
        self.assertNotIn("delete", out)
        self.assertEqual(out.count("\n"), src.count("\n"))

    def test_raw_string_contents_blanked(self):
        src = 'auto j = R"({"a": "new X"})";\nint z;\n'
        out = ros_lint.strip_comments_and_strings(src)
        self.assertNotIn("new X", out)
        self.assertIn("int z;", out)


class DiscardedStatusTest(unittest.TestCase):
    DECLS = "Status DoWork(int x);\nsim::Task<Status> AsyncWork();\n"

    def test_flags_bare_call(self):
        rules = lint_source("void f() {\n  DoWork(1);\n}\n",
                            extra_decls=self.DECLS)
        self.assertIn(("discarded-status", 2), rules)

    def test_flags_bare_co_await(self):
        src = "sim::Task<void> f() {\n  co_await AsyncWork();\n}\n"
        rules = lint_source(src, extra_decls=self.DECLS)
        self.assertIn(("discarded-status", 2), rules)

    def test_consumed_results_not_flagged(self):
        src = (
            "Status g() {\n"
            "  ROS_RETURN_IF_ERROR(DoWork(1));\n"
            "  Status s = DoWork(2);\n"
            "  if (!DoWork(3).ok()) { return s; }\n"
            "  (void)DoWork(4);\n"
            "  return DoWork(5);\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src, extra_decls=self.DECLS)]
        self.assertNotIn("discarded-status", rules)

    def test_continuation_line_not_flagged(self):
        # `auto x =` on one line, the call on the next: consumed, not
        # discarded, even though the call starts its own line.
        src = (
            "sim::Task<void> f() {\n"
            "  auto s =\n"
            "      co_await AsyncWork();\n"
            "  (void)s;\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src, extra_decls=self.DECLS)]
        self.assertNotIn("discarded-status", rules)

    def test_ambiguous_name_not_flagged(self):
        # Put returns void on one class and Status on another: the
        # name-matching checker must drop it rather than guess.
        decls = "Status Put(int x);\nvoid Put(double y);\n"
        rules = lint_source("void f() {\n  Put(1);\n}\n", extra_decls=decls)
        self.assertEqual(rules, [])

    def test_inline_allow_suppresses(self):
        src = (
            "void f() {\n"
            "  // ros-lint: allow(discarded-status): best-effort probe\n"
            "  DoWork(1);\n"
            "}\n"
        )
        self.assertEqual(lint_source(src, extra_decls=self.DECLS), [])


class CoroRefParamTest(unittest.TestCase):
    def test_flags_ref_and_string_view_params(self):
        src = (
            "sim::Task<Status> f(const std::string& name,\n"
            "                    std::string_view tag, int n) {\n"
            "  co_return OkStatus();\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertEqual(rules.count("coro-ref-param"), 2)

    def test_by_value_params_clean(self):
        src = ("sim::Task<Status> f(std::string name, int n) {\n"
               "  co_return OkStatus();\n}\n")
        self.assertEqual(lint_source(src), [])

    def test_declaration_not_flagged(self):
        # Only definitions are coroutines; a declaration has no body.
        src = "sim::Task<Status> f(const std::string& name);\n"
        self.assertEqual(lint_source(src), [])

    def test_non_coroutine_task_wrapper_not_flagged(self):
        # Task-returning but no co_* in the body: plain forwarding
        # function, references are fine.
        src = ("sim::Task<Status> f(const std::string& name) {\n"
               "  return g(name);\n}\n")
        self.assertEqual(lint_source(src), [])

    def test_multiline_allow_comment_suppresses(self):
        src = (
            "// ros-lint: allow(coro-ref-param): sim outlives every task\n"
            "// it runs, so the reference cannot dangle.\n"
            "sim::Task<Status> f(Simulator& sim) {\n"
            "  co_return OkStatus();\n"
            "}\n"
        )
        self.assertEqual(lint_source(src), [])


class CoroRefLambdaTest(unittest.TestCase):
    def test_flags_ref_capture_coroutine_lambda(self):
        src = ("void f() {\n"
               "  auto t = [&]() -> sim::Task<void> {\n"
               "    co_await Tick();\n"
               "  };\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertIn("coro-ref-lambda", rules)

    def test_flags_directly_awaited_ref_lambda(self):
        src = ("sim::Task<void> f() {\n"
               "  co_await Run([&] { return x; });\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertIn("coro-ref-lambda", rules)

    def test_plain_callback_lambda_clean(self):
        # Synchronous visitor callbacks capture by reference all over the
        # tree; without co_await involvement they are fine.
        src = ("void f() {\n"
               "  image.Walk([&](const Node& n) { count += 1; });\n"
               "}\n")
        self.assertEqual(lint_source(src), [])


class RawNewDeleteTest(unittest.TestCase):
    def test_flags_new_and_delete(self):
        src = ("void f() {\n"
               "  auto* p = new Foo();\n"
               "  delete p;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertEqual(rules.count("raw-new-delete"), 2)

    def test_deleted_functions_clean(self):
        src = ("struct Foo {\n"
               "  Foo(const Foo&) = delete;\n"
               "  Foo& operator=(const Foo&) = delete;\n"
               "};\n")
        self.assertEqual(lint_source(src), [])

    def test_make_unique_and_strings_clean(self):
        src = ('void f() {\n'
               '  auto p = std::make_unique<Foo>();\n'
               '  std::string s = "new and delete in a string";\n'
               '  // new in a comment\n'
               '}\n')
        self.assertEqual(lint_source(src), [])


class ListSizeOnlyTest(unittest.TestCase):
    def test_flags_chained_size_and_empty(self):
        src = ("void f() {\n"
               "  auto n = volume_->List(prefix).size();\n"
               "  if (volume.List(\"/idx/\").empty()) { return; }\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertEqual(rules.count("list-size-only"), 2)

    def test_multiline_chain_flagged(self):
        src = ("void f() {\n"
               "  auto n = volume_->List(LongPrefixExpression(a, b))\n"
               "               .size();\n"
               "}\n")
        rules = lint_source(src)
        self.assertIn(("list-size-only", 2), rules)

    def test_stored_or_iterated_result_clean(self):
        # Materializing the vector and *using* it is the point of List;
        # only size/emptiness-of-a-temporary is the smell.
        src = ("void f() {\n"
               "  auto names = volume_->List(prefix);\n"
               "  for (const auto& n : names) { Use(n); }\n"
               "  auto count = names.size();\n"
               "}\n")
        self.assertEqual(lint_source(src), [])

    def test_list_children_not_flagged(self):
        # Exact-name match only: ListChildren returns direct children and
        # has no CountPrefix analogue.
        src = ("void f() {\n"
               "  auto n = volume_->ListChildren(prefix).size();\n"
               "}\n")
        self.assertEqual(lint_source(src), [])

    def test_inline_allow_suppresses(self):
        src = ("void f() {\n"
               "  // ros-lint: allow(list-size-only): test asserts contents\n"
               "  auto n = volume_->List(prefix).size();\n"
               "}\n")
        self.assertEqual(lint_source(src), [])


class RetryUnclassifiedTest(unittest.TestCase):
    def test_flags_ok_only_retry_loop(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = co_await DoWork();\n"
            "    if (s.ok()) { co_return s; }\n"
            "    co_await sim_.Delay(backoff);\n"
            "  }\n"
            "  co_return UnavailableError(\"gave up\");\n"
            "}\n"
        )
        rules = lint_source(src)
        self.assertIn(("retry-unclassified", 2), rules)

    def test_flags_retry_named_while_loop(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  while (retries_left > 0) {\n"
            "    auto s = co_await DoWork();\n"
            "    if (s.ok()) { co_return OkStatus(); }\n"
            "  }\n"
            "  co_return last;\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertIn("retry-unclassified", rules)

    def test_code_classification_clean(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = co_await DoWork();\n"
            "    if (s.ok()) { co_return s; }\n"
            "    if (s.code() != StatusCode::kUnavailable) { co_return s; }\n"
            "  }\n"
            "  co_return UnavailableError(\"gave up\");\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("retry-unclassified", rules)

    def test_retrier_await_retry_clean(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  sim::Retrier retrier(sim_, policy, seed);\n"
            "  while (true) {\n"
            "    Status s = co_await DoWork();\n"
            "    if (s.ok()) { co_return s; }\n"
            "    if (!co_await retrier.AwaitRetry(s)) { co_return s; }\n"
            "  }\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("retry-unclassified", rules)

    def test_non_retry_loop_clean(self):
        # Ordinary work loops co_await Status all over the tree; without a
        # retry-ish name there is nothing to classify.
        src = (
            "sim::Task<Status> f() {\n"
            "  for (const auto& entry : entries) {\n"
            "    Status s = co_await Process(entry);\n"
            "    if (!s.ok()) { co_return s; }\n"
            "  }\n"
            "  co_return OkStatus();\n"
            "}\n"
        )
        self.assertEqual(lint_source(src), [])

    def test_entries_identifier_is_not_tries(self):
        # `entries` / `num_tries` must not make a loop retry-ish.
        src = (
            "sim::Task<Status> f() {\n"
            "  while (entries > 0) {\n"
            "    Status s = co_await Pop();\n"
            "    if (!s.ok()) { co_return s; }\n"
            "    --entries;\n"
            "  }\n"
            "  co_return OkStatus();\n"
            "}\n"
        )
        self.assertEqual(lint_source(src), [])

    def test_synchronous_retry_loop_out_of_scope(self):
        # No co_await: not the coroutine-retry shape this rule targets.
        src = (
            "Status f() {\n"
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = TryOnce();\n"
            "    if (s.ok()) { return s; }\n"
            "  }\n"
            "  return UnavailableError(\"gave up\");\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("retry-unclassified", rules)

    def test_inline_allow_suppresses(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  // ros-lint: allow(retry-unclassified): probe loop, any\n"
            "  // failure is worth one more poll\n"
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = co_await DoWork();\n"
            "    if (s.ok()) { co_return s; }\n"
            "  }\n"
            "  co_return UnavailableError(\"gave up\");\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("retry-unclassified", rules)


class AcquireBayTest(unittest.TestCase):
    CLAIM = ("void f() {\n"
             "  bool ok = mech_->TryClaimBay(bay);\n"
             "  (void)ok;\n"
             "}\n")
    BURN = ("sim::Task<void> f() {\n"
            "  int bay = co_await scheduler_->AcquireForBurn();\n"
            "  (void)bay;\n"
            "}\n")

    def rules_in(self, name, src):
        return [f.rule for f in ros_lint.FileLint(name, src, set()).run()]

    def test_flags_direct_calls(self):
        self.assertIn(("acquire-bay", 2), lint_source(self.CLAIM))
        self.assertIn(("acquire-bay", 2), lint_source(self.BURN))

    def test_owner_files_exempt(self):
        # The scheduler and the defining controller may make the raw
        # claim; only the burn manager and the scheduler the burn claim.
        for name in ("src/olfs/fetch_scheduler.cc",
                     "src/olfs/mech_controller.cc",
                     "src/olfs/mech_controller.h"):
            self.assertNotIn("acquire-bay", self.rules_in(name, self.CLAIM),
                             name)
        for name in ("src/olfs/burn_manager.cc",
                     "src/olfs/fetch_scheduler.cc",
                     "src/olfs/fetch_scheduler.h"):
            self.assertNotIn("acquire-bay", self.rules_in(name, self.BURN),
                             name)

    def test_owners_are_per_call(self):
        # Owning one claim does not license the other.
        self.assertIn("acquire-bay", self.rules_in(
            "src/olfs/burn_manager.cc", self.CLAIM))
        self.assertIn("acquire-bay", self.rules_in(
            "src/olfs/mech_controller.cc", self.BURN))
        self.assertIn("acquire-bay", self.rules_in(
            "src/olfs/olfs.cc", self.BURN))

    def test_inline_allow_suppresses(self):
        src = ("sim::Task<void> f() {\n"
               "  // ros-lint: allow(acquire-bay): forces an eviction\n"
               "  int bay = co_await scheduler_->AcquireForBurn();\n"
               "  (void)bay;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("acquire-bay", rules)

    def test_allow_above_wrapped_call_suppresses(self):
        # The call sits on a continuation line; the finding must anchor at
        # the statement start so the annotation covers it.
        src = ("void f() {\n"
               "  // ros-lint: allow(acquire-bay): staging bay occupancy\n"
               "  ROS_CHECK(\n"
               "      mech_->TryClaimBay(bay));\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("acquire-bay", rules)

    def test_similar_names_and_comments_clean(self):
        src = ("sim::Task<void> f() {\n"
               "  // callers go through TryClaimBay(...) eventually\n"
               "  auto a = mech_->MaybeTryClaimBay(bay);\n"
               "  auto b = co_await sched_->AcquireForRead(address);\n"
               "  auto c = sched_->AcquireForBurnLater();\n"
               "  (void)a; (void)b; (void)c;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("acquire-bay", rules)


class SpeculativeFetchTest(unittest.TestCase):
    CALL = ("sim::Task<void> Prefetch() {\n"
            "  auto bay = co_await scheduler_->AcquireForRead(address);\n"
            "  (void)bay;\n"
            "}\n")

    def test_flags_direct_call(self):
        self.assertIn(("speculative-fetch", 2), lint_source(self.CALL))

    def test_owner_files_exempt(self):
        # The fetch manager brokers demand leases; the scheduler defines
        # the API. Both enqueue demand legitimately.
        for name in ("src/olfs/fetch_manager.cc",
                     "src/olfs/fetch_scheduler.cc",
                     "src/olfs/fetch_scheduler.h"):
            lint = ros_lint.FileLint(name, self.CALL, set())
            rules = [f.rule for f in lint.run()]
            self.assertNotIn("speculative-fetch", rules, name)

    def test_inline_allow_suppresses(self):
        src = ("sim::Task<void> Prefetch() {\n"
               "  // ros-lint: allow(speculative-fetch): demand-priority "
               "restore\n"
               "  auto bay = co_await scheduler_->AcquireForRead(address);\n"
               "  (void)bay;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("speculative-fetch", rules)

    def test_allow_above_wrapped_macro_call_suppresses(self):
        src = ("sim::Task<void> Prefetch() {\n"
               "  // ros-lint: allow(speculative-fetch): repair path\n"
               "  ROS_CO_ASSIGN_OR_RETURN(\n"
               "      bay, co_await scheduler_->AcquireForRead(address));\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("speculative-fetch", rules)

    def test_background_class_and_comments_clean(self):
        src = ("sim::Task<void> Prefetch() {\n"
               "  // readers go through AcquireForRead(...) eventually\n"
               "  scheduler_->EnqueueSpeculative(tray);\n"
               "  co_return;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("speculative-fetch", rules)


class CoroConditionalAwaitTest(unittest.TestCase):
    def test_flags_awaited_conditional(self):
        src = ("sim::Task<void> f(bool c) {\n"
               "  auto s = co_await (c ? A() : B());\n"
               "  (void)s;\n"
               "}\n")
        self.assertIn(("coro-conditional-await", 2), lint_source(src))

    def test_flags_multiline_and_unspaced(self):
        src = ("sim::Task<void> f(bool c) {\n"
               "  auto s = co_await(c\n"
               "                        ? A(1)\n"
               "                        : B(2));\n"
               "  (void)s;\n"
               "}\n")
        self.assertIn(("coro-conditional-await", 2), lint_source(src))

    def test_await_in_each_branch_clean(self):
        src = ("sim::Task<void> f(bool c) {\n"
               "  auto s = c ? co_await A() : co_await B();\n"
               "  (void)s;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("coro-conditional-await", rules)

    def test_if_else_clean(self):
        src = ("sim::Task<void> f(bool c) {\n"
               "  StatusOr<int> s = 0;\n"
               "  if (c) {\n"
               "    s = co_await A();\n"
               "  } else {\n"
               "    s = co_await B();\n"
               "  }\n"
               "  (void)s;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("coro-conditional-await", rules)

    def test_nested_conditional_and_literals_clean(self):
        # The `?` sits inside the call's own arguments, in a string or in
        # a character literal: the awaited operand is not a conditional.
        src = ("sim::Task<void> f(bool c) {\n"
               "  auto s = co_await (A(c ? 1 : 2));\n"
               "  auto t = co_await (B(\"a?b\", '?'));\n"
               "  (void)s;\n"
               "  (void)t;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("coro-conditional-await", rules)


class AllowlistTest(unittest.TestCase):
    def test_allowlist_file_filters_by_suffix_and_rule(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "gen.cc")
            with open(src, "w") as fh:
                fh.write("void f() {\n  auto* p = new Foo();\n  (void)p;\n}\n")
            allow = os.path.join(tmp, "allow.txt")
            with open(allow, "w") as fh:
                fh.write("# generated code\ngen.cc:raw-new-delete\n")
            rc = ros_lint.main([src, "--allowlist", allow])
            self.assertEqual(rc, 0)
            rc = ros_lint.main([src, "--allowlist",
                                os.path.join(tmp, "missing.txt")])
            self.assertEqual(rc, 1)


if __name__ == "__main__":
    unittest.main()
