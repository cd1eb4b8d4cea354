#!/usr/bin/env python3
"""ros-lint: repo-specific static checks for Status and coroutine discipline.

A deliberately small "clang-AST-lite" checker (regex + brace matching over
preprocessed-ish text) that enforces the four invariants the ROS codebase
leans on but the compiler cannot fully check:

  discarded-status    A call to a Status / StatusOr / sim::Task<Status>
                      returning function whose result is dropped on the
                      floor (not returned, assigned, tested, wrapped in
                      ROS_RETURN_IF_ERROR / ROS_CO_RETURN_IF_ERROR, or
                      explicitly voided with `(void)`).

  coro-ref-param      A sim::Task coroutine *definition* taking a parameter
                      by reference or as std::string_view. Coroutine frames
                      capture references, not referents: once the coroutine
                      suspends at a co_await, a caller's temporary bound to
                      that reference may be gone when it resumes
                      (CP.53-style hazard). Parameters should be by value;
                      a justified exception carries an inline
                      `// ros-lint: allow(coro-ref-param): <why>` on the
                      signature line or the line above.

  coro-ref-lambda     A lambda with by-reference captures (`[&]` / `[&x]`)
                      that is itself a coroutine (its body co_awaits) or is
                      directly co_awaited. Same dangling shape as above:
                      the lambda object usually dies at the first
                      suspension point while the frame keeps the captures.

  raw-new-delete      Raw `new` / `delete` expressions. The codebase owns
                      memory through containers and std::unique_ptr only.

  list-size-only      `List(...)` immediately chained into `.size()` or
                      `.empty()`: the call materializes a vector of every
                      matching name just to count it (or test for one).
                      Volume offers CountPrefix / AnyWithPrefix that answer
                      the same question without the allocation.

  retry-unclassified  A retry loop (header or body names retry / attempt /
                      backoff / tries) that co_awaits Status-returning work
                      and branches only on `.ok()`, never classifying the
                      failure (`status.code()`, `sim::IsTransient`,
                      `Retrier::AwaitRetry`, `StatusCode::`). Retrying
                      without classification spins on permanent errors
                      (kDataLoss, kNotFound) that no backoff will cure;
                      transient-vs-permanent is the whole point of
                      src/sim/retry.h.

  acquire-bay         A bay claim outside the one bay arbiter. The
                      FetchScheduler picks every bay and unload victim;
                      MechController::TryClaimBay, the raw claim it
                      executes them with, is a finding outside
                      fetch_scheduler.cc and mech_controller.*, and
                      FetchScheduler::AcquireForBurn (a claim granted
                      ahead of every read and outside the aging bound) is
                      a finding outside burn_manager.cc and
                      fetch_scheduler.*. A
                      claim made elsewhere bypasses tray batching, the
                      demand-aware victim policy and the aging bound. Route
                      reads through FetchScheduler::AcquireForRead; a
                      justified direct claim carries an inline
                      `// ros-lint: allow(acquire-bay): <why>`.

  speculative-fetch   A direct FetchScheduler::AcquireForRead call outside
                      the demand path's owners (the fetch manager's lease
                      broker and the scheduler itself). Background work —
                      predictive prefetch, whole-tray readahead, scrubs —
                      that enqueues through the demand path competes with
                      real readers for bays and can evict demanded trays;
                      it must use FetchScheduler::EnqueueSpeculative, which
                      yields to demand and cancels cleanly (scrub, audit
                      and refresh sweeps claim through the background
                      class, FetchClass::kBackground). A
                      justified demand-priority call carries an inline
                      `// ros-lint: allow(speculative-fetch): <why>`.

  coro-conditional-await
                      `co_await (c ? A() : B())`: a co_await whose
                      parenthesised operand has a top-level `?`. GCC 12
                      miscompiles this on sim::Task (the chosen task's
                      frame is freed while it is awaited, a
                      heap-use-after-free under ASan). Await in each
                      branch instead: if/else, or
                      `c ? co_await A() : co_await B()`.

Usage:
    tools/ros_lint.py [paths...]          # default: src/ of the repo root
    tools/ros_lint.py --list-status-fns   # debug: dump the Status fn set

Suppressions:
  - inline: `// ros-lint: allow(<rule>[, <rule>...]): justification`
    applies to its own line and the statement that starts on the next line.
  - file: tools/ros_lint_allow.txt, lines of `<path-suffix>:<rule>`; use
    sparingly — inline annotations keep the justification next to the code.
  - `--check-allows` inverts the relationship: it reports inline allow
    markers that no longer suppress anything (the code they excused was
    fixed or deleted), so justifications cannot rot in place.

Exit status: 0 when clean, 1 when findings were printed, 2 on usage error.

The lexing substrate (comment/string stripping, bracket matching) lives in
tools/cpptok.py, shared with tools/ros_analyze.py.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpptok
from cpptok import (  # noqa: F401  (re-exported for tests and callers)
    find_matching,
    line_of,
    split_top_level,
    strip_comments_and_strings,
)

RULES = (
    "discarded-status",
    "coro-ref-param",
    "coro-ref-lambda",
    "raw-new-delete",
    "list-size-only",
    "retry-unclassified",
    "acquire-bay",
    "speculative-fetch",
    "coro-conditional-await",
)

@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class FileLint:
    def __init__(self, path: str, text: str, status_fns: set[str]):
        self.path = path
        self.text = text
        self.stripped = strip_comments_and_strings(text)
        self.lines = text.splitlines()
        self.status_fns = status_fns
        self.findings: list[Finding] = []
        self.allow = cpptok.make_allow_checker("ros-lint")

    # --- suppression -----------------------------------------------------

    def allowed(self, line: int, rule: str) -> bool:
        """True when an allow annotation covers `rule` (1-based line): on
        the line itself, or anywhere in the contiguous `//` comment block
        immediately above it (justifications often wrap to several lines).
        Consulted annotations are recorded on `self.allow.used` so
        `--check-allows` can report markers that stopped earning their
        keep."""
        return self.allow(self.lines, line, rule)

    def stale_allows(self) -> list[tuple[int, str]]:
        """(line, rule) for every inline allow marker that suppressed
        nothing during `run()`. Call after `run()`."""
        return [(line, rule)
                for line, rule in self.allow.annotations(self.lines)
                if rule in RULES and (line, rule) not in self.allow.used]

    def report(self, index: int, rule: str, message: str) -> None:
        line = line_of(self.stripped, index)
        if not self.allowed(line, rule):
            self.findings.append(Finding(self.path, line, rule, message))

    # --- rule: discarded-status -----------------------------------------

    STMT_CALL_RE = re.compile(
        r"(?m)^[ \t]*(?P<await>co_await[ \t]+)?"
        r"(?P<expr>[A-Za-z_][\w]*(?:(?:\.|->|::)[A-Za-z_]\w*)*)\s*\("
    )

    def check_discarded_status(self) -> None:
        for m in self.STMT_CALL_RE.finditer(self.stripped):
            callee = m.group("expr").split("::")[-1]
            callee = re.split(r"\.|->", callee)[-1]
            if callee not in self.status_fns:
                continue
            # A match at the start of a line is only a *statement* if the
            # previous token ended one: `auto x =\n  co_await Foo(...);`
            # puts the call at a line start but it is a continuation, not
            # a discard. Same for multi-line declarations.
            before = self.stripped[: m.start()].rstrip()
            if before and before[-1] not in ";{}":
                continue
            open_paren = self.stripped.index("(", m.end() - 1)
            end = find_matching(self.stripped, open_paren, "(", ")")
            if end < 0:
                continue
            rest = self.stripped[end:].lstrip()
            # Only a statement-terminating `;` means the value was dropped;
            # `.`, `->`, operators etc. mean the result is being consumed.
            if not rest.startswith(";"):
                continue
            # Control-flow keywords never reach here (they are not in the
            # status fn set), but a same-line prefix like `return` or an
            # assignment would not match ^\s* either.
            self.report(
                m.start(),
                "discarded-status",
                f"result of Status-returning '{callee}(...)' is discarded; "
                "propagate it (ROS_RETURN_IF_ERROR / ROS_CO_RETURN_IF_ERROR),"
                " handle it, or cast to (void) with a comment",
            )

    # --- rule: coro-ref-param -------------------------------------------

    TASK_FN_RE = re.compile(
        r"(?:sim::|ros::sim::)?Task<[^;{}()]*>\s+"
        r"(?P<name>[A-Za-z_][\w:]*)\s*\("
    )

    def check_coro_ref_param(self) -> None:
        for m in self.TASK_FN_RE.finditer(self.stripped):
            open_paren = self.stripped.index("(", m.end() - 1)
            params_end = find_matching(self.stripped, open_paren, "(", ")")
            if params_end < 0:
                continue
            # Definition? Look for `{` (allowing const / noexcept etc.).
            after = self.stripped[params_end:]
            brace_off = re.match(r"[\sA-Za-z&:]*\{", after)
            if not brace_off:
                continue  # declaration only
            body_start = params_end + brace_off.end() - 1
            body_end = find_matching(self.stripped, body_start, "{", "}")
            if body_end < 0:
                body_end = len(self.stripped)
            body = self.stripped[body_start:body_end]
            if "co_await" not in body and "co_return" not in body and \
                    "co_yield" not in body:
                continue  # Task-returning but not itself a coroutine
            params = self.stripped[open_paren + 1 : params_end - 1]
            for param in split_top_level(params):
                p = param.strip()
                if not p:
                    continue
                if "&" in p or "string_view" in p:
                    self.report(
                        m.start(),
                        "coro-ref-param",
                        f"coroutine '{m.group('name')}' takes "
                        f"'{' '.join(p.split())}' — references/string_views "
                        "can dangle across co_await; pass by value or "
                        "annotate with ros-lint: allow(coro-ref-param)",
                    )

    # --- rule: coro-ref-lambda ------------------------------------------

    REF_CAPTURE_RE = re.compile(r"\[\s*&")

    def check_coro_ref_lambda(self) -> None:
        for m in self.REF_CAPTURE_RE.finditer(self.stripped):
            # Must look like a lambda introducer: `[&...] (` or `[&...] {`
            # or `[&...] mutable` etc.
            close = self.stripped.find("]", m.start())
            if close < 0:
                continue
            after = self.stripped[close + 1 :].lstrip()
            if not after.startswith(("(", "{", "mutable", "->")):
                continue
            # Find the lambda body.
            idx = close + 1
            while idx < len(self.stripped) and self.stripped[idx] != "{":
                if self.stripped[idx] == "(":
                    idx = find_matching(self.stripped, idx, "(", ")")
                    if idx < 0:
                        return
                else:
                    idx += 1
            if idx >= len(self.stripped):
                continue
            body_end = find_matching(self.stripped, idx, "{", "}")
            if body_end < 0:
                continue
            body = self.stripped[idx:body_end]
            is_coroutine = "co_await" in body or "co_return" in body
            # co_awaited directly: `co_await [&]{...}()` style.
            stmt_start = max(
                self.stripped.rfind(";", 0, m.start()),
                self.stripped.rfind("{", 0, m.start()),
            )
            prefix = self.stripped[stmt_start + 1 : m.start()]
            directly_awaited = "co_await" in prefix
            if is_coroutine or directly_awaited:
                self.report(
                    m.start(),
                    "coro-ref-lambda",
                    "by-reference lambda capture in a co_await context — "
                    "the lambda object (and its captures) can die at the "
                    "first suspension point; capture by value or annotate "
                    "with ros-lint: allow(coro-ref-lambda)",
                )

    # --- rule: raw-new-delete -------------------------------------------

    NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(:<]")
    DELETE_RE = re.compile(r"(?<![\w.])delete\s*(\[\s*\])?\s*[A-Za-z_*(]")

    def check_raw_new_delete(self) -> None:
        for m in self.NEW_RE.finditer(self.stripped):
            self.report(
                m.start(),
                "raw-new-delete",
                "raw 'new' — use std::make_unique / containers",
            )
        for m in self.DELETE_RE.finditer(self.stripped):
            # `= delete` / `= delete;` are declarations, not expressions.
            before = self.stripped[: m.start()].rstrip()
            if before.endswith("="):
                continue
            self.report(
                m.start(),
                "raw-new-delete",
                "raw 'delete' — owning pointers must be std::unique_ptr",
            )

    # --- rule: list-size-only -------------------------------------------

    LIST_CALL_RE = re.compile(r"(?:\.|->)\s*List\s*\(")

    def check_list_size_only(self) -> None:
        for m in self.LIST_CALL_RE.finditer(self.stripped):
            open_paren = self.stripped.index("(", m.end() - 1)
            end = find_matching(self.stripped, open_paren, "(", ")")
            if end < 0:
                continue
            rest = self.stripped[end:].lstrip()
            tail = re.match(r"(?:\.|->)\s*(size|empty)\s*\(\s*\)", rest)
            if not tail:
                continue
            self.report(
                m.start(),
                "list-size-only",
                f"List(...).{tail.group(1)}() materializes every matching "
                "name just to measure the result; use CountPrefix(...) for "
                "counts or AnyWithPrefix(...) for emptiness",
            )

    # --- rule: retry-unclassified ---------------------------------------

    LOOP_RE = re.compile(r"(?<![\w.])(?:while|for)\s*\(")
    # Whole identifiers only: `entries`/`num_tries` must not count as
    # `tries` (hence the explicit non-word-char lookarounds instead of \b,
    # which would let `_`-joined identifiers through).
    RETRYISH_RE = re.compile(
        r"(?i)(?<![a-z0-9])(?:retr(?:y|ies)\w*|attempts?\w*|backoff\w*"
        r"|tries)(?![a-z0-9])"
    )
    CLASSIFIED_RE = re.compile(
        r"\.code\s*\(|IsTransient|AwaitRetry|Retrier|RetryPolicy"
        r"|StatusCode::"
    )

    def check_retry_unclassified(self) -> None:
        for m in self.LOOP_RE.finditer(self.stripped):
            open_paren = self.stripped.index("(", m.end() - 1)
            header_end = find_matching(self.stripped, open_paren, "(", ")")
            if header_end < 0:
                continue
            after = self.stripped[header_end:]
            brace_off = len(after) - len(after.lstrip())
            if brace_off >= len(after) or after[brace_off] != "{":
                continue  # single-statement loop body: out of scope
            body_start = header_end + brace_off
            body_end = find_matching(self.stripped, body_start, "{", "}")
            if body_end < 0:
                continue
            loop = self.stripped[open_paren:body_end]
            if not self.RETRYISH_RE.search(loop):
                continue  # not a retry loop
            if "co_await" not in loop or ".ok(" not in loop:
                continue  # no awaited Status decision inside
            if self.CLASSIFIED_RE.search(loop):
                continue  # the failure is being classified
            self.report(
                m.start(),
                "retry-unclassified",
                "retry loop branches only on .ok() of a co_await-ed "
                "Status; classify the failure (status.code(), "
                "sim::IsTransient, Retrier::AwaitRetry) so permanent "
                "errors are not retried forever, or annotate with "
                "ros-lint: allow(retry-unclassified)",
            )

    # --- rule: acquire-bay ----------------------------------------------

    # (call pattern, files allowed to make it, what the call is): the
    # scheduler owns every claim; the controller defines the raw one and
    # the burn manager is the one client of the burn claim.
    BAY_CLAIMS = (
        (re.compile(r"(?<![\w:])TryClaimBay\s*\("),
         ("fetch_scheduler.cc", "mech_controller.cc", "mech_controller.h"),
         "TryClaimBay is the scheduler's raw claim"),
        (re.compile(r"(?<![\w:])AcquireForBurn\s*\("),
         ("burn_manager.cc", "fetch_scheduler.cc", "fetch_scheduler.h"),
         "AcquireForBurn is the burn manager's claim"),
    )

    def statement_start(self, pos: int) -> int:
        """Offset of the first token of the statement holding `pos`, so an
        allow annotation above a wrapped call (ROS_CO_ASSIGN_OR_RETURN
        split across lines) still covers it."""
        stmt = max(self.stripped.rfind(";", 0, pos),
                   self.stripped.rfind("{", 0, pos),
                   self.stripped.rfind("}", 0, pos))
        idx = stmt + 1
        while idx < pos and self.stripped[idx] in " \t\n":
            idx += 1
        return idx

    def check_acquire_bay(self) -> None:
        base = os.path.basename(self.path)
        for pattern, owners, what in self.BAY_CLAIMS:
            if base in owners:
                continue
            for m in pattern.finditer(self.stripped):
                self.report(
                    self.statement_start(m.start()),
                    "acquire-bay",
                    what + "; a claim outside the fetch scheduler bypasses "
                    "its tray batching, victim policy and aging bound. "
                    "Route reads through FetchScheduler::AcquireForRead or "
                    "annotate with ros-lint: allow(acquire-bay)",
                )

    # --- rule: speculative-fetch ----------------------------------------

    # Files that own the demand enqueue path: the fetch manager (the read
    # path's lease broker) and the scheduler itself. Anything else calling
    # AcquireForRead is almost always background work (prefetch, readahead,
    # scrubbing) jumping the demand queue.
    ACQUIRE_FOR_READ_OWNERS = (
        "fetch_manager.cc",
        "fetch_scheduler.cc",
        "fetch_scheduler.h",
    )

    ACQUIRE_FOR_READ_RE = re.compile(r"(?<![\w:])AcquireForRead\s*\(")

    def check_speculative_fetch(self) -> None:
        if os.path.basename(self.path) in self.ACQUIRE_FOR_READ_OWNERS:
            return
        for m in self.ACQUIRE_FOR_READ_RE.finditer(self.stripped):
            self.report(
                self.statement_start(m.start()),
                "speculative-fetch",
                "direct AcquireForRead competes with demand readers for "
                "bays; background/speculative loads must go through "
                "FetchScheduler::EnqueueSpeculative (yields to demand, "
                "never evicts demanded trays, cancels cleanly) or the "
                "background class (FetchClass::kBackground), or "
                "annotate with ros-lint: allow(speculative-fetch)",
            )

    # --- rule: coro-conditional-await ------------------------------------

    CO_AWAIT_PAREN_RE = re.compile(r"(?<!\w)co_await\s*\(")

    def check_coro_conditional_await(self) -> None:
        for m in self.CO_AWAIT_PAREN_RE.finditer(self.stripped):
            open_paren = m.end() - 1
            end = find_matching(self.stripped, open_paren, "(", ")")
            if end < 0:
                continue
            depth = 0
            for ch in self.stripped[open_paren + 1 : end - 1]:
                if ch in "([{":
                    depth += 1
                elif ch in ")]}":
                    depth -= 1
                elif ch == "?" and depth == 0:
                    self.report(
                        m.start(),
                        "coro-conditional-await",
                        "co_await of a conditional expression frees the "
                        "chosen sim::Task under GCC 12 (heap-use-after-"
                        "free); await in each branch (if/else, or "
                        "`c ? co_await A() : co_await B()`)",
                    )
                    break

    def run(self) -> list[Finding]:
        self.check_discarded_status()
        self.check_coro_ref_param()
        self.check_coro_ref_lambda()
        self.check_raw_new_delete()
        self.check_list_size_only()
        self.check_retry_unclassified()
        self.check_acquire_bay()
        self.check_speculative_fetch()
        self.check_coro_conditional_await()
        return self.findings


# --- status function inventory ------------------------------------------

STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}\n])\s*(?:static\s+|inline\s+|friend\s+|virtual\s+|constexpr\s+)*"
    r"(?:ros::)?(?:Status|StatusOr<[^;{}]*>|(?:sim::)?Task<\s*(?:ros::)?Status"
    r"(?:Or<[^;{}]*>)?\s*>)\s+"
    r"(?:[A-Za-z_]\w*::)*(?P<name>[A-Za-z_]\w*)\s*\("
)

# Builders that *produce* a Status value: discarding those is just building
# a temporary, so they are excluded from the callee set.
STATUS_FACTORIES = {
    "Ok", "OkStatus", "NotFoundError", "AlreadyExistsError",
    "InvalidArgumentError", "OutOfRangeError", "ResourceExhaustedError",
    "FailedPreconditionError", "UnavailableError", "DataLossError",
    "InternalError", "Status", "StatusOr", "status", "ToString",
}


# Any function-shaped declaration; used to find names that are ALSO
# declared with a non-Status return type (e.g. FileCache::Put returns void
# while MetadataVolume::Put returns Task<Status>). The checker matches
# callees by name only, so such ambiguous names must be dropped from the
# Status set or every `cache->Put(...)` would be a false positive.
ANY_DECL_RE = re.compile(
    r"(?:^|[;{}\n])\s*(?:static\s+|inline\s+|friend\s+|virtual\s+|constexpr\s+)*"
    r"(?P<ret>(?:[A-Za-z_][\w:]*)(?:<[^;{}()]*>)?(?:\s*[*&])?)\s+"
    r"(?:[A-Za-z_]\w*::)*(?P<name>[A-Za-z_]\w*)\s*\("
)

CPP_KEYWORDS = {
    "if", "while", "for", "switch", "return", "co_return", "co_await",
    "case", "else", "do", "new", "delete", "sizeof", "throw", "using",
    "typedef", "template", "typename", "class", "struct", "enum", "goto",
}


def collect_status_fns(files: dict[str, str]) -> set[str]:
    fns: set[str] = set()
    ambiguous: set[str] = set()
    for text in files.values():
        stripped = strip_comments_and_strings(text)
        for m in STATUS_DECL_RE.finditer(stripped):
            name = m.group("name")
            if name not in STATUS_FACTORIES:
                fns.add(name)
        for m in ANY_DECL_RE.finditer(stripped):
            ret = m.group("ret").strip()
            name = m.group("name")
            if ret in CPP_KEYWORDS or name in CPP_KEYWORDS:
                continue
            if re.search(r"\b(Status|StatusOr|Task)\b", ret):
                continue
            ambiguous.add(name)
    return fns - ambiguous


def load_allowlist(path: str) -> set[tuple[str, str]]:
    entries: set[tuple[str, str]] = set()
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                continue
            suffix, rule = line.rsplit(":", 1)
            entries.add((suffix, rule.strip()))
    return entries


def gather_files(paths: list[str]) -> dict[str, str]:
    files: dict[str, str] = {}
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith((".cc", ".h")):
                        full = os.path.join(root, name)
                        with open(full, encoding="utf-8") as fh:
                            files[full] = fh.read()
        else:
            with open(path, encoding="utf-8") as fh:
                files[path] = fh.read()
    return files


def main(argv: list[str]) -> int:
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        default=[os.path.join(repo_root, "src")])
    parser.add_argument("--allowlist",
                        default=os.path.join(repo_root, "tools",
                                             "ros_lint_allow.txt"))
    parser.add_argument("--list-status-fns", action="store_true")
    parser.add_argument("--check-allows", action="store_true",
                        help="report inline allow() markers that no longer "
                             "suppress any finding")
    args = parser.parse_args(argv)

    files = gather_files(args.paths)
    status_fns = collect_status_fns(files)
    if args.list_status_fns:
        for name in sorted(status_fns):
            print(name)
        return 0

    allow = load_allowlist(args.allowlist)
    findings: list[Finding] = []
    stale: list[tuple[str, int, str]] = []
    for path, text in sorted(files.items()):
        lint = FileLint(path, text, status_fns)
        rel = os.path.relpath(path, repo_root)
        for finding in lint.run():
            if any(rel.endswith(suffix) and rule == finding.rule
                   for suffix, rule in allow):
                continue
            finding.path = rel
            findings.append(finding)
        if args.check_allows:
            stale.extend((rel, line, rule)
                         for line, rule in lint.stale_allows())

    for finding in findings:
        print(finding.render())
    for rel, line, rule in stale:
        print(f"{rel}:{line}: [stale-allow] 'ros-lint: allow({rule})' no "
              "longer suppresses any finding; delete the marker")
    if findings or stale:
        print(f"ros-lint: {len(findings)} finding(s), {len(stale)} stale "
              "allow(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
