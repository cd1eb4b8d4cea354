#!/usr/bin/env python3
"""ros-analyze: flow-aware determinism and coroutine-lifetime checks.

Every reproducibility guarantee in this repo — the seeded chaos storms,
the dispatch-log determinism probes, the byte-identity bench gates, the
double-run divergence oracle (bench --replay-check) — rests on the
simulation being perfectly deterministic. ros-lint is regex-level;
clang-tidy is advisory and toolchain-dependent. This checker sits in
between: it builds a scope tree over each translation unit (tools/cpptok)
and enforces the determinism contract (DESIGN.md §5h) with real scope and
dataflow awareness:

  wallclock            Wall-clock or entropy sources: std::chrono's
                       system/steady/high_resolution clocks, ::time(),
                       clock(), gettimeofday, std::random_device, rand(),
                       srand. Simulated time comes from sim::Simulator;
                       randomness from seeded ros::Rng. The only exempt
                       file is src/sim/time.h; host-side measurement shims
                       (bench timing loops) carry an allow annotation.

  unordered-iter       A range-for or a begin()/cbegin()/rbegin() call on
                       a variable whose declared type is a std::unordered_
                       map/set (local or member, through one `using`
                       alias). Hash-table iteration order depends on
                       libstdc++ version, seed, and allocation history —
                       it is exactly the kind of nondeterminism that works
                       today and diverges years later. Iterate a std::map,
                       sort a snapshot first, or annotate a provably
                       order-insensitive loop.

  unordered-member     Declaring a std::unordered_map/set *member* is a
                       standing temptation for the next iteration bug, so
                       every such declaration must carry an annotation
                       stating its contract (point lookups only, never
                       iterated). The annotation is load-bearing: it is
                       what the audit of a new unordered member reviews.

  pointer-order        Ordering keyed on raw pointer values: std::map/
                       std::set keyed by a pointer type, std::less<T*>,
                       or a comparator casting operands to uintptr_t.
                       Pointer values depend on allocator behaviour and
                       ASLR; any container order or sort order derived
                       from them differs run to run.

  view-across-suspend  Flow-aware: a local of view type — string_view,
                       span, an iterator (declared or from begin()/find()/
                       lower_bound()), a reference bound to a call result
                       or through such an iterator (`T& r = it->second;`,
                       `auto& r = *it;`), or a raw pointer from .get()/
                       .data()/.c_str() — that is used after a later
                       co_await in the same coroutine body. Across a suspension the referent
                       may be invalidated (container mutated by another
                       task, cache entry evicted, temporary gone); the
                       two ros-lint rules cover parameters and lambda
                       captures, this rule covers local dataflow.

Usage:
    tools/ros_analyze.py [paths...]      # default: src/ bench/ tests/
    tools/ros_analyze.py --check-allows  # also fail on stale allow()s
    tools/ros_analyze.py --list-unordered  # debug: dump the unordered set

Suppressions: `// ros_analyze: allow(<rule>[, <rule>...]): justification`
on the finding's line or the contiguous comment block above it. Stale
markers (ones that no longer suppress anything) fail --check-allows.

Exit status: 0 clean, 1 findings (or stale allows), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpptok
from cpptok import ScopeTree, find_matching, line_of, strip_comments_and_strings

RULES = (
    "wallclock",
    "unordered-iter",
    "unordered-member",
    "pointer-order",
    "view-across-suspend",
)

# Files exempt from `wallclock` by design rather than annotation: the sim
# clock itself is the shim every other file must go through.
WALLCLOCK_EXEMPT = ("src/sim/time.h",)


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- rule: wallclock ------------------------------------------------------

WALLCLOCK_RES = (
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "std::chrono::{}_clock reads host time; simulated time must come "
     "from sim::Simulator::now()"),
    (re.compile(r"(?<![\w.:])(?:std\s*::\s*|::\s*)?(time|clock)"
                r"\s*\(\s*(nullptr|NULL|0|&\w+)?\s*\)"),
     "C library '{}()' reads the host clock; use sim::Simulator::now()"),
    (re.compile(r"(?<![\w.:])gettimeofday\s*\("),
     "'{}' reads the host clock; use sim::Simulator::now()"),
    (re.compile(r"std::random_device"),
     "std::random_device draws host entropy; all randomness must flow "
     "through a seeded ros::Rng"),
    (re.compile(r"(?<![\w.:])s?rand\s*\("),
     "'{}' is unseeded/global C randomness; use a seeded ros::Rng"),
)


# --- unordered container inventory ---------------------------------------

UNORDERED_TYPE_RE = re.compile(r"\bstd\s*::\s*unordered_(map|set|multimap"
                               r"|multiset)\s*<")
USING_ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=")
DECL_NAME_RE = re.compile(r"\s*(?:[*&]\s*)?([A-Za-z_]\w*)\s*[;={(]")


class FileAnalyze:
    def __init__(self, path: str, text: str, rel: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.stripped = strip_comments_and_strings(text)
        self.lines = text.splitlines()
        self.tree = ScopeTree(self.stripped)
        self.allow = cpptok.make_allow_checker("ros_analyze")
        self.findings: list[Finding] = []

    def report(self, index: int, rule: str, message: str,
               extra_lines: tuple[int, ...] = ()) -> None:
        line = line_of(self.stripped, index)
        for candidate in (line, *extra_lines):
            if self.allow(self.lines, candidate, rule):
                return
        self.findings.append(Finding(self.rel, line, rule, message))

    # --- wallclock -------------------------------------------------------

    def check_wallclock(self) -> None:
        if any(self.rel.endswith(suffix) for suffix in WALLCLOCK_EXEMPT):
            return
        for regex, message in WALLCLOCK_RES:
            for m in regex.finditer(self.stripped):
                what = m.group(1) if m.groups() and m.group(1) else \
                    m.group(0).strip().rstrip("(").strip()
                self.report(m.start(), "wallclock", message.format(what))

    # --- unordered inventory --------------------------------------------

    def _unordered_aliases(self) -> set[str]:
        """Names introduced by `using X = std::unordered_...` (one level)."""
        aliases: set[str] = set()
        for m in USING_ALIAS_RE.finditer(self.stripped):
            rest = self.stripped[m.end():]
            if UNORDERED_TYPE_RE.match(rest.lstrip()):
                aliases.add(m.group(1))
        return aliases

    def _unordered_decls(self) -> list[tuple[str, int]]:
        """(variable name, declaration offset) of every variable declared
        with an unordered container type or a one-level alias of one."""
        decls: list[tuple[str, int]] = []
        seen: set[int] = set()

        def after_template(start: int) -> int:
            lt = self.stripped.index("<", start)
            end = find_matching(self.stripped, lt, "<", ">")
            return end

        for m in UNORDERED_TYPE_RE.finditer(self.stripped):
            # Skip `using X = std::unordered_map<...>` (the alias itself)
            # and occurrences inside a wider template argument list
            # (e.g. std::vector<std::unordered_map<...>> still counts —
            # the *outer* decl gets found from its own type name, so a
            # nested hit reporting the same variable is harmless).
            stmt = max(self.stripped.rfind(c, 0, m.start())
                       for c in ";{}") + 1
            if re.search(r"\busing\b", self.stripped[stmt:m.start()]):
                continue
            end = after_template(m.start())
            if end < 0:
                continue
            dm = DECL_NAME_RE.match(self.stripped, end)
            if dm and end not in seen:
                seen.add(end)
                decls.append((dm.group(1), m.start()))
        aliases = self._unordered_aliases()
        if aliases:
            alias_re = re.compile(
                r"(?<![\w:])(" + "|".join(re.escape(a) for a in aliases) +
                r")\s+([A-Za-z_]\w*)\s*[;={]")
            for m in alias_re.finditer(self.stripped):
                decls.append((m.group(2), m.start()))
        return decls

    # --- unordered-iter & unordered-member ------------------------------

    def check_unordered(self) -> None:
        decls = self._unordered_decls()
        if not decls:
            return
        members: set[str] = set()
        local_names: set[str] = set()
        for name, pos in decls:
            if self.tree.at_class_scope(pos):
                members.add(name)
                self.report(
                    pos, "unordered-member",
                    f"unordered container member '{name}' must carry a "
                    "'// ros_analyze: allow(unordered-member): <contract>' "
                    "annotation stating it is never iterated (point "
                    "lookups only) — or use std::map")
            else:
                local_names.add(name)
        names = members | local_names

        def is_unordered_expr(expr: str) -> bool:
            expr = expr.strip()
            expr = re.sub(r"^this\s*->\s*", "", expr)
            leaf = re.split(r"\.|->", expr)[-1].strip()
            return (re.fullmatch(r"[A-Za-z_]\w*", leaf) is not None
                    and leaf in names)

        # Range-for over an unordered variable.
        for m in re.finditer(r"\bfor\s*\(", self.stripped):
            open_paren = self.stripped.index("(", m.end() - 1)
            end = find_matching(self.stripped, open_paren, "(", ")")
            if end < 0:
                continue
            header = self.stripped[open_paren + 1 : end - 1]
            colon = self._range_for_colon(header)
            if colon < 0:
                continue
            if is_unordered_expr(header[colon + 1:]):
                self.report(
                    m.start(), "unordered-iter",
                    "range-for over an unordered container iterates in "
                    "hash order, which varies across library versions and "
                    "allocation histories; iterate a std::map, sort a "
                    "snapshot first, or annotate an order-insensitive "
                    "loop with ros_analyze: allow(unordered-iter)")
        # Ordered-iteration entry points on an unordered variable.
        for m in re.finditer(
                r"([A-Za-z_][\w.>\-]*?)\s*(\.|->)\s*"
                r"(c?r?begin|crbegin|rbegin|cbegin|begin)\s*\(\s*\)",
                self.stripped):
            if is_unordered_expr(m.group(1)):
                self.report(
                    m.start(), "unordered-iter",
                    f"'{m.group(3)}()' on an unordered container starts a "
                    "hash-order traversal (or picks a pseudo-arbitrary "
                    "element); both depend on allocation history — use an "
                    "ordered structure or annotate with "
                    "ros_analyze: allow(unordered-iter)")

    @staticmethod
    def _range_for_colon(header: str) -> int:
        """Offset of the range-for ':' in a for-header, or -1. Skips ::
        and colons nested in template args / parens."""
        depth = 0
        i = 0
        while i < len(header):
            ch = header[i]
            if ch in "<([{":
                depth += 1
            elif ch in ">)]}":
                depth -= 1
            elif ch == ":" and depth == 0:
                if i + 1 < len(header) and header[i + 1] == ":":
                    i += 2
                    continue
                if i > 0 and header[i - 1] == ":":
                    i += 1
                    continue
                return i
            i += 1
        return -1

    # --- pointer-order ---------------------------------------------------

    ORDERED_KEYED_RE = re.compile(r"\bstd\s*::\s*(map|set|multimap|multiset)"
                                  r"\s*<")
    LESS_PTR_RE = re.compile(r"\bstd\s*::\s*less\s*<[^<>]*\*\s*>")
    UINTPTR_CMP_RE = re.compile(
        r"(reinterpret_cast\s*<\s*(std\s*::\s*)?uintptr_t\s*>"
        r"|\bstd\s*::\s*bit_cast\s*<\s*(std\s*::\s*)?uintptr_t\s*>)")

    def check_pointer_order(self) -> None:
        for m in self.ORDERED_KEYED_RE.finditer(self.stripped):
            lt = self.stripped.index("<", m.end() - 1)
            end = find_matching(self.stripped, lt, "<", ">")
            if end < 0:
                continue
            args = cpptok.split_top_level(self.stripped[lt + 1 : end - 1])
            if args and args[0].strip().endswith("*"):
                self.report(
                    m.start(), "pointer-order",
                    f"std::{m.group(1)} keyed by a raw pointer orders "
                    "entries by address, which differs run to run (heap "
                    "layout, ASLR); key by a stable id instead")
        for m in self.LESS_PTR_RE.finditer(self.stripped):
            self.report(
                m.start(), "pointer-order",
                "std::less over a pointer type compares addresses; derive "
                "ordering from a stable id, not from where the allocator "
                "placed an object")
        for m in self.UINTPTR_CMP_RE.finditer(self.stripped):
            self.report(
                m.start(), "pointer-order",
                "casting a pointer to uintptr_t bakes allocator/ASLR "
                "state into a value; any ordering or hash derived from it "
                "is nondeterministic across runs")

    # --- view-across-suspend ---------------------------------------------

    # Declarations of iterator locals.
    ITERATOR_DECL_RES = (
        # SomeType::iterator / ::const_iterator it = ...
        re.compile(r"[\w>\s]::\s*(?:const_)?iterator\s+"
                   r"(?P<name>[A-Za-z_]\w*)\s*[=({]"),
        # auto it = expr.begin() / .find(...) / .lower_bound(...)
        re.compile(r"\bauto\s*&?\s+(?P<name>[A-Za-z_]\w*)\s*=\s*"
                   r"[^;]*?(?:\.|->)\s*"
                   r"(?:c?begin|c?end|find|lower_bound|upper_bound)"
                   r"\s*\([^;]*\)\s*;"),
    )
    # Declarations of other locals with view/pointer-into semantics.
    VIEW_DECL_RES = (
        # std::string_view v = ..., std::span<T> s = ...
        re.compile(r"(?:\bconst\s+)?(?:std\s*::\s*)?(?:string_view|"
                   r"span\s*<[^;=]*>)\s+(?P<name>[A-Za-z_]\w*)\s*[=({]"),
        # pointer / auto* / reference from .get() / .data() / .c_str()
        re.compile(r"(?:\bauto\s*\*|[A-Za-z_][\w:<>]*\s*\*)\s*"
                   r"(?:const\s+)?(?P<name>[A-Za-z_]\w*)\s*=\s*"
                   r"[^;]*?(?:\.|->)\s*(?:get|data|c_str)\s*\(\s*\)\s*;"),
        # reference bound to a call result: auto& r = Foo(...);
        # (subscripts and plain member access bind to stable storage and
        # are intentionally not matched)
        re.compile(r"(?:\bconst\s+)?\bauto\s*&&?\s+(?P<name>[A-Za-z_]\w*)"
                   r"\s*=\s*[\w:]+(?:\.|->|::)[\w:<>.\->]*\(",),
    )

    def check_view_across_suspend(self) -> None:
        text = self.stripped
        # All co_await positions, bucketed by enclosing function scope.
        awaits: list[int] = [m.start() for m in
                             re.finditer(r"\bco_await\b", text)]
        if not awaits:
            return
        for regex in self.ITERATOR_DECL_RES + self.VIEW_DECL_RES:
            iterator = regex in self.ITERATOR_DECL_RES
            for m in regex.finditer(text):
                name = m.group("name")
                if name in ("auto", "const"):
                    continue
                self._track_view_local(name, m.start(), awaits)
                if iterator:
                    self._track_iterator_refs(name, m.start(), awaits)

    def _track_iterator_refs(self, iterator: str, decl_pos: int,
                             awaits: list[int]) -> None:
        """A reference bound through an iterator (`T& r = it->second;`,
        `auto& r = *it;`) borrows the same element, so it is tracked like
        the iterator from its own declaration on."""
        fn = self.tree.enclosing_function(decl_pos)
        if fn is None:
            return
        ref_re = re.compile(r"[\w>]\s*&&?\s*(?P<name>[A-Za-z_]\w*)\s*=\s*"
                            r"\*?\s*" + re.escape(iterator) +
                            r"\s*(?:->|\.|;)")
        for m in ref_re.finditer(self.stripped, decl_pos, fn.close):
            if self.tree.enclosing_function(m.start()) is fn:
                self._track_view_local(m.group("name"), m.start("name"),
                                       awaits, rebinds=False)

    def _track_view_local(self, name: str, decl_pos: int,
                          awaits: list[int], rebinds: bool = True) -> None:
        """Forward dataflow for one view-typed local: walk its uses in
        order, re-starting liveness at every plain reassignment (the
        re-acquire idiom), and flag the first read that crosses a
        suspension point. A co_await in the *same statement* as the read
        does not count — there the read is (part of) the co_await operand
        and is evaluated before suspending. A reference (`rebinds` false)
        is never re-seated: assigning to it writes through it, a use."""
        text = self.stripped
        fn = self.tree.enclosing_function(decl_pos)
        if fn is None:
            return
        # A view initialized by `co_await ...` is fine at the co_await in
        # its own initializer; only later suspensions count.
        live_from = text.find(";", decl_pos)
        if live_from < 0:
            return
        block = self.tree.innermost(decl_pos)
        scope_end = min(block.close, fn.close)
        fn_awaits = [a for a in awaits
                     if decl_pos < a < scope_end
                     and self.tree.enclosing_function(a) is fn]
        if not fn_awaits:
            return
        use_re = re.compile(r"(?<![\w.])" + re.escape(name) + r"(?![\w])")
        for use in use_re.finditer(text, live_from, scope_end):
            pos = use.start()
            if self.tree.enclosing_function(pos) is not fn:
                continue  # captured by a nested lambda: ros-lint's
                          # coro-ref-lambda territory
            after = text[use.end():].lstrip()
            if (rebinds and after.startswith("=")
                    and not after.startswith("==")):
                # Plain reassignment: kills the old value and re-acquires;
                # liveness restarts at the end of this statement.
                nxt = text.find(";", pos)
                live_from = nxt if nxt >= 0 else scope_end
                continue
            crossed = [a for a in fn_awaits
                       if live_from < a < pos
                       and re.search(r"[;{}]", text[a:pos])]
            if not crossed:
                continue
            self.report(
                pos, "view-across-suspend",
                f"'{name}' (view/iterator/borrowed pointer declared on "
                f"line {line_of(text, decl_pos)}) is read after the "
                f"co_await on line {line_of(text, min(crossed))}; the "
                "referent can be invalidated while suspended — "
                "re-acquire it after resuming, copy the data, or "
                "annotate with ros_analyze: allow(view-across-suspend)",
                extra_lines=(line_of(text, decl_pos),))
            return  # one finding per declaration is enough

    def run(self) -> list[Finding]:
        self.check_wallclock()
        self.check_unordered()
        self.check_pointer_order()
        self.check_view_across_suspend()
        return self.findings


# --- driver ---------------------------------------------------------------


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
                        default=[os.path.join(repo_root, d)
                                 for d in ("src", "bench", "tests")])
    parser.add_argument("--check-allows", action="store_true",
                        help="also fail on allow() markers that no longer "
                             "suppress any finding")
    parser.add_argument("--list-unordered", action="store_true")
    args = parser.parse_args(argv)

    files = gather_files(args.paths)
    findings: list[Finding] = []
    stale: list[str] = []
    for path in sorted(files):
        rel = os.path.relpath(path, repo_root)
        if rel.startswith(".."):
            rel = path
        analyze = FileAnalyze(path, files[path], rel)
        if args.list_unordered:
            for name, pos in analyze._unordered_decls():
                where = "member" if analyze.tree.at_class_scope(pos) \
                    else "local"
                print(f"{rel}:{line_of(analyze.stripped, pos)}: "
                      f"{where} {name}")
            continue
        findings.extend(analyze.run())
        if args.check_allows:
            for lineno, rule in analyze.allow.annotations(analyze.lines):
                if rule not in RULES:
                    continue  # other tools' markers share the file
                if (lineno, rule) not in analyze.allow.used:
                    stale.append(
                        f"{rel}:{lineno}: stale 'ros_analyze: "
                        f"allow({rule})' — the annotated line no longer "
                        "triggers the rule; delete the marker")
    if args.list_unordered:
        return 0

    for finding in findings:
        print(finding.render())
    for message in stale:
        print(message)
    if findings or stale:
        print(f"ros-analyze: {len(findings)} finding(s), "
              f"{len(stale)} stale allow(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
