#!/usr/bin/env python3
"""Repo-local style gate (scripts/ci.sh runs this before any build).

Checks, over every C++ file in src/, tests/, bench/ and examples/:

  1. Header guards follow the #ifndef DOCS_<DIR>_<FILE>_H_ convention
     (src/core/types.h -> DOCS_CORE_TYPES_H_, bench/bench_common.h ->
     DOCS_BENCH_BENCH_COMMON_H_); #pragma once is banned everywhere.
  2. Headers never say `using namespace` (it leaks into every includer).
  3. No `(void)` cast silences a fallible call: Status is [[nodiscard]] so
     the compiler flags a plain discard, and casting it away defeats the
     point. Handle the status or propagate it.
  4. #include lines are sorted within each contiguous block (blocks are
     separated by blank lines or non-include lines).
  5. Raw standard-library sync primitives (std::mutex, std::shared_mutex,
     std::lock_guard, std::unique_lock, std::condition_variable, ...) are
     banned everywhere except src/common/sync.h: all locking goes through
     the annotated docs::Mutex/MutexLock/CondVar wrappers so clang's
     -Wthread-safety analysis (DESIGN.md §14) sees every acquisition.
  6. Lock-order heuristic for the serving hierarchy (state -> shard ->
     assign -> pool): a shard-stripe lock (`<expr>.mutex` / `<expr>->mutex`)
     or a state_mutex_ guard (`ReaderLock` / `WriterLock`) acquired while a
     `MutexLock` on assign_mutex_ is still in scope is an inversion against
     ConcurrentDocsSystem's documented order and gets flagged. The assign
     lock alone guards the worker table, books, leases and clock, so paths
     that take it first and the state lock second are the likely mistake.
     Textual and scope-approximate by design: the real checker is the clang
     analysis; this catches the mistake on gcc-only machines.
  7. IncrementalTruthInference mutators (OnAnswer, RunFullInference,
     SetWorkerQuality, EnsureWorker) may only be called on `inference_`
     inside src/core/docs_system.cc. In async mode (DESIGN.md §15) every
     inference mutation must flow through the InferenceService apply path
     so snapshots stay consistent with state; a direct call anywhere else
     bypasses the single-writer discipline the snapshots depend on.
  8. The engine's invalidation counters (task_epoch_, generation_) and the
     per-task inputs of the benefit bounds (truth_entropy_, and
     answers_of_task_, whose emptiness is the "has no answers" input) may
     only be mutated inside src/core/incremental_ti.{h,cc}. The task and
     worker epochs key the snapshot's copy-on-write sharing (DESIGN.md
     §15), the generation keys both that and the benefit index (§16), and
     the index seeds its bound entries from the inputs; a write anywhere
     else would share (or index) stale posteriors, or desynchronize a bound
     from the posterior it bounds, behind the engine's back.

Exit status is the number of findings (0 = clean). Run from anywhere:

    python3 scripts/lint.py [--root <repo>]
"""

import argparse
import os
import re
import sys

SOURCE_DIRS = ("src", "tests", "bench", "examples")
CPP_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

# Fallible APIs whose Status result must never be (void)-discarded. Kept as
# an explicit list because a regex linter cannot see return types.
FALLIBLE_CALLS = (
    "OnAnswer", "SubmitAnswer", "SetWorkerQuality", "AddTasks", "LoadWorker",
    "SaveWorker", "SaveCheckpoint", "LoadCheckpoint", "SaveCheckpointWithRetry",
    "Append", "AppendRecord", "Put", "Merge", "Flush", "Compact", "Open",
    "AddConcept", "AddAlias", "AddCategory", "SaveKnowledgeBase",
    "LoadKnowledgeBase", "SaveDatasetTsv", "LoadDatasetTsv",
    "SaveStateCheckpoint", "LoadStateCheckpoint",
)

VOID_CAST_RE = re.compile(
    r"\(void\)\s*(?:[A-Za-z_][\w.]*(?:->|\.))*(?:%s)\s*\(" %
    "|".join(FALLIBLE_CALLS))
VOID_STATUS_RE = re.compile(r"\(void\)\s*[a-z_]*status\b")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"][^<">]+[>"])')

# The annotated wrappers live here; it is the one file allowed to name the
# std primitives it wraps.
SYNC_WRAPPER_FILE = "src/common/sync.h"
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_)?mutex\b"
    r"|\bstd::shared_(?:mutex|timed_mutex|lock)\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b")
# Inference-engine mutators, single-writer discipline (docstring item 7).
# DocsSystem owns the engine; everything else mutates it through DocsSystem
# methods so the async apply path stays the only writer.
TI_MUTATOR_ALLOWED_FILES = ("src/core/docs_system.cc",)
TI_MUTATORS_RE = re.compile(
    r"\binference_\s*(?:->|\.)\s*"
    r"(?:OnAnswer|RunFullInference|SetWorkerQuality|EnsureWorker)\s*\(")

# Epoch/generation mutation discipline (docstring item 8). The engine owns
# the invalidation counters that key the snapshot's copy-on-write sharing
# and the benefit index; only it may move them. The header is in the
# allowed list for the member initializers (`uint64_t generation_ = 1;`).
# The `(?!\w)` lookaheads keep longer identifiers (generation_tag_, for
# one) out of scope; branch one catches prefix ++/--, branch two catches
# postfix, assignment, and compound assignment.
# The bound inputs ride on the same rule: branch three catches container
# mutators (push_back, assign, ...) on either array or one of its rows.
EPOCH_MUTATION_ALLOWED_FILES = (
    "src/core/incremental_ti.h", "src/core/incremental_ti.cc")
ENGINE_OWNED = r"(?:task_epoch_|generation_|truth_entropy_|answers_of_task_)"
EPOCH_MUTATION_RE = re.compile(
    r"(?:\+\+|--)\s*(?:[A-Za-z_][\w.\[\]]*(?:->|\.))*"
    + ENGINE_OWNED + r"(?!\w)"
    r"|" + ENGINE_OWNED + r"(?!\w)"
    r"\s*(?:\[[^\]]*\]\s*)?(?:\+\+|--|[-+*/|&^]?=[^=])"
    r"|" + ENGINE_OWNED + r"(?!\w)\s*(?:\[[^\]]*\]\s*)?\.\s*"
    r"(?:push_back|emplace_back|assign|resize|clear|insert|erase|swap)\s*\(")

# `MutexLock assign(&assign_mutex_);` — any of the scoped guards, capturing
# the lock expression so the hierarchy check can classify it.
LOCK_ACQUIRE_RE = re.compile(
    r"\b(?:MutexLock|WriterLock|ReaderLock)\s+\w+\s*"
    r"\(\s*&\s*([A-Za-z_][\w.\->\[\]]*)\s*[,)]")
SHARD_STRIPE_RE = re.compile(r"(?:\.|->)mutex$")
STATE_GUARD_RE = re.compile(r"\b(?:WriterLock|ReaderLock)\s")
LINE_COMMENT_RE = re.compile(r"//.*$")


def expected_guard(path):
    """DOCS_<COMPONENTS>_H_ for a header path relative to the repo root."""
    parts = path.replace(os.sep, "/").split("/")
    if parts[0] == "src":
        parts = parts[1:]  # src/ is the include root, not a guard component
    stem = "_".join(parts)
    stem = os.path.splitext(stem)[0]
    return "DOCS_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_header_guard(path, lines, findings):
    guard = expected_guard(path)
    ifndef_index = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("#ifndef"):
            ifndef_index = i
            break
        if stripped and not stripped.startswith("//"):
            break
    if ifndef_index is None:
        findings.append((path, 1, f"missing header guard #ifndef {guard}"))
        return
    got = lines[ifndef_index].split()
    if len(got) < 2 or got[1] != guard:
        findings.append((path, ifndef_index + 1,
                         f"header guard is {got[1] if len(got) > 1 else '?'}, "
                         f"expected {guard}"))
        return
    define = lines[ifndef_index + 1].split() if ifndef_index + 1 < len(
        lines) else []
    if len(define) < 2 or define[0] != "#define" or define[1] != guard:
        findings.append((path, ifndef_index + 2,
                         f"#define {guard} must follow the #ifndef"))


def check_lock_order(path, lines, findings):
    """Flags a shard stripe or the state lock acquired while assign_mutex_ is
    scoped-locked.

    Scope tracking is brace-depth arithmetic on comment-stripped lines — an
    approximation, but scoped guards in this codebase are always declared
    directly inside a braced block, which is exactly what this models.
    """
    depth = 0
    assign_depths = []  # brace depth at each live assign_mutex_ guard
    for i, line in enumerate(lines):
        code = LINE_COMMENT_RE.sub("", line)
        if "NOLINT(docs-lint)" in line:
            depth += code.count("{") - code.count("}")
            continue
        for match in LOCK_ACQUIRE_RE.finditer(code):
            target = match.group(1)
            if target.endswith("assign_mutex_"):
                assign_depths.append(depth)
                continue
            if not assign_depths:
                continue
            if SHARD_STRIPE_RE.search(target):
                what = f"shard stripe {target}"
            elif (target.endswith("state_mutex_")
                  and STATE_GUARD_RE.match(code, match.start())):
                what = f"state lock {target}"
            else:
                continue
            findings.append(
                (path, i + 1,
                 f"lock-order inversion: {what} acquired while "
                 "assign_mutex_ is held (hierarchy is state -> shard -> "
                 "assign -> pool, DESIGN.md §14)"))
        depth += code.count("{") - code.count("}")
        while assign_depths and depth < assign_depths[-1]:
            assign_depths.pop()


def check_includes_sorted(path, lines, findings):
    block = []  # (line_number, include_text)
    def flush():
        nonlocal block
        texts = [t for _, t in block]
        if texts != sorted(texts):
            for (num, text), want in zip(block, sorted(texts)):
                if text != want:
                    findings.append(
                        (path, num,
                         f"includes unsorted within block: {text} before "
                         f"{want}"))
                    break
        block = []

    for i, line in enumerate(lines):
        m = INCLUDE_RE.match(line)
        if m:
            block.append((i + 1, m.group(1)))
        else:
            flush()
    flush()


def lint_file(root, rel, findings):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8", errors="replace") as handle:
        lines = handle.read().splitlines()
    is_header = rel.endswith((".h", ".hpp"))

    for i, line in enumerate(lines):
        if "#pragma once" in line:
            findings.append((rel, i + 1,
                             "#pragma once is banned; use an include guard"))
        if "NOLINT(docs-lint)" in line:
            continue
        if is_header and USING_NAMESPACE_RE.match(line):
            findings.append((rel, i + 1, "using namespace in a header"))
        if VOID_CAST_RE.search(line) or VOID_STATUS_RE.search(line):
            findings.append(
                (rel, i + 1,
                 "(void)-discarded Status: handle or propagate it"))
        if (rel.replace(os.sep, "/") != SYNC_WRAPPER_FILE
                and RAW_SYNC_RE.search(LINE_COMMENT_RE.sub("", line))):
            findings.append(
                (rel, i + 1,
                 "raw std sync primitive: use docs::Mutex/MutexLock/CondVar "
                 "from common/sync.h so -Wthread-safety sees the lock"))
        if (rel.replace(os.sep, "/") not in TI_MUTATOR_ALLOWED_FILES
                and TI_MUTATORS_RE.search(LINE_COMMENT_RE.sub("", line))):
            findings.append(
                (rel, i + 1,
                 "direct IncrementalTruthInference mutation outside "
                 "src/core/docs_system.cc: route it through DocsSystem so "
                 "the async inference service stays the single writer "
                 "(DESIGN.md §15)"))
        if (rel.replace(os.sep, "/") not in EPOCH_MUTATION_ALLOWED_FILES
                and EPOCH_MUTATION_RE.search(LINE_COMMENT_RE.sub("", line))):
            findings.append(
                (rel, i + 1,
                 "task_epoch_/generation_ or a benefit-bound input "
                 "(truth_entropy_/answers_of_task_) mutated outside the "
                 "inference engine: snapshot copy-on-write and the benefit "
                 "index key their freshness on these counters and the index "
                 "seeds its bounds from these inputs, so only "
                 "incremental_ti.{h,cc} may move them (DESIGN.md §15/§16)"))

    if is_header:
        check_header_guard(rel, lines, findings)
    check_includes_sorted(rel, lines, findings)
    check_lock_order(rel, lines, findings)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    args = parser.parse_args()

    findings = []
    for top in SOURCE_DIRS:
        top_path = os.path.join(args.root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, _, filenames in os.walk(top_path):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name),
                                          args.root)
                    lint_file(args.root, rel, findings)

    for path, line, message in findings:
        print(f"{path}:{line}: {message}")
    if findings:
        print(f"lint.py: {len(findings)} finding(s)")
    else:
        print("lint.py: clean")
    return min(len(findings), 99)


if __name__ == "__main__":
    sys.exit(main())
