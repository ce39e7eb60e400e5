#!/usr/bin/env python3
"""Repo-specific concurrency/ownership invariants clang-tidy cannot express.

Rules (each finding prints as `file:line: [rule-id] message`, exit 1):

  mutex-lock-order   Every std::mutex / std::shared_mutex variable
                     declaration must carry a `lock-order:` comment on the
                     line or within the 3 lines above it, stating where the
                     lock sits in the acquisition order (or `leaf`). Lock
                     hierarchies only stay deadlock-free while they are
                     written down next to the lock.

  naked-new          `new` must land in a smart pointer on the same line
                     (unique_ptr/shared_ptr/make_*). Intentional leaks
                     (process-lifetime singletons) are annotated
                     `// invariant-ok: naked-new (<why>)`.

  relaxed-order      std::memory_order_relaxed is allowed only under
                     src/obs/ (the hot-path counters, whose contracts are
                     documented in obs/metrics.hpp). Everywhere else the
                     default seq_cst stays until a measurement justifies
                     weakening, annotated `// invariant-ok: relaxed-order
                     (<why>)`.

  thread-spawn       A std::thread or std::jthread object, or a std::async
                     call, in src/ lives in one of the three places that
                     run work in parallel: the serving runtime's worker
                     pool (src/serve/runtime.hpp), BatchExecutor
                     (src/search/batch.cpp) and the health monitors
                     (src/obs/health/). Engines answer a query on the
                     calling thread; one that starts threads of its own
                     nests a second layer under those. std::thread::
                     hardware_concurrency and std::this_thread are not
                     findings. Anything else is annotated
                     `// invariant-ok: thread-spawn (<why>)`.

  snapshot-version   kMinSnapshotVersion <= kSnapshotVersion in
                     src/serve/snapshot.hpp, and README.md documents the
                     current `format version N` - the constants and the
                     docs only ever move together.

  tsan-suppression   Every entry in .tsan-suppressions must be immediately
                     preceded by a justification comment. The file's
                     steady state is empty (see its header).

Usage: check_invariants.py [--root DIR]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".hpp", ".cpp"}

MUTEX_DECL = re.compile(
    r"^\s*(?:mutable\s+|static\s+)*std::(?:shared_)?mutex\s+\w+\s*[;{]"
)
# A new-expression; `operator new` allocator-function calls are excluded
# (they are raw-memory plumbing behind custom deleters, not ownership).
NAKED_NEW = re.compile(r"(?<!operator\s)\bnew\b(?!\s*\()")
SMART_NEW = re.compile(r"unique_ptr|shared_ptr|make_unique|make_shared")
RELAXED = re.compile(r"\bmemory_order_relaxed\b")
# A thread object or an async launch; `std::thread::hardware_concurrency`
# (a static member) and `std::this_thread` do not match.
THREAD_SPAWN = re.compile(r"\bstd::(?:j?thread\b(?!\s*::)|async\b)")
THREAD_HOMES = ("src/serve/runtime.hpp", "src/search/batch.cpp", "src/obs/health/")
LOCK_ORDER_COMMENT = "lock-order:"
VERSION_DEF = re.compile(
    r"k(Min)?SnapshotVersion\s*=\s*(?:std::uint32_t\{)?\s*(\d+)"
)


def strip_code(lines: list[str]) -> list[str]:
    """Removes comments and string-literal contents, preserving line count.

    A line-oriented scanner that tracks /* */ across lines and skips "..."
    and '...' bodies (with escapes); enough for this codebase, not a full
    lexer (no raw strings - the tree doesn't use them).
    """
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                result.append(ch)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                if i < n:
                    result.append(quote)
                    i += 1
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def annotated(raw_line: str, tag: str) -> bool:
    return f"invariant-ok: {tag}" in raw_line


def check_source_file(path: Path, rel: str, findings: list[str]) -> None:
    raw = path.read_text(encoding="utf-8", errors="replace").splitlines()
    code = strip_code(raw)
    posix_rel = rel.replace("\\", "/")
    in_obs = posix_rel.startswith("src/obs/")
    may_spawn = not posix_rel.startswith("src/") or posix_rel.startswith(THREAD_HOMES)
    for idx, (raw_line, code_line) in enumerate(zip(raw, code)):
        lineno = idx + 1
        if code_line.lstrip().startswith("#"):  # Preprocessor (e.g. #include <new>).
            continue
        if MUTEX_DECL.match(code_line):
            context = raw[max(0, idx - 3) : idx + 1]
            if not any(LOCK_ORDER_COMMENT in c for c in context):
                findings.append(
                    f"{rel}:{lineno}: [mutex-lock-order] mutex declaration "
                    f"without a `lock-order:` comment (here or <= 3 lines above)"
                )
        if NAKED_NEW.search(code_line):
            if not SMART_NEW.search(code_line) and not annotated(raw_line, "naked-new"):
                findings.append(
                    f"{rel}:{lineno}: [naked-new] `new` outside a smart pointer "
                    f"(wrap it, or annotate `// invariant-ok: naked-new (<why>)`)"
                )
        if not in_obs and RELAXED.search(code_line):
            if not annotated(raw_line, "relaxed-order"):
                findings.append(
                    f"{rel}:{lineno}: [relaxed-order] memory_order_relaxed outside "
                    f"src/obs/ (use the seq_cst default, or annotate "
                    f"`// invariant-ok: relaxed-order (<why>)`)"
                )
        if not may_spawn and THREAD_SPAWN.search(code_line):
            if not annotated(raw_line, "thread-spawn"):
                findings.append(
                    f"{rel}:{lineno}: [thread-spawn] thread started outside the "
                    f"worker pool, BatchExecutor and obs/health (run on the "
                    f"calling thread, or annotate "
                    f"`// invariant-ok: thread-spawn (<why>)`)"
                )


def check_snapshot_version(root: Path, findings: list[str]) -> None:
    header = root / "src" / "serve" / "snapshot.hpp"
    if not header.exists():
        return
    current = minimum = None
    current_line = 0
    for lineno, line in enumerate(header.read_text(encoding="utf-8").splitlines(), 1):
        match = VERSION_DEF.search(line)
        if not match:
            continue
        if match.group(1):
            minimum = int(match.group(2))
        else:
            current = int(match.group(2))
            current_line = lineno
    rel = "src/serve/snapshot.hpp"
    if current is None or minimum is None:
        findings.append(
            f"{rel}:1: [snapshot-version] could not parse "
            f"kSnapshotVersion/kMinSnapshotVersion"
        )
        return
    if minimum > current:
        findings.append(
            f"{rel}:{current_line}: [snapshot-version] kMinSnapshotVersion "
            f"({minimum}) > kSnapshotVersion ({current})"
        )
    readme = root / "README.md"
    needle = f"format version {current}"
    if readme.exists() and needle not in readme.read_text(encoding="utf-8"):
        findings.append(
            f"README.md:1: [snapshot-version] README does not document "
            f"`{needle}` - the snapshot constants and their docs move together"
        )


def check_tsan_suppressions(root: Path, findings: list[str]) -> None:
    path = root / ".tsan-suppressions"
    if not path.exists():
        return
    previous_comment = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            previous_comment = False
            continue
        if stripped.startswith("#"):
            previous_comment = True
            continue
        if not previous_comment:
            findings.append(
                f".tsan-suppressions:{lineno}: [tsan-suppression] suppression "
                f"without an immediately preceding justification comment"
            )
        previous_comment = False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root to scan (default: this script's repo)",
    )
    root = parser.parse_args().root.resolve()

    findings: list[str] = []
    for scan_dir in SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                check_source_file(path, str(path.relative_to(root)), findings)
    check_snapshot_version(root, findings)
    check_tsan_suppressions(root, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"check_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
