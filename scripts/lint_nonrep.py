#!/usr/bin/env python3
"""Repo-local lint for the lock discipline, hostile-input and configuration rules.

Checks, over every .hpp/.cpp under src/:

1. Raw synchronization primitives (std::mutex, std::shared_mutex,
   std::condition_variable, std::lock_guard, std::unique_lock,
   std::shared_lock, std::scoped_lock) are banned outside
   util/lock_discipline.{hpp,cpp} — every lock in the tree must be a ranked
   nonrep::util wrapper so the lockdep runtime and the Clang thread-safety
   job see it. The checker itself (and its internal registry mutex) is the
   one allowed exception.

2. assert( is banned in decode/hostile-input paths: code that parses bytes
   an adversary controls must reject with a Status/Result, never with an
   assert that compiles out under NDEBUG (the pki_release_test regression
   exists for exactly that failure mode).

3. getenv( / secure_getenv( are banned: the library is configured through
   its Options structs only, so a caller (or a test) sees every knob that
   changes behavior, and no environment variable silently overrides one.

4. No orphan lock ranks: every util::LockRank enumerator except kUnranked
   must be named (LockRank::kName) by a lock somewhere in src/ outside
   util/lock_discipline.{hpp,cpp}. A rank nothing uses documents an
   acquisition order for a lock that no longer exists.

Exit 0 when clean; prints one line per violation and exits 1 otherwise.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

RAW_SYNC = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)

# The lockdep runtime cannot be built from its own wrappers.
RAW_SYNC_ALLOWLIST = {
    SRC / "util" / "lock_discipline.hpp",
    SRC / "util" / "lock_discipline.cpp",
}

# Files that decode wire bytes, journal frames, or certificate material —
# anything an adversary can feed. assert() is not an input validator.
HOSTILE_INPUT = re.compile(r"\bassert\s*\(")
HOSTILE_INPUT_PATHS = [
    re.compile(p)
    for p in (
        r"src/journal/(format|reader|segment)\.(hpp|cpp)$",
        r"src/core/protocol_message\.(hpp|cpp)$",
        r"src/pki/(certificate|revocation)\.(hpp|cpp)$",
        r"src/wsnr/.*\.(hpp|cpp)$",
        r"src/util/serialize\.(hpp|cpp)$",
        r"src/store/evidence_log\.(hpp|cpp)$",
    )
]

# Library configuration goes through the Options structs, never the process
# environment.
ENV_KNOB = re.compile(r"\b(?:secure_)?getenv\s*\(")

LOCK_RANK_HEADER = SRC / "util" / "lock_discipline.hpp"
LOCK_RANK_ENUM = re.compile(r"enum class LockRank\b[^{]*\{(?P<body>.*?)\};", re.S)
LOCK_RANK_ENUMERATOR = re.compile(r"\b(k\w+)\s*=")
LOCK_RANK_USE = re.compile(r"\bLockRank::(k\w+)\b")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string literals, preserving line structure."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def main() -> int:
    violations: list[str] = []
    used_ranks: set[str] = set()
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in {".hpp", ".cpp"}:
            continue
        rel = path.relative_to(REPO).as_posix()
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        if path not in RAW_SYNC_ALLOWLIST:
            used_ranks.update(LOCK_RANK_USE.findall(code))
            for lineno, line in enumerate(code.splitlines(), 1):
                if RAW_SYNC.search(line):
                    violations.append(
                        f"{rel}:{lineno}: raw std sync primitive — use the ranked "
                        "wrappers in util/lock_discipline.hpp"
                    )
        if any(p.search(rel) for p in HOSTILE_INPUT_PATHS):
            for lineno, line in enumerate(code.splitlines(), 1):
                if HOSTILE_INPUT.search(line) and "static_assert" not in line:
                    violations.append(
                        f"{rel}:{lineno}: assert() in a hostile-input path — "
                        "reject with Status/Result instead"
                    )
        for lineno, line in enumerate(code.splitlines(), 1):
            if ENV_KNOB.search(line):
                violations.append(
                    f"{rel}:{lineno}: getenv in the library — add an Options "
                    "field instead of an environment knob"
                )
    header = strip_comments_and_strings(LOCK_RANK_HEADER.read_text(encoding="utf-8"))
    enum = LOCK_RANK_ENUM.search(header)
    if enum is None:
        violations.append(f"{LOCK_RANK_HEADER.relative_to(REPO).as_posix()}: "
                          "enum class LockRank not found")
    else:
        first_line = header.count("\n", 0, enum.start("body")) + 1
        body = enum.group("body")
        for match in LOCK_RANK_ENUMERATOR.finditer(body):
            name = match.group(1)
            if name == "kUnranked" or name in used_ranks:
                continue
            lineno = first_line + body.count("\n", 0, match.start())
            violations.append(
                f"{LOCK_RANK_HEADER.relative_to(REPO).as_posix()}:{lineno}: LockRank::{name} "
                "is named by no lock in src/ — delete the orphan rank"
            )
    for v in violations:
        print(v)
    if violations:
        print(f"lint_nonrep: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_nonrep: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
