#!/usr/bin/env python3
"""Repo-specific invariant lints for kgsearch.

Enforces rules the compilers cannot (or that we want to fail loudly even
under gcc, where the Clang thread-safety attributes are no-ops):

  R1  rng-hygiene        No std::*_distribution / rand() / std::random_device
                         / std::mt19937 outside src/util/rng.h. PR 6's
                         bit-reproducibility guarantee (the million-scale
                         generator is a pure function of (spec, node id),
                         byte-identical across platforms) holds only while
                         every sampler goes through util/rng.h's portable
                         implementations.

  R2  nodiscard-status   util/status.h must declare `class [[nodiscard]]
                         Status` and `class [[nodiscard]] Result` (which
                         makes every Status/Result-returning API must-use at
                         every call site), and no source may silence that by
                         casting a Status/Result expression to void.

  R3  naked-mutex        No std::mutex / std::lock_guard / std::unique_lock /
                         std::scoped_lock / std::condition_variable /
                         std::shared_mutex outside src/util/mutex.h. All
                         locking goes through the annotated Mutex/MutexLock/
                         CondVar wrappers so the Clang thread-safety build
                         proves the locking discipline tree-wide.

  R4  tsa-escape-hatch   NO_THREAD_SAFETY_ANALYSIS may appear only under
                         src/util/ (its definition plus, at most, justified
                         uses in the lock wrappers themselves).

  R5  simd-confinement   No vendor intrinsics (<immintrin.h>/<arm_neon.h>
                         includes, _mm*/__m128/__m256/__m512, NEON v*q_f32
                         calls or float32x4_t) anywhere: every similarity
                         is vector_math's exact scalar Dot, so a vector
                         kernel would be a second arithmetic whose bits
                         the differential suites do not pin.

  R6  delta-confinement  Mutable DeltaSnapshot handles — non-const
                         references/pointers, non-const smart-pointer
                         elements, new/make_shared construction — may
                         appear only in src/kg/delta_overlay.{h,cc}.
                         Every other layer mutates through
                         DeltaOverlay::Commit and reads via
                         shared_ptr<const DeltaSnapshot>; that is what
                         makes epoch publication atomic. A snapshot that
                         escaped as mutable could be edited after readers
                         pinned it, silently breaking the never-see-a-
                         half-applied-batch guarantee.

  R7  kgpack-confinement kKgPackMagic, kKgPackVersion and
                         snapshot_internal:: may appear only in
                         src/kg/snapshot*.{h,cc}. kgpack bytes have one
                         writer (SnapshotStreamWriter) and one decoder;
                         code elsewhere that touches the magic, the
                         version or the format internals is a second
                         encoder or parser in the making. Sniff with
                         LooksLikeKgPack and read/write through the
                         snapshot API instead.

Scope: src/ (and bench/ + examples/ for R1/R2's void-cast rule — they ship
binaries, so their RNG and error handling follow the same bar). tests/ are
exempt from R3 (test doubles may build ad-hoc synchronization) but not from
R1 outside seeded-fixture helpers... in practice tests use util/rng.h too;
R1 covers src/ + bench/ + examples/ only to keep hostile-input fixtures
free to embed arbitrary bytes.

Exit status: 0 when clean, 1 with one "path:line: [rule] message" per
violation otherwise.

Usage: python3 tools/check_invariants.py [--root DIR]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

# R1: portable-RNG hygiene ---------------------------------------------------
RNG_PATTERNS = [
    (re.compile(r"\bstd::\w+_distribution\b"), "std::*_distribution"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::(mt19937(_64)?|minstd_rand0?|ranlux\w+|knuth_b)\b"),
     "std <random> engine"),
    (re.compile(r"(?<![\w:.])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w:.])srand\s*\("), "srand()"),
]
RNG_ALLOWED = {Path("src/util/rng.h")}

# R2: [[nodiscard]] Status discipline ----------------------------------------
STATUS_HEADER = Path("src/util/status.h")
NODISCARD_CLASS_RE = re.compile(
    r"class\s+\[\[nodiscard\]\]\s+(Status|Result)\b")
# A `(void)` cast silencing a must-use Status/Result expression. Matches
# `(void)Foo(...)` / `(void)obj.Bar(...)` where the callee name suggests a
# Status-returning API, plus the unambiguous `(void)status`-style forms.
VOID_CAST_RE = re.compile(
    r"\(\s*void\s*\)\s*[A-Za-z_][\w.\->:]*\s*\(")
VOID_STATUS_RE = re.compile(
    r"\(\s*void\s*\)\s*[A-Za-z_][\w.\->:]*(status|Status)\b")

# R3: naked synchronization primitives ---------------------------------------
MUTEX_PATTERNS = [
    (re.compile(r"\bstd::(recursive_|timed_|recursive_timed_|shared_)?mutex\b"),
     "std::mutex family"),
    (re.compile(r"\bstd::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\bstd::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bstd::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bstd::shared_lock\b"), "std::shared_lock"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"),
     "std::condition_variable"),
]
MUTEX_ALLOWED = {Path("src/util/mutex.h")}

# R4: analysis escape hatch ---------------------------------------------------
ESCAPE_RE = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")
ESCAPE_ALLOWED_PREFIX = Path("src/util")

# R5: no intrinsics -----------------------------------------------------------
SIMD_PATTERNS = [
    (re.compile(r"#\s*include\s*<(\w*intrin|arm_neon)\.h>"),
     "vendor intrinsics header"),
    (re.compile(r"\b_mm(256|512)?_\w+\s*\("), "_mm* intrinsic call"),
    (re.compile(r"\b__m(128|256|512)[di]?\b"), "__m* vector type"),
    (re.compile(r"\bfloat32x[24]_t\b"), "NEON vector type"),
    (re.compile(r"\bv\w+_f32\s*\("), "NEON intrinsic call"),
]

# R6: delta mutation confined to the overlay module ---------------------------
DELTA_TYPE_RE = re.compile(r"\bDeltaSnapshot\b")
DELTA_CONST_BEFORE_RE = re.compile(r"\bconst\s*$")
DELTA_NEW_BEFORE_RE = re.compile(r"\bnew\s*$")
DELTA_ALLOWED = {
    Path("src/kg/delta_overlay.h"),
    Path("src/kg/delta_overlay.cc"),
}

# R7: kgpack format internals confined to the snapshot module ----------------
KGPACK_RE = re.compile(
    r"\b(kKgPackMagic|kKgPackVersion)\b|\bsnapshot_internal::")
KGPACK_ALLOWED_DIR = Path("src/kg")
KGPACK_ALLOWED_NAME_RE = re.compile(r"snapshot\w*\.(h|cc)")

LINE_COMMENT_RE = re.compile(r"//.*$")


def strip_comments(text: str) -> list[str]:
    """Lines with // and /* */ comment bodies blanked (newlines kept so
    reported line numbers stay true). String literals are left intact —
    the patterns above cannot occur meaningfully inside them."""
    # Blank block comments but preserve line structure.
    out = []
    in_block = False
    for line in text.splitlines():
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        # Handle (possibly several) block comments opening on this line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        out.append(LINE_COMMENT_RE.sub("", line))
    return out


def iter_sources(root: Path, subdirs: list[str]):
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path


def check(root: Path) -> list[str]:
    violations: list[str] = []

    def report(path: Path, lineno: int, rule: str, message: str):
        rel = path.relative_to(root)
        violations.append(f"{rel}:{lineno}: [{rule}] {message}")

    # R2a: class-level [[nodiscard]] present on Status and Result.
    status_header = root / STATUS_HEADER
    if not status_header.is_file():
        violations.append(
            f"{STATUS_HEADER}:1: [nodiscard-status] header is missing")
    else:
        marked = set(NODISCARD_CLASS_RE.findall(status_header.read_text()))
        for cls in ("Status", "Result"):
            if cls not in marked:
                violations.append(
                    f"{STATUS_HEADER}:1: [nodiscard-status] class "
                    f"{cls} must be declared `class [[nodiscard]] {cls}`")

    for path in iter_sources(root, ["src", "bench", "examples"]):
        rel = path.relative_to(root)
        kgpack_allowed = (rel.parent == KGPACK_ALLOWED_DIR and
                          KGPACK_ALLOWED_NAME_RE.fullmatch(rel.name))
        lines = strip_comments(path.read_text(errors="replace"))
        for lineno, line in enumerate(lines, start=1):
            # R1 rng hygiene
            if rel not in RNG_ALLOWED:
                for pattern, what in RNG_PATTERNS:
                    if pattern.search(line):
                        report(path, lineno, "rng-hygiene",
                               f"{what} outside util/rng.h breaks "
                               "bit-reproducible generation; use FastRng "
                               "and the samplers in util/rng.h")
            # R2b void-cast silencing
            if VOID_STATUS_RE.search(line) or (
                    VOID_CAST_RE.search(line)
                    and re.search(r"(?i)\b(status|result)\b", line)):
                report(path, lineno, "nodiscard-status",
                       "(void)-casting a Status/Result silences the "
                       "[[nodiscard]] contract; handle or propagate it")
            # R3 naked mutex (src/ only)
            if rel.parts[0] == "src" and rel not in MUTEX_ALLOWED:
                for pattern, what in MUTEX_PATTERNS:
                    if pattern.search(line):
                        report(path, lineno, "naked-mutex",
                               f"{what} outside util/mutex.h evades the "
                               "thread-safety analysis; use the annotated "
                               "Mutex/MutexLock/CondVar wrappers")
            # R5 no intrinsics
            for pattern, what in SIMD_PATTERNS:
                if pattern.search(line):
                    report(path, lineno, "simd-confinement",
                           f"{what}: similarities use vector_math's exact "
                           "scalar Dot, which the differential suites pin "
                           "bit for bit; vendor intrinsics are not allowed")
            # R6 delta-mutation confinement
            if rel not in DELTA_ALLOWED:
                for match in DELTA_TYPE_RE.finditer(line):
                    before = line[:match.start()]
                    after = line[match.end():].lstrip()
                    mutable_handle = (
                        after[:1] in ("&", "*") or
                        before.rstrip().endswith("<") or
                        DELTA_NEW_BEFORE_RE.search(before))
                    if mutable_handle and not DELTA_CONST_BEFORE_RE.search(
                            before):
                        report(path, lineno, "delta-confinement",
                               "mutable DeltaSnapshot handle outside "
                               "kg/delta_overlay.* could edit a published "
                               "snapshot after readers pinned it; mutate "
                               "through DeltaOverlay::Commit and read via "
                               "shared_ptr<const DeltaSnapshot>")
            # R7 kgpack-format confinement
            if not kgpack_allowed:
                for match in KGPACK_RE.finditer(line):
                    report(path, lineno, "kgpack-confinement",
                           f"{match.group(0)} outside kg/snapshot* starts "
                           "a second kgpack encoder or parser; go through "
                           "the snapshot API (LooksLikeKgPack, "
                           "Encode/Decode/Save/LoadSnapshot, "
                           "SnapshotStreamWriter)")
            # R4 escape hatch scope
            if ESCAPE_RE.search(line):
                try:
                    rel.relative_to(ESCAPE_ALLOWED_PREFIX)
                except ValueError:
                    report(path, lineno, "tsa-escape-hatch",
                           "NO_THREAD_SAFETY_ANALYSIS outside src/util/ "
                           "defeats the compile-time race proof; fix the "
                           "annotation instead")

    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    args = parser.parse_args()

    violations = check(args.root.resolve())
    for v in violations:
        print(v)
    if violations:
        print(f"check_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
