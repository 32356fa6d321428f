#!/usr/bin/env python3
"""mstc_lint: repo-specific determinism / correctness linter.

Every simulation run in this repository must be a pure function of
(config, seed), and parallel sweeps must be bit-identical to serial
execution. This linter mechanically enforces the coding rules that protect
those invariants (see docs/DEVELOPMENT.md):

  raw-random            std::rand / srand / std::random_device /
                        std::mt19937 / time(nullptr)-style seeding anywhere
                        outside src/util/prng.* — all randomness must flow
                        through the seeded Xoshiro256 / derive_seed API.
  parallel-float-reduce std::reduce / std::transform_reduce with an
                        std::execution policy. Parallel reduction reorders
                        floating-point addition, so sums change bit patterns
                        from run to run.
  iostream-in-lib       #include <iostream> in library code (src/). Library
                        code must not talk to std::cout/cerr; report through
                        return values and let tools/ front ends print.
  wall-clock            direct wall-clock / resource-usage reads
                        (std::chrono ...::now(), clock_gettime,
                        gettimeofday, getrusage) in library code outside
                        the two sanctioned TUs: src/obs/profile.cpp (the
                        repo's single clock read, obs::wall_now_ns()) and
                        src/util/rusage.cpp (the single getrusage read,
                        util::peak_rss_bytes()). Simulation state must
                        depend on sim-time only; machine facts flow
                        through those two functions so profiling and
                        resource ledgers stay observability concerns.
  env-read              environment reads (getenv, util::env*) in library
                        code outside src/runner/config.cpp,
                        src/util/thread_pool.cpp and src/util/options.*.
                        Every execution setting travels in a config
                        struct; front ends fold MSTC_* variables in
                        through runner::apply_env_overrides, so a run
                        never reads the environment behind its config.
  all-pairs-scan        nested index loops touching fleet positions /
                        controllers arrays in library code. O(n^2) scans
                        over the fleet belong behind graph::SpatialGrid
                        candidate sets (sim::Medium,
                        core::for_each_snapshot_candidates); deliberate
                        brute-force baselines carry a suppression with a
                        justification. The spatial-grid implementation
                        itself is exempt by path.

Two former rules — `unordered-iteration` and `hot-path-std-function` —
moved to tools/mstc_tidy.py, which matches them structurally (declared
types across headers, hot-function reachability) instead of by regex, so a
violation is reported by exactly one tool (see docs/STATIC_ANALYSIS.md).

Suppression: append ``// mstc-lint: allow(<rule>)`` to the offending line or
place it alone on the line directly above. Suppressions are deliberate,
reviewable markers — use them only with a justification comment nearby.
mstc_tidy.py shares the same syntax under the ``mstc-tidy:`` tag; either
tag suppresses either tool (rule ids are disjoint, so a marker only ever
names one tool's rule).

Usage:
  mstc_lint.py <file-or-dir> [more paths...]
  mstc_lint.py --list-rules

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".ipp"}

# Shared suppression grammar: mstc_tidy.py imports this (and
# allowed_rules) so both static-analysis tools honor one syntax.
ALLOW_RE = re.compile(
    r"//\s*mstc-(?:lint|tidy):\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

RULES = {
    "raw-random": (
        "raw randomness outside src/util/prng.*: route all randomness "
        "through util::Xoshiro256 / derive_seed so runs stay a pure "
        "function of (config, seed)"
    ),
    "parallel-float-reduce": (
        "parallel std::reduce/transform_reduce: reordered floating-point "
        "accumulation is not bit-stable across runs"
    ),
    "iostream-in-lib": (
        "#include <iostream> in library code: report through return "
        "values; only tools/ front ends may print"
    ),
    "wall-clock": (
        "wall-clock / resource-usage read in library code outside "
        "src/obs/profile.cpp and src/util/rusage.cpp: simulation state "
        "must depend on sim-time only; use obs::wall_now_ns() / "
        "obs::ScopedTimer for timing and util::peak_rss_bytes() for RSS"
    ),
    "env-read": (
        "environment read in library code outside src/runner/config.cpp, "
        "src/util/thread_pool.cpp and src/util/options.*: carry the "
        "setting in a config struct and fold MSTC_* variables in through "
        "runner::apply_env_overrides"
    ),
    "all-pairs-scan": (
        "nested index loops over fleet positions/controllers: O(n^2) "
        "scans belong behind graph::SpatialGrid candidate sets "
        "(sim::Medium, core::for_each_snapshot_candidates); suppress "
        "deliberate brute-force baselines with a justification"
    ),
    "per-receiver-schedule": (
        "loop over a receiver set scheduling one simulator event per "
        "receiver: broadcast deliveries belong in a single batched "
        "Simulator::schedule_fanout event; suppress deliberate "
        "per-receiver timing (randomized backoffs, differential "
        "baselines) with a justification"
    ),
}

RAW_RANDOM_RE = re.compile(
    r"(?<![:\w])(?:"
    r"std::rand\b|std::srand\b|\brand\s*\(\s*\)|\bsrand\s*\(|"
    r"std::random_device\b|\brandom_device\b|"
    r"std::mt19937(?:_64)?\b|\bmt19937(?:_64)?\b|"
    r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r")"
)

PARALLEL_REDUCE_RE = re.compile(
    r"std\s*::\s*(?:transform_reduce|reduce)\s*\(\s*std\s*::\s*execution\s*::"
)

IOSTREAM_RE = re.compile(r"#\s*include\s*<iostream>")

WALL_CLOCK_RE = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(|"
    r"\bclock_gettime\s*\(|\bgettimeofday\s*\(|\bgetrusage\s*\("
)

ENV_READ_RE = re.compile(
    r"\b(?:secure_)?getenv\s*\(|\butil\s*::\s*env\w*\s*\(|"
    r"(?<![:\w])env_(?:or|flag|list)\s*\("
)

# Classic index-based for (two semicolons); range-fors have none and are
# never all-pairs by themselves.
INDEX_FOR_RE = re.compile(r"\bfor\s*\([^;]*;[^;]*;")
# Subscript into a fleet-indexed array: positions[v], controllers[u],
# scratch_positions_[v], ...
FLEET_SUBSCRIPT_RE = re.compile(r"(?:positions|controllers)\w*\s*\[")
# Lines the inner loop may trail the enclosing one by, and the statement
# window scanned for a fleet subscript.
ALL_PAIRS_LOOKBACK = 4
ALL_PAIRS_LOOKAHEAD = 7

# per-receiver-schedule: a for-loop iterating a receiver/target set whose
# body (the lookahead window) pushes an event per iteration. schedule_fanout
# itself is deliberately absent from the call pattern — routing the loop
# through the batched API is the fix.
RECEIVER_LOOP_RE = re.compile(r"\bfor\s*\([^)]*(?:receiver|target)")
SCHEDULE_CALL_RE = re.compile(r"\bschedule_(?:serial|local|at|in)\s*\(")
PER_RECEIVER_LOOKAHEAD = 10


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so findings keep accurate line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            out.append(" " * (end - i))
            i = end
        elif ch == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            chunk = text[i:end]
            out.append("".join("\n" if c == "\n" else " " for c in chunk))
            i = end
        elif ch in ('"', "'"):
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * max(0, j - i - 2) + quote)
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, detail: str = ""):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def __str__(self) -> str:
        message = RULES[self.rule]
        if self.detail:
            message = f"{message} [{self.detail}]"
        return f"{self.path}:{self.line}: [{self.rule}] {message}"


def allowed_rules(raw_lines: list[str], index: int) -> set[str]:
    """Rules suppressed for raw_lines[index] (same line or the line above)."""
    rules: set[str] = set()
    for probe in (index, index - 1):
        if 0 <= probe < len(raw_lines):
            match = ALLOW_RE.search(raw_lines[probe])
            if match:
                rules.update(r.strip() for r in match.group(1).split(","))
    return rules


def is_library_code(path: Path) -> bool:
    return "src" in path.parts


def is_prng_unit(path: Path) -> bool:
    return path.name in ("prng.hpp", "prng.cpp") and "util" in path.parts


def is_clock_unit(path: Path) -> bool:
    """The two TUs allowed to read machine clocks/usage directly:
    src/obs/profile.cpp (wall_now_ns) and src/util/rusage.cpp
    (peak_rss_bytes). Everything else in src/ — including the rest of
    src/obs/ — must go through those functions."""
    return (path.name == "profile.cpp" and "obs" in path.parts) or (
        path.name == "rusage.cpp" and "util" in path.parts)


def is_env_unit(path: Path) -> bool:
    """The TUs allowed to read the environment: the env helpers themselves
    (src/util/options.*), the scenario override layer
    (src/runner/config.cpp) and the process-wide pool's MSTC_THREADS sizing
    (src/util/thread_pool.cpp)."""
    if "util" in path.parts:
        return path.stem == "options" or path.name == "thread_pool.cpp"
    return path.name == "config.cpp" and "runner" in path.parts


def is_spatial_index_unit(path: Path) -> bool:
    """The spatial grid is the sanctioned replacement for all-pairs scans;
    its own cell-walk loops are exempt from the all-pairs rule."""
    return path.name in ("spatial_grid.hpp", "spatial_grid.cpp")


def lint_file(path: Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as error:
        print(f"mstc_lint: cannot read {path}: {error}", file=sys.stderr)
        return []
    raw_lines = text.splitlines()
    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.splitlines()

    findings: list[Finding] = []

    def report(index: int, rule: str, detail: str = "") -> None:
        if rule not in allowed_rules(raw_lines, index):
            findings.append(Finding(path, index + 1, rule, detail))

    for index, line in enumerate(stripped_lines):
        if not is_prng_unit(path) and RAW_RANDOM_RE.search(line):
            report(index, "raw-random")

        if PARALLEL_REDUCE_RE.search(line):
            report(index, "parallel-float-reduce")

        if is_library_code(path) and IOSTREAM_RE.search(line):
            report(index, "iostream-in-lib")

        if (is_library_code(path) and not is_clock_unit(path)
                and WALL_CLOCK_RE.search(line)):
            report(index, "wall-clock")

        if (is_library_code(path) and not is_env_unit(path)
                and ENV_READ_RE.search(line)):
            report(index, "env-read")

        # all-pairs-scan: an index for-loop nested directly inside another
        # (the enclosing line must leave its block open, i.e. end with '{',
        # so a completed one-line loop a few lines up does not count) whose
        # body subscripts a fleet-indexed array.
        # per-receiver-schedule: a receiver-set loop whose body schedules a
        # simulator event per receiver instead of one batched fan-out.
        if is_library_code(path) and RECEIVER_LOOP_RE.search(line):
            window = stripped_lines[index:index + PER_RECEIVER_LOOKAHEAD]
            for offset, body_line in enumerate(window[1:], start=1):
                if SCHEDULE_CALL_RE.search(body_line):
                    report(index, "per-receiver-schedule")
                    break
                # A nested loop owns any schedule call after it; it is
                # scanned (and reported) on its own line.
                if re.search(r"\bfor\s*\(", body_line):
                    break

        if (is_library_code(path) and not is_spatial_index_unit(path)
                and INDEX_FOR_RE.search(line)):
            enclosing = any(
                INDEX_FOR_RE.search(stripped_lines[k])
                and stripped_lines[k].rstrip().endswith("{")
                for k in range(max(0, index - ALL_PAIRS_LOOKBACK), index))
            if enclosing:
                window = "\n".join(
                    stripped_lines[index:index + ALL_PAIRS_LOOKAHEAD])
                if FLEET_SUBSCRIPT_RE.search(window):
                    report(index, "all-pairs-scan")

    return findings


def collect_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*"))
                if p.suffix in CXX_SUFFIXES and p.is_file()
            )
        elif path.is_file():
            files.append(path)
        else:
            print(f"mstc_lint: no such file or directory: {path}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="mstc_lint.py",
        description="Determinism / correctness linter for the mstc repo.")
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and descriptions, then exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}: {description}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in collect_files(args.paths):
        findings.extend(lint_file(path))

    for finding in findings:
        print(finding)
    if findings:
        print(f"mstc_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
