#!/usr/bin/env python3
"""Self-test for mstc_lint.py: each known-bad fixture must be reported with
the expected rule id, each known-good fixture must pass, and the shipped
src/ tree must be clean. Run directly or via ctest (mstc_lint_selftest)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
LINTER = TOOLS_DIR / "mstc_lint.py"
FIXTURES = TOOLS_DIR / "lint_fixtures"
REPO_SRC = TOOLS_DIR.parent / "src"

# fixture path (relative to lint_fixtures/) -> set of rule ids that must all
# appear in the output; empty set = fixture must lint clean.
EXPECTATIONS = {
    "bad_raw_random.cpp": {"raw-random"},
    "bad_parallel_reduce.cpp": {"parallel-float-reduce"},
    "src/bad_iostream.cpp": {"iostream-in-lib"},
    "src/bad_wall_clock.cpp": {"wall-clock"},
    "src/bad_env_read.cpp": {"env-read"},
    "src/bad_all_pairs.cpp": {"all-pairs-scan"},
    "src/bad_per_receiver_schedule.cpp": {"per-receiver-schedule"},
    "src/good_per_receiver_suppressed.cpp": set(),
    "src/good_all_pairs_suppressed.cpp": set(),
    "src/good_clean.cpp": set(),
    "src/good_env_clean.cpp": set(),
    "src/good_suppressed.cpp": set(),
}


def run_linter(*paths: Path) -> tuple[int, str]:
    result = subprocess.run(
        [sys.executable, str(LINTER), *map(str, paths)],
        capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


def main() -> int:
    failures: list[str] = []

    for relative, expected_rules in EXPECTATIONS.items():
        fixture = FIXTURES / relative
        if not fixture.is_file():
            failures.append(f"missing fixture: {fixture}")
            continue
        code, output = run_linter(fixture)
        if expected_rules:
            if code == 0:
                failures.append(f"{relative}: expected nonzero exit, got 0")
            for rule in expected_rules:
                if f"[{rule}]" not in output:
                    failures.append(
                        f"{relative}: rule '{rule}' not reported; output:\n"
                        f"{output}")
        else:
            if code != 0:
                failures.append(
                    f"{relative}: expected clean (exit 0), got {code}; "
                    f"output:\n{output}")

    # The tree as shipped must be clean — the lint gate in CI relies on it.
    code, output = run_linter(REPO_SRC)
    if code != 0:
        failures.append(f"src/ tree not lint-clean (exit {code}):\n{output}")

    # --list-rules must succeed and mention every rule id.
    result = subprocess.run(
        [sys.executable, str(LINTER), "--list-rules"],
        capture_output=True, text=True, check=False)
    if result.returncode != 0:
        failures.append("--list-rules exited nonzero")
    for rule in ("raw-random", "parallel-float-reduce", "iostream-in-lib",
                 "wall-clock", "env-read", "all-pairs-scan",
                 "per-receiver-schedule"):
        if rule not in result.stdout:
            failures.append(f"--list-rules missing '{rule}'")

    if failures:
        print("mstc_lint self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"mstc_lint self-test: {len(EXPECTATIONS)} fixtures + src/ sweep OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
