#!/usr/bin/env python3
"""Checks that a program rejects a bad setting as a usage error.

Runs the command after `--` (with any `--env NAME=VALUE` added to the
environment) and passes when it exits with status 2 and its stderr holds the
`--message` text; a crash, an abort or a run that goes ahead fails.

    expect_usage_error.py --message "error: --nodes must not be negative" \\
        -- build/tools/mstc-sim --nodes -5 --duration 1
    expect_usage_error.py --env MSTC_NODES=-5 \\
        --message "error: MSTC_NODES must not be negative" \\
        -- build/examples/mobile_broadcast
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--message", required=True)
    parser.add_argument("--env", action="append", default=[],
                        metavar="NAME=VALUE")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given after --")

    env = dict(os.environ)
    for assignment in args.env:
        name, _, value = assignment.partition("=")
        env[name] = value
    try:
        result = subprocess.run(command, env=env, capture_output=True,
                                text=True, timeout=120)
    except subprocess.TimeoutExpired:
        print(f"FAIL: {command} did not exit within 120 s")
        return 1
    problems = []
    if result.returncode != 2:
        problems.append(f"exit status {result.returncode}, expected 2")
    if args.message not in result.stderr:
        problems.append(f"stderr lacks {args.message!r}")
    if problems:
        print(f"FAIL: {' '.join(command)}: {'; '.join(problems)}")
        print(f"stderr was:\n{result.stderr}")
        return 1
    print(f"ok: {' '.join(command)} -> exit 2, {args.message!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
