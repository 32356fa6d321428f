#!/usr/bin/env python3
"""The benchmark's own tests, on tiny (--smoke) scenarios. Run from the
repository root:

    python3 perfbench/smoke_test.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a wrong reference digest drives the failed share to 1 with a non-zero exit,
and that the last round of fleet_sharded (a sharded-kernel round) produces
the same result digest as fleet_serial.
"""
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def smoke(workload, trace, *extra):
    done = run.run(workload, 1, 0.2, trace, ("--smoke", *extra))
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(l)["detail"] for l in lines if l.startswith('{"detail"'))
    return done.returncode, json.loads(lines[-1]), detail


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(condition, message):
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    digests = {}
    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, detail = smoke(workload, trace)
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   "%s --trace %d passes its output checks" % (workload, trace))
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == wanted,
                   "%s --trace %d emits exactly the %s metrics with their units"
                   % (workload, trace, group))
            digests[workload] = detail["last_round_digests"].split()[2:]

    code, result, _ = smoke("paper_sweep", 0, "--expect-digest", "0")
    ok_share = result["metrics"]["ok_share"]["value"]
    expect(code != 0 and result["failed"] == result["attempted"] and ok_share == 0,
           "a wrong reference digest fails every replication and the run")

    expect(digests["fleet_serial"] == digests["fleet_sharded"],
           "fleet_sharded's last round reproduces fleet_serial's result digest")
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
