#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny command.

    python3 perfbench/selftest.py

Checks that every end-to-end metric of BENCHMARK.json, and fail_ratio, is
emitted with its unit; that a deliberately wrong digest is counted in
fail_ratio while every metric is still reported; and that a traced run
emits every per-layer metric of BENCHMARK.json.  Exits 1 on any failure.
"""

import json
import sys

from run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, load_digests, run_workload

TINY = "verify lemma3 --n 3 --q 2"


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    def expect_metrics(res: dict, declared: list, units: dict, label: str) -> None:
        for m in declared:
            expect(m["name"] in res["metrics"] and units.get(m["name"]) == m["unit"],
                   f"{label}: {m['name']} emitted in {m['unit']}")

    digests = load_digests()
    expect(TINY in digests, f"a digest is recorded for {TINY!r}")
    good = run_workload((TINY,), 0.1, 0, False, digests)
    expect_metrics(good, spec["end_to_end"], END_TO_END_UNITS, "recorded digest")
    expect("fail_ratio" in good["metrics"], "recorded digest: fail_ratio emitted")
    expect(good["correct"] and good["metrics"]["fail_ratio"] == 0, "recorded digest: fail_ratio is 0")

    bad = run_workload((TINY,), 0.1, 0, False, {TINY: "0" * 64})
    expect_metrics(bad, spec["end_to_end"], END_TO_END_UNITS, "wrong digest")
    expect(not bad["correct"] and bad["metrics"]["fail_ratio"] == 1,
           "wrong digest: counted in fail_ratio")

    traced = run_workload((TINY,), 0.1, 0, True, digests)
    expect_metrics(traced, spec["per_layer"], PER_LAYER_UNITS, "traced")
    expect(traced["correct"], "traced: output matches the untraced run")
    expect(traced["metrics"]["flagmodel.convolve.calls"] > 0, "traced: convolve spans recorded")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
