#!/usr/bin/env python3
"""Time-to-proof benchmark for the qshuffle CLI (stdlib only).

Run from the repository root:

    python3 perfbench/run.py --workload f2-identities --seed 1 --seconds 30 --trace 0

A workload is a fixed list of ``qshuffle ... --format json`` commands.  One
benchmark process runs them one at a time, each in a fresh interpreter (a
closed loop with one client), in whole passes over the workload.  It starts
another pass only while the longest pass so far still fits in --seconds.
The seed only shuffles the command order inside each pass: the verifiers'
work is fixed by (n, q), so no input depends on it.

Every command is checked: it must exit 0, report "pass": true, and the
sha256 of the "checks" array of its output must equal the digest recorded
in perfbench/digests.json.

With --trace 0 the end-to-end metrics are:

    wall_s        spawn-to-exit time of the workload's commands, summed
                  over one pass; mean over passes
    cpu_s         user + system CPU time of those child processes, summed
                  over one pass; mean over passes
    setup_s       spawn until qshuffle is imported and argv is ready, per
                  command (median over every spawn in the run) times the
                  number of commands
    peak_rss_mib  highest resident set size of any command in the run
    fail_ratio    failed commands / attempted commands (printed, not gated)

Times are means over passes, not medians: on a shared machine the CPU
speed changes in phases of several seconds, and a median over a few passes
jumps between phases where the mean moves smoothly.

With --trace 1 each round is one untraced and one traced pass; the traced
pass records spans around the public functions of each module (see
child.py) and gives the per-layer metrics described in perfbench/README.md.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Everything else about the run (environment,
per-command records, per-command layer metrics, spans) goes to
perfbench/out/.  Use --workload all to run every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"

# Sizes are fixed frontier points under the default flag budget.  See
# BENCHMARK.json for why each workload exists; f2-identities and oddq-n4
# run by hand only (perfbench/README.md says why).
WORKLOADS = {
    "f2-identities": (
        "verify lemma3 --n 5 --q 2",
        "verify factorization --n 5 --q 2",
    ),
    "f2-tensor": (
        "verify span --n 5 --q 2",
        "verify structure-constants --n 5 --q 2",
    ),
    "oddq-n4": (
        "verify lemma3 --n 4 --q 3",
        "verify factorization --n 4 --q 3",
        "verify span --n 4 --q 3",
        "verify structure-constants --n 4 --q 3",
    ),
    "hecke-spectrum": (
        "verify hecke-identity --n 7",
        "verify group-identity --n 8",
        "multiplicities --n 5",
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "fail_ratio": "ratio",
}

# Per-layer metrics.  A name ending in _s is self time (span time minus
# child spans) summed over the workload's commands, except
# trace.overhead_s, which is traced wall_s minus untraced wall_s.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "flagmodel.enumerate_flags.calls": "count",
    "flagmodel.enumerate_flags.flags": "count",
    "flagmodel.enumerate_flags.self_s": "s",
    "flagmodel.convolve.first_s": "s",
    "flagmodel.convolve.calls": "count",
    "flagmodel.convolve.warm_s": "s",
    "flagmodel.structure_constants.self_s": "s",
    "flagmodel.orbit_fns.calls": "count",
    "flagmodel.orbit_fns_s": "s",
    "hecke.mul.calls": "count",
    "hecke.mul.self_s": "s",
    "hecke.group_mul.calls": "count",
    "hecke.group_mul_s": "s",
    "hecke.left_mult_matrix_s": "s",
    "spectral.tau_matrix_s": "s",
    "spectral.rank.calls": "count",
    "spectral.rank_s": "s",
    "spectral.rank_mod.calls": "count",
    "spectral.rank_mod_s": "s",
    "trace.overhead_s": "s",
}


def checks_digest(doc: dict) -> str:
    """sha256 of the canonical JSON of the "checks" array (tool.version left out)."""
    canon = json.dumps(doc["checks"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def run_command(command: str, trace: bool, expected: str | None) -> tuple[dict, list]:
    """Run one CLI command in a fresh interpreter; return its record and spans."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    report_path, out_path, err_path = tmp / "report.json", tmp / "stdout", tmp / "stderr"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, "-I", str(CHILD), str(SRC), str(report_path), str(int(trace)),
            "--", *command.split(), "--format", "json"]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    rec = {
        "command": command,
        "traced": trace,
        "exit": proc.returncode,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": None,
        "setup_s": None,
        "qshuffle_file": None,
        "digest": None,
        "errors": [],
    }
    spans: list = []
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        rec["setup_s"] = report["ready"] - start
        rec["qshuffle_file"] = report["qshuffle_file"]
        rec["rss_mib"] = report["peak_rss_kib"] / 1024
        spans = report["spans"]
    except (OSError, ValueError, KeyError):
        rec["errors"].append("no child report")
    try:
        doc = json.loads(out_path.read_bytes())
        rec["digest"] = checks_digest(doc)
        if doc.get("pass") is not True:
            rec["errors"].append('output says "pass": false')
    except (ValueError, KeyError, TypeError):
        rec["errors"].append("output is not a qshuffle JSON document")
    if rec["exit"] != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        rec["errors"].append(f"exit {rec['exit']}: " + " | ".join(tail))
    if rec["digest"] is not None and rec["digest"] != expected:
        rec["errors"].append(f"checks digest {rec['digest']} != recorded {expected}")
    qfile = rec["qshuffle_file"]
    if qfile is not None and not Path(qfile).resolve().is_relative_to(SRC):
        rec["errors"].append(f"imported qshuffle from {qfile}, not from {SRC}")
    return rec, spans


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced command, from its spans."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sizes: dict[str, int] = {}
    first_convolve = 0.0
    for i, (name, start, end, _, size) in enumerate(spans):
        own = end - start - child_time[i]
        if name == "flagmodel.convolve" and name not in calls:
            first_convolve = own
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if size is not None:
            sizes[name] = sizes.get(name, 0) + size

    def c(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    return {
        "cli.self_s": s("cli.main"),
        "flagmodel.enumerate_flags.calls": c("flagmodel.enumerate_flags"),
        "flagmodel.enumerate_flags.flags": sizes.get("flagmodel.enumerate_flags", 0),
        "flagmodel.enumerate_flags.self_s": s("flagmodel.enumerate_flags"),
        "flagmodel.convolve.first_s": first_convolve,
        "flagmodel.convolve.calls": c("flagmodel.convolve"),
        "flagmodel.convolve.warm_s": s("flagmodel.convolve") - first_convolve,
        "flagmodel.structure_constants.self_s": s("flagmodel.compare_structure_constants"),
        "flagmodel.orbit_fns.calls": c("flagmodel.f1") + c("flagmodel.f_t"),
        "flagmodel.orbit_fns_s": s("flagmodel.f1") + s("flagmodel.f_t"),
        "hecke.mul.calls": c("hecke.mul"),
        "hecke.mul.self_s": s("hecke.mul"),
        "hecke.group_mul.calls": c("hecke.group_mul"),
        "hecke.group_mul_s": s("hecke.group_mul"),
        "hecke.left_mult_matrix_s": s("hecke.left_mult_matrix"),
        "spectral.tau_matrix_s": s("spectral.tau_matrix"),
        "spectral.rank.calls": c("spectral.rank"),
        "spectral.rank_s": s("spectral.rank"),
        "spectral.rank_mod.calls": c("spectral.rank_mod"),
        "spectral.rank_mod_s": s("spectral.rank_mod"),
    }


def warm_up() -> None:
    """Import the package once so that byte-code compilation is not timed."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import qshuffle.cli"
    subprocess.run([sys.executable, "-I", "-c", code], check=True, cwd=ROOT)


def run_workload(commands, seconds: float, seed: int, trace: bool,
                 digests: dict[str, str]) -> dict:
    """Run passes over `commands` for about `seconds`; return metrics and records."""
    warm_up()
    rng = random.Random(seed)
    modes = (False, True) if trace else (False,)
    rounds: list[dict[bool, list]] = []
    span_commands: list[dict] = []
    span_rows: list[list] = []
    deadline = time.monotonic() + seconds
    longest = 0.0
    while True:
        began = time.monotonic()
        rnd: dict[bool, list] = {}
        for traced in modes:
            order = list(commands)
            rng.shuffle(order)
            recs = []
            for command in order:
                rec, spans = run_command(command, traced, digests.get(command))
                if traced:
                    rec["layers"] = layer_metrics(spans)
                    span_rows.extend([len(span_commands), *span] for span in spans)
                    span_commands.append({"command": command, "round": len(rounds)})
                recs.append(rec)
            rnd[traced] = recs
        rounds.append(rnd)
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + longest > deadline:
            break

    if trace:
        # the traced output must match the untraced output of the same command
        for rnd in rounds:
            plain = {rec["command"]: rec["digest"] for rec in rnd[False]}
            for rec in rnd[True]:
                if rec["digest"] != plain[rec["command"]]:
                    rec["errors"].append("traced output differs from untraced output")
    records = [rec for rnd in rounds for recs in rnd.values() for rec in recs]
    attempted = len(records)
    failed = sum(1 for rec in records if rec["errors"])

    def wall(recs):
        return sum(rec["wall_s"] for rec in recs)

    if trace:
        per_round = []
        for rnd in rounds:
            totals = dict.fromkeys(PER_LAYER_UNITS, 0)
            for rec in rnd[True]:
                for name, value in rec["layers"].items():
                    totals[name] += value
            totals["trace.overhead_s"] = wall(rnd[True]) - wall(rnd[False])
            per_round.append(totals)
        metrics = {name: statistics.median(r[name] for r in per_round)
                   for name in PER_LAYER_UNITS}
    else:
        passes = [rnd[False] for rnd in rounds]
        setups = [rec["setup_s"] for recs in passes for rec in recs if rec["setup_s"] is not None]
        if not setups:
            raise SystemExit("error: no command got as far as importing qshuffle")
        metrics = {
            "wall_s": statistics.fmean(wall(recs) for recs in passes),
            "cpu_s": statistics.fmean(sum(rec["cpu_s"] for rec in recs) for recs in passes),
            "setup_s": statistics.median(setups) * len(commands),
            "peak_rss_mib": max(rec["rss_mib"] or 0.0 for recs in passes for rec in recs),
            "fail_ratio": failed / attempted,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "records": records,
        # parent is an index among the spans of the same command_id
        "spans": {"fields": ["command_id", "name", "start", "end", "parent", "size"],
                  "commands": span_commands, "rows": span_rows},
    }


def environment(seed: int, records: list) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    source = hashlib.sha256()
    for path in sorted((SRC / "qshuffle").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "qshuffle_file": sorted({r["qshuffle_file"] for r in records if r["qshuffle_file"]}),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qshuffle" / "__init__.py").is_file():
        print(f"error: no qshuffle package under {SRC}", file=sys.stderr)
        return 2
    digests = load_digests()
    trace = bool(args.trace)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)

    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seconds, args.seed, trace, digests)
        stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
        spans = res.pop("spans")
        res["environment"] = environment(args.seed, res["records"])
        res.update(workload=name, commands=list(WORKLOADS[name]), seconds=args.seconds,
                   units=units)
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        if trace:
            with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
        for rec in res["records"]:
            for err in rec["errors"]:
                print(f"FAIL {name}: {rec['command']}: {err}")
        print(f"{name}: {res['rounds']} rounds, {res['attempted']} commands, "
              f"{res['failed']} failed; qshuffle from {res['environment']['qshuffle_file']}")
        for metric, value in res["metrics"].items():
            print(f"  {metric} = {value:.6g} {units[metric]}")
        print(f"  results in {stem.relative_to(ROOT)}.json")
        results[name] = res

    gated = {m: u for m, u in units.items() if m != "fail_ratio"}
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{m}" if prefix else m): {"value": r["metrics"][m], "unit": u}
            for w, r in results.items() for m, u in gated.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
