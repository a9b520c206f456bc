"""Run one qshuffle CLI command for the benchmark and report on it.

    python3 -I child.py SRC REPORT TRACE -- ARG...

Imports qshuffle from SRC, notes the CLOCK_MONOTONIC time at which the
package is imported and argv is ready, and calls qshuffle.cli.main(ARG...),
whose output goes to stdout as usual.  With TRACE 1 it first rebinds each
traced public function, in every qshuffle module that holds it, to a
wrapper that records a span in memory.  When main returns it writes a JSON
report to REPORT: the ready time, the imported qshuffle.__file__, the peak
resident set size and the spans, each [name, start, end, parent index,
result size].  The package source is not modified.
"""

import json
import sys
import time

# The public functions that bound one layer each.  Finer calls (polyring,
# symgroup) are too frequent to wrap and land in their caller's self time.
TRACED = (
    "main",
    "verify_lemma3",
    "verify_factorization",
    "verify_span_commutativity",
    "verify_multiplicities",
    "compare_structure_constants",
    "enumerate_flags",
    "convolve",
    "f1",
    "f_t",
    "mul",
    "group_mul",
    "wallach_product",
    "wallach_group_product",
    "left_mult_matrix",
    "tau_matrix",
    "multiplicity",
    "rank",
    "rank_mod",
)

# Spans whose result length is recorded, as a work count.
SIZED = {"flagmodel.enumerate_flags"}


def install_tracer() -> list:
    """Wrap every TRACED function and return the list that collects spans."""
    spans: list = []
    stack: list = []
    clock = time.perf_counter
    modules = [
        m for name, m in sys.modules.items()
        if name == "qshuffle" or name.startswith("qshuffle.")
    ]

    def wrap(label, fn):
        sized = label in SIZED

        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sized:
                span[4] = len(result)
            return result

        return traced

    for name in TRACED:
        homes = [m for m in modules
                 if getattr(m.__dict__.get(name), "__module__", None) == m.__name__]
        if len(homes) != 1:
            raise LookupError(f"traced function {name!r} is defined in {len(homes)} qshuffle modules")
        original = homes[0].__dict__[name]
        wrapper = wrap(f"{homes[0].__name__.rpartition('.')[2]}.{name}", original)
        for m in modules:
            if m.__dict__.get(name) is original:
                setattr(m, name, wrapper)
    return spans


def peak_rss_kib() -> int:
    """High-water resident set size of this process image, in KiB (Linux).

    ru_maxrss is not used: exec carries the spawning process's high-water
    mark into it, so it would report the benchmark process's memory too.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise LookupError("no VmHWM line in /proc/self/status")


def main() -> int:
    src, report_path, trace, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: child.py SRC REPORT TRACE -- ARG...")
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    import qshuffle
    from qshuffle import cli

    spans = install_tracer() if trace == "1" else []
    report = {"ready": time.monotonic(), "qshuffle_file": qshuffle.__file__, "spans": spans}
    try:
        return cli.main(argv)
    finally:
        report["peak_rss_kib"] = peak_rss_kib()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
