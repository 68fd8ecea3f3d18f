#!/usr/bin/env python3
"""Bench-regression gate: compare detect-time columns against a baseline,
two columns of one run against each other (self-relative mode), or
deterministic work counters against their exact expected values.

Baseline mode:
    check_bench_regression.py CURRENT BASELINE [CURRENT BASELINE ...]
        [--column=detect] [--threshold=0.25] [--min-seconds=0.05]

CURRENT and BASELINE are JSON files written by the bench harnesses'
`--json=PATH` flag (TablePrinter::ToJson): {"name", "header", "rows"},
every cell a string. Rows are matched positionally and must agree on the
first (label) column; the harnesses are deterministic in shape for a fixed
seed/scale, so a shape mismatch means the bench itself changed — update
the baseline in the same PR (re-run the bench with --json pointed at the
checked-in BENCH_*.json).

A row regresses when

    current > baseline * (1 + threshold)  AND  current - baseline > min_seconds

The absolute floor keeps sub-hundredth-of-a-second rows — which are mostly
timer noise — from tripping the relative gate.

Self-relative mode:
    check_bench_regression.py --self=FILE
        "--fast-column=session (s)" "--slow-column=fresh (s)"
        [--max-ratio=1.0] [--min-seconds=0.05]

Both columns come from the SAME run on the SAME host, so runner speed
cancels out — the gate is immune to CI hardware variance, which the
absolute baseline mode is not. A row fails when

    fast > slow * max_ratio  AND  fast - slow > min_seconds

i.e. the supposedly cheaper strategy (the session's amortized path vs a
fresh EvaluateOne, incremental maintenance vs re-detection) stopped being
cheaper by more than noise.

Curve mode:
    check_bench_regression.py --curve=FILE
        "--curve-columns=detect (s),intern striped (s)"
        [--curve-tolerance=0.30] [--min-seconds=0.05]
        ["--overhead-pair=intern striped (s)|intern 1-stripe (s)|1.05"]

FILE is a thread-sweep table (bench_scaling): one row per thread count,
ascending, seconds columns. For every named curve column the gate asserts
the *speedup curve is monotone nondecreasing up to noise*: each row must
satisfy

    seconds <= best_so_far * (1 + tolerance) + min_seconds

where best_so_far is the minimum over all earlier rows. On a single-core
runner every row lands near best_so_far and the tolerance absorbs
scheduling overhead; on a many-core runner a thread count that *slows
down* relative to the best earlier count by more than noise fails. All
rows come from one run on one host, so runner speed cancels out like in
--self mode.

--overhead-pair (repeatable) checks the FIRST row (1 thread) only:
FAST <= SLOW * RATIO + min_seconds — e.g. striped interning must cost
within 5% of the single-mutex pool when there is no concurrency to win.

Exact mode:
    check_bench_regression.py --exact=FILE --expected=JSON
        [--exact-column=candidates]

For hardware-independent counters, which must not move at all. FILE is
either a perfbench result line ({"correct", ..., "metrics": {NAME:
{"value": V}}}, the last stdout line of perfbench/run.py) or a bench table
as above. JSON maps names to expected numbers: metric names for a result
line; row labels for a table, whose --exact-column cell is compared, and
whose row labels must be exactly the expected names. Numbers compare
exactly (cells are parsed; 12.0 equals 12). Any mismatch, missing name or
a result line with "correct": false fails.

Exit codes: 0 = OK, 1 = regression, 2 = structural mismatch / bad input.
"""

import json
import sys


def fail(msg):
    print(f"check_bench_regression: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    for key in ("name", "header", "rows"):
        if key not in doc:
            fail(f"{path}: missing key '{key}'")
    return doc


def exact_number(value, where):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = value
    else:
        try:
            number = int(str(value))
        except ValueError:
            try:
                number = float(str(value))
            except ValueError:
                fail(f"{where}: non-numeric value {value!r}")
    if isinstance(number, float) and number.is_integer():
        number = int(number)
    return number


def check_exact(path, expected, column):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    if not isinstance(expected, dict) or not expected:
        fail("--expected must be a non-empty JSON object")
    want = {k: exact_number(v, f"expected {k}") for k, v in expected.items()}
    mismatches = []
    if "metrics" in doc:
        if doc.get("correct") is False:
            mismatches.append(('"correct"', True, False))
        got = {}
        for name in want:
            if name in doc["metrics"]:
                got[name] = exact_number(doc["metrics"][name]["value"], name)
    else:
        for key in ("header", "rows"):
            if key not in doc:
                fail(f"{path}: neither a perfbench result nor a bench table")
        if column is None:
            fail("--exact on a bench table needs --exact-column")
        if column not in doc["header"]:
            fail(f"column '{column}' absent from {path}")
        idx = doc["header"].index(column)
        got = {row[0]: exact_number(row[idx], row[0]) for row in doc["rows"]}
        for label in got:
            if label not in want:
                mismatches.append((label, "no value", got[label]))
    print(f"== {path}: exact counters")
    for name, value in want.items():
        actual = got.get(name)
        ok = actual == value
        print(f"   {name}: expected {value}, got {actual}  "
              f"{'ok' if ok else 'MISMATCH'}")
        if not ok:
            mismatches.append((name, value, actual))
    return mismatches


def check_pair(current_path, baseline_path, column, threshold, min_seconds):
    current = load(current_path)
    baseline = load(baseline_path)
    regressions = []

    if column not in current["header"] or column not in baseline["header"]:
        fail(f"column '{column}' absent from {current_path} or {baseline_path}")
    cur_col = current["header"].index(column)
    base_col = baseline["header"].index(column)

    if len(current["rows"]) != len(baseline["rows"]):
        fail(
            f"{current_path} has {len(current['rows'])} rows but "
            f"{baseline_path} has {len(baseline['rows'])} — bench shape "
            "changed; refresh the checked-in baseline in this PR"
        )

    print(f"== {current['name']} ({current_path} vs {baseline_path})")
    for i, (cur_row, base_row) in enumerate(
        zip(current["rows"], baseline["rows"])
    ):
        if cur_row[0] != base_row[0]:
            fail(
                f"row {i}: label '{cur_row[0]}' != baseline '{base_row[0]}' "
                "— bench shape changed; refresh the baseline in this PR"
            )
        try:
            cur = float(cur_row[cur_col])
            base = float(base_row[base_col])
        except ValueError:
            fail(f"row {i}: non-numeric '{column}' cell")
        delta = cur - base
        ratio = cur / base if base > 0 else float("inf") if cur > 0 else 1.0
        regressed = delta > min_seconds and cur > base * (1.0 + threshold)
        marker = "REGRESSION" if regressed else "ok"
        print(
            f"   {cur_row[0]:>12}  {column}: {base:.3f}s -> {cur:.3f}s "
            f"({ratio:+.0%} of baseline)  {marker}"
        )
        if regressed:
            regressions.append((current["name"], cur_row[0], base, cur))
    return regressions


def check_self(path, fast_column, slow_column, max_ratio, min_seconds):
    doc = load(path)
    for col in (fast_column, slow_column):
        if col not in doc["header"]:
            fail(f"column '{col}' absent from {path}")
    fast_idx = doc["header"].index(fast_column)
    slow_idx = doc["header"].index(slow_column)
    regressions = []
    print(
        f"== {doc['name']} ({path}): '{fast_column}' must stay within "
        f"{max_ratio:g}x of '{slow_column}'"
    )
    for i, row in enumerate(doc["rows"]):
        try:
            fast = float(row[fast_idx])
            slow = float(row[slow_idx])
        except ValueError:
            fail(f"row {i}: non-numeric cell")
        regressed = fast - slow > min_seconds and fast > slow * max_ratio
        marker = "REGRESSION" if regressed else "ok"
        ratio = fast / slow if slow > 0 else float("inf") if fast > 0 else 1.0
        print(
            f"   {row[0]:>12}  {fast:.3f}s vs {slow:.3f}s "
            f"(ratio {ratio:.2f})  {marker}"
        )
        if regressed:
            regressions.append((doc["name"], row[0], slow, fast))
    return regressions


def check_curve(path, columns, tolerance, min_seconds, overhead_pairs):
    doc = load(path)
    regressions = []
    print(
        f"== {doc['name']} ({path}): curve columns must be monotone "
        f"nondecreasing speedups within {tolerance:.0%} (+{min_seconds}s)"
    )
    if not doc["rows"]:
        fail(f"{path}: empty table")
    for column in columns:
        if column not in doc["header"]:
            fail(f"column '{column}' absent from {path}")
        idx = doc["header"].index(column)
        best = None
        for i, row in enumerate(doc["rows"]):
            try:
                cur = float(row[idx])
            except ValueError:
                fail(f"row {i}: non-numeric '{column}' cell")
            regressed = (
                best is not None
                and cur > best * (1.0 + tolerance) + min_seconds
            )
            marker = "REGRESSION" if regressed else "ok"
            best_text = f"(best so far {best:.3f}s)" if best is not None else ""
            print(
                f"   {row[0]:>8} threads  {column}: {cur:.3f}s "
                f"{best_text}  {marker}"
            )
            if regressed:
                regressions.append((doc["name"], f"{column} @ row {i}", best, cur))
            best = cur if best is None else min(best, cur)
    for fast_column, slow_column, max_ratio in overhead_pairs:
        for col in (fast_column, slow_column):
            if col not in doc["header"]:
                fail(f"column '{col}' absent from {path}")
        row = doc["rows"][0]  # the 1-thread row: no concurrency to win
        try:
            fast = float(row[doc["header"].index(fast_column)])
            slow = float(row[doc["header"].index(slow_column)])
        except ValueError:
            fail("overhead pair: non-numeric cell in first row")
        regressed = fast > slow * max_ratio + min_seconds
        marker = "REGRESSION" if regressed else "ok"
        print(
            f"   1-thread overhead: '{fast_column}' {fast:.3f}s vs "
            f"'{slow_column}' {slow:.3f}s (cap {max_ratio:g}x)  {marker}"
        )
        if regressed:
            regressions.append(
                (doc["name"], f"{fast_column} vs {slow_column}", slow, fast)
            )
    return regressions


def main(argv):
    threshold = 0.25
    min_seconds = 0.05
    column = "detect"
    self_path = None
    fast_column = None
    slow_column = None
    max_ratio = 1.0
    curve_path = None
    curve_columns = []
    curve_tolerance = 0.30
    overhead_pairs = []
    exact_path = None
    expected = None
    exact_column = None
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--min-seconds="):
            min_seconds = float(arg.split("=", 1)[1])
        elif arg.startswith("--column="):
            column = arg.split("=", 1)[1]
        elif arg.startswith("--self="):
            self_path = arg.split("=", 1)[1]
        elif arg.startswith("--fast-column="):
            fast_column = arg.split("=", 1)[1]
        elif arg.startswith("--slow-column="):
            slow_column = arg.split("=", 1)[1]
        elif arg.startswith("--max-ratio="):
            max_ratio = float(arg.split("=", 1)[1])
        elif arg.startswith("--curve="):
            curve_path = arg.split("=", 1)[1]
        elif arg.startswith("--curve-columns="):
            curve_columns = [
                c for c in arg.split("=", 1)[1].split(",") if c
            ]
        elif arg.startswith("--curve-tolerance="):
            curve_tolerance = float(arg.split("=", 1)[1])
        elif arg.startswith("--overhead-pair="):
            parts = arg.split("=", 1)[1].split("|")
            if len(parts) != 3:
                fail("--overhead-pair expects FAST|SLOW|RATIO")
            overhead_pairs.append((parts[0], parts[1], float(parts[2])))
        elif arg.startswith("--exact="):
            exact_path = arg.split("=", 1)[1]
        elif arg.startswith("--expected="):
            try:
                expected = json.loads(arg.split("=", 1)[1])
            except json.JSONDecodeError as e:
                fail(f"--expected is not JSON: {e}")
        elif arg.startswith("--exact-column="):
            exact_column = arg.split("=", 1)[1]
        elif arg in ("--help", "-h"):
            print(__doc__)
            return 0
        elif arg.startswith("--"):
            fail(f"unknown flag {arg}")
        else:
            paths.append(arg)

    if exact_path is not None:
        if expected is None:
            fail("--exact needs --expected")
        if paths:
            fail("--exact takes no positional CURRENT/BASELINE files")
        mismatches = check_exact(exact_path, expected, exact_column)
        if mismatches:
            print(f"\n{len(mismatches)} counter mismatch(es):")
            for name, want, got in mismatches:
                print(f"   {name}: expected {want}, got {got}")
            return 1
        print("\nexact counters OK")
        return 0

    if curve_path is not None:
        if not curve_columns and not overhead_pairs:
            fail("--curve needs --curve-columns and/or --overhead-pair")
        if paths:
            fail("--curve takes no positional CURRENT/BASELINE files")
        regressions = check_curve(
            curve_path, curve_columns, curve_tolerance, min_seconds,
            overhead_pairs
        )
        if regressions:
            print(f"\n{len(regressions)} scaling-curve regression(s):")
            for name, label, ref, cur in regressions:
                print(f"   {name} / {label}: {cur:.3f}s vs {ref:.3f}s")
            return 1
        print("\nscaling curve OK")
        return 0

    if self_path is not None:
        if fast_column is None or slow_column is None:
            fail("--self needs --fast-column and --slow-column")
        if paths:
            fail("--self takes no positional CURRENT/BASELINE files")
        regressions = check_self(
            self_path, fast_column, slow_column, max_ratio, min_seconds
        )
        if regressions:
            print(
                f"\n{len(regressions)} self-relative regression(s) beyond "
                f"{max_ratio:g}x (+{min_seconds}s floor):"
            )
            for name, label, slow, fast in regressions:
                print(f"   {name} / {label}: {fast:.3f}s vs {slow:.3f}s")
            return 1
        print("\nno self-relative regressions")
        return 0

    if not paths or len(paths) % 2 != 0:
        fail("expected CURRENT BASELINE file pairs (see --help)")

    regressions = []
    for cur, base in zip(paths[0::2], paths[1::2]):
        regressions += check_pair(cur, base, column, threshold, min_seconds)

    if regressions:
        print(
            f"\n{len(regressions)} detect-time regression(s) beyond "
            f"{threshold:.0%} (+{min_seconds}s floor):"
        )
        for name, label, base, cur in regressions:
            print(f"   {name} / {label}: {base:.3f}s -> {cur:.3f}s")
        return 1
    print("\nno detect-time regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
