#!/usr/bin/env python3
"""Self-test of tools/check_bench.py: proves that every gate row can fire.

From the gate's own tables it builds one passing document per bench, at
1 and at 4 cores under each field a core count may be written to, and
asserts that the gate passes it. Then it breaks one thing at a time and
asserts that the gate fails, on a line that names what broke:
  * each row's field, pushed just past its bound, in each target the
    row applies to, and set to NaN for each `>=`, `<=` and `==` row;
  * each keyed series, dropped;
  * an extra series that no row names, on the benches that require a
    row for every series;
  * `kernel` or `threads`, removed.

Usage: check_bench_test.py   (exit 0 when every break fails)
"""

import contextlib
import io
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench as gate  # noqa: E402


class Probe(dict):
    """A document that answers 1 for any field a bound function reads."""

    def __missing__(self, field):
        self[field] = 1
        return 1


def rows_of(bench):
    return [gate.row_parts(row) for row in gate.GATES if row[0] == bench]


def items(doc, bench, target):
    """(label, dict) for each place a row with `target` applies."""
    list_name, fields, _ = gate.BENCHES[bench]
    if target == gate.DOC:
        return [(bench, doc)]
    out = []
    for series in doc[list_name]:
        key = tuple(series[f] for f in fields)
        if target in (key, gate.EVERY):
            out.append((gate.label(bench, fields, key), series))
    return out


def put(item, field, value):
    *parents, last = field.split(".")
    for part in parents:
        item = item.setdefault(part, {})
    item[last] = value


def build(bench, cores_field, cores):
    """A document every row of `bench` passes, each value at its bound."""
    list_name, fields, _ = gate.BENCHES[bench]
    rows = rows_of(bench)
    doc = Probe(bench=bench, kernel="scalar", threads=1)
    doc[cores_field] = cores
    doc.update({row[5]: True for row in rows if row[5] is not None})
    keys = {row[1] for row in rows} - {gate.DOC, gate.EVERY}
    doc[list_name] = [dict(zip(fields, key)) for key in sorted(keys, key=repr)]
    for _, target, field, _, bound, _ in rows:
        if field is not None:
            for _, item in items(doc, bench, target):
                put(item, field, gate.resolve(bound, doc)[0])
    return json.loads(json.dumps(doc))


def past(op, bound):
    """The value just past `bound` on the failing side of `op`."""
    if op == "is":
        return not bound
    return math.nextafter(bound, -math.inf if op == ">=" else math.inf)


def failures(doc):
    with contextlib.redirect_stdout(io.StringIO()):
        return gate.check("self-test", doc)


def main():
    problems = []
    breaks = 0

    def expect_fail(doc, what, needle):
        nonlocal breaks
        breaks += 1
        lines = failures(doc)
        if not any(needle in line for line in lines):
            problems.append(f"{what}: no failure line names {needle!r} "
                            f"(got {lines})")

    for bench, (list_name, fields, strict) in gate.BENCHES.items():
        for cores_field in gate.CORES:
            for cores in (1, 4):
                where = f"{bench} {cores_field}={cores}"
                doc = build(bench, cores_field, cores)
                lines = failures(doc)
                if lines:
                    problems.append(f"{where}: the passing doc fails: {lines}")
                    continue
                for _, target, field, op, bound, _ in rows_of(bench):
                    if field is None:
                        continue
                    values = [past(op, gate.resolve(bound, doc)[0])]
                    if op != "is":
                        values.append(math.nan)
                    for i, (name, _) in enumerate(items(doc, bench, target)):
                        for value in values:
                            broken = build(bench, cores_field, cores)
                            put(items(broken, bench, target)[i][1], field,
                                value)
                            expect_fail(broken,
                                        f"{where} {name} {field} {op} {value}",
                                        f"{name}: {field} {value} breaks")
                for i, series in enumerate(doc[list_name]):
                    broken = build(bench, cores_field, cores)
                    del broken[list_name][i]
                    name = gate.label(bench, fields,
                                      tuple(series[f] for f in fields))
                    expect_fail(broken, f"{where} drop {name}",
                                f"{name}: series missing")
                if strict:
                    broken = build(bench, cores_field, cores)
                    extra = dict(broken[list_name][0])
                    extra.update({f: "extra" for f in fields})
                    broken[list_name].append(extra)
                    expect_fail(broken, f"{where} extra series",
                                "no checked-in floor")
                for field in ("kernel", "threads"):
                    broken = build(bench, cores_field, cores)
                    del broken[field]
                    expect_fail(broken, f"{where} no {field}",
                                f"{field} None")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{breaks} single breaks, {len(problems)} not caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
