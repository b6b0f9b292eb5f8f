#!/usr/bin/env python3
"""Cross-check a precision table against the per-cell dump it aggregates.

Usage: check_table_vs_cells.py TABLE.txt CELLS.txt

TABLE.txt is the stdout of `bench_fig8_precision` (the aggregate
"| tool | <mode> ... |" table); CELLS.txt is the stdout of the same run with
`--print-cells` ("cell <matrix> <task> <workload> <mode> <tool> <P@1>").
The check recomputes every (tool, mode) mean from the cell lines, skipping
"n/a" cells as the bench does, and requires:

  * the table's mode columns to be exactly the modes of the cell dump, in
    the order they first appear there (the bench's mode order);
  * the table's rows to be exactly the tools of the cell dump;
  * every table cell to equal the recomputed mean.

Cell lines carry P@1 rounded to three decimals while the table rounds the
mean of the unrounded values, so "equal" allows one unit in the last
printed digit (each rounding is off by at most half a unit).

Exits 0 when the table matches, 1 with one line per mismatch otherwise.
"""

import sys

TOLERANCE = 0.001 + 1e-9


def read_table(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("|") or line.startswith("|-"):
                continue
            rows.append([c.strip() for c in line.strip("|").split("|")])
    if not rows:
        sys.exit(f"{path}: no table found")
    return rows[0], rows[1:]


def read_cells(path):
    sums, modes, tools = {}, [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 7 or parts[0] != "cell":
                continue
            mode, tool, value = parts[4], parts[5], parts[6]
            if mode not in modes:
                modes.append(mode)
            if tool not in tools:
                tools.append(tool)
            total, count = sums.get((tool, mode), (0.0, 0))
            if value != "n/a":
                total, count = total + float(value), count + 1
            sums[(tool, mode)] = (total, count)
    if not sums:
        sys.exit(f"{path}: no cell lines found")
    return sums, modes, tools


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    header, rows = read_table(sys.argv[1])
    sums, modes, tools = read_cells(sys.argv[2])
    errors = []
    if header[1:] != modes:
        errors.append(f"table columns {header[1:]} != cell modes {modes}")
    if [r[0] for r in rows] != tools:
        errors.append(f"table rows {[r[0] for r in rows]} != cell tools {tools}")
    for row in rows:
        tool = row[0]
        for mode, shown in zip(header[1:], row[1:]):
            total, count = sums.get((tool, mode), (0.0, 0))
            mean = total / count if count else 0.0
            if abs(float(shown) - mean) > TOLERANCE:
                errors.append(
                    f"{tool} / {mode}: table shows {shown}, "
                    f"cells average {mean:.4f} over {count}")
    for e in errors:
        print(e)
    if errors:
        return 1
    print(f"table matches cells: {len(rows)} tools x {len(modes)} modes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
