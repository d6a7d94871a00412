#!/usr/bin/env python3
"""Compare two sets of dtbench results metric by metric.

    python3 dtbench/compare.py BASE NEW

BASE and NEW are files holding the standard output of one or more
`run.py` runs (typically traced passes, `--trace 1`); every line that is
a result object counts. For each metric present on both sides the
table shows the median of each side, the absolute delta and the delta
as a percentage of the base median, with the base it is a ratio of.
Ratio metrics are also shown as their numerator over their base, so no
ratio appears without the count it was taken from.
"""

import json
import statistics
import sys

# Ratio metrics: name -> (numerator metrics, denominator metrics).
RATIOS = {
    "cache.hit_ratio": (
        ("cache.nlr_hits", "cache.attr_hits"),
        ("cache.nlr_hits", "cache.nlr_misses", "cache.attr_hits", "cache.attr_misses"),
    ),
}


def load(path):
    """Metric name -> (unit, list of values) over every result in `path`."""
    out = {}
    runs = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "metrics" not in doc:
                continue
            runs += 1
            for name, m in doc["metrics"].items():
                if m.get("value") is None:
                    continue
                unit, values = out.setdefault(name, (m.get("unit", ""), []))
                values.append(float(m["value"]))
    if runs == 0:
        sys.exit(f"compare.py: no result lines in {path}")
    return out, runs


def fmt(v):
    if v == int(v) and abs(v) < 1e12:
        return str(int(v))
    return f"{v:.4g}"


def ratio_text(name, side):
    num, den = RATIOS[name]
    try:
        n = sum(statistics.median(side[k][1]) for k in num)
        d = sum(statistics.median(side[k][1]) for k in den)
    except KeyError:
        return ""
    return f"{fmt(n)}/{fmt(d)}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, nb = load(sys.argv[1])
    new, nn = load(sys.argv[2])
    print(f"base: {sys.argv[1]} ({nb} run(s))   new: {sys.argv[2]} ({nn} run(s))")
    print("values are medians over each side's runs")
    header = f"{'metric':<28} {'unit':<6} {'base':>12} {'new':>12} {'delta':>12}  delta % of base"
    print(header)
    print("-" * len(header))
    for name in sorted(set(base) & set(new)):
        unit = base[name][0]
        b = statistics.median(base[name][1])
        n = statistics.median(new[name][1])
        delta = n - b
        if b != 0:
            pct = f"{100.0 * delta / b:+.1f}% of {fmt(b)} {unit}"
        else:
            pct = f"n/a (base is 0 {unit})"
        line = f"{name:<28} {unit:<6} {fmt(b):>12} {fmt(n):>12} {fmt(delta):>12}  {pct}"
        if name in RATIOS:
            line += f"   [base {ratio_text(name, base)}, new {ratio_text(name, new)}]"
        print(line)
    for name in sorted(set(base) ^ set(new)):
        side = "base" if name in base else "new"
        print(f"{name:<28} only in {side}")


if __name__ == "__main__":
    main()
