#!/usr/bin/env python3
"""Regression test for rqs_lint itself.

Runs the linter over the planted-violation fixtures in tests/lint_selftest/
and checks that the findings match the `// EXPECT-LINT: <rule>[, <rule>...]`
markers exactly — every expected (file, line, rule) must fire, nothing else
may. A linter that silently stops firing (a regex rot, a lexer bug eating
the annotation) fails CI here, not months later when a real violation
slips through.

Usage: selftest.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import rqs_lint  # noqa: E402

EXPECT_RE = re.compile(r"//\s*EXPECT-LINT:\s*([a-z\-, ]+)")


def expected_findings(path: Path) -> Counter:
    exp: Counter = Counter()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        m = EXPECT_RE.search(line)
        if m:
            for rule in (r.strip() for r in m.group(1).split(",")):
                if rule:
                    exp[(path.name, lineno, rule)] += 1
    return exp


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2])
    args = ap.parse_args(argv)
    root = args.root.resolve()
    fixture_dir = root / "tests" / "lint_selftest"
    fixtures = sorted(fixture_dir.glob("*.cpp"))
    if not fixtures:
        print(f"selftest: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2

    expected: Counter = Counter()
    for f in fixtures:
        expected += expected_findings(f)

    actual: Counter = Counter()
    for f in rqs_lint.run(root, fixtures):
        actual[(f.path.name, f.line, f.rule)] += 1

    missing = expected - actual
    unexpected = actual - expected
    for key, n in sorted(missing.items()):
        print(f"MISSING   {key[0]}:{key[1]}: [{key[2]}] expected {n}, "
              f"got {actual[key]}")
    for key, n in sorted(unexpected.items()):
        print(f"UNEXPECTED {key[0]}:{key[1]}: [{key[2]}] fired {n} "
              f"time(s) with no EXPECT-LINT marker")

    # Every rule must be exercised by at least one fixture, so a rule can
    # never be deleted (or renamed) without this test noticing.
    exercised = {rule for (_, _, rule) in expected}
    required = {"nondet", "unordered-iter", "hot-path-alloc"}
    for rule in sorted(required - exercised):
        print(f"UNCOVERED rule '{rule}' has no planted fixture violation")

    ok = not missing and not unexpected and required <= exercised
    print(f"selftest: {len(fixtures)} fixtures, "
          f"{sum(expected.values())} planted violations, "
          f"{sum(actual.values())} findings — {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
