"""Fail unless a tier-1 run failed on exactly the two documented acceptance
reds, each printing its documented numbers (see README, "Acceptance suite").

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python .github/check_documented_reds.py tier1.xml

Any other failure or error, including a collection error, a missing red or
a red whose numbers moved, exits 1.
"""

import sys
import xml.etree.ElementTree as ET

DOCUMENTED = {
    "tests.test_acceptance::test_simulated_spammer_histogram": "bins [7, 72, 21, 0, 0]",
    "tests.test_acceptance::test_surrogate_monotonicity": "worst within-round step -2.12e-06 (histogram-run3)",
}


def failures(path):
    """{classname::name: failure text} over the report's failed or errored cases."""
    out = {}
    for case in ET.parse(path).iter("testcase"):
        for node in case.findall("failure") + case.findall("error"):
            key = f"{case.get('classname')}::{case.get('name')}"
            out[key] = out.get(key, "") + (node.get("message") or "") + (node.text or "")
    return out


def main(path):
    failed = failures(path)
    ok = True
    for key in sorted(failed.keys() - DOCUMENTED.keys()):
        print(f"unexpected failure: {key}")
        ok = False
    for key, numbers in DOCUMENTED.items():
        if key not in failed:
            print(f"documented red no longer fails: {key}")
            ok = False
        elif numbers not in failed[key]:
            print(f"documented red moved: {key} no longer reports {numbers!r}")
            ok = False
        else:
            print(f"documented red as expected: {key}: {numbers}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
