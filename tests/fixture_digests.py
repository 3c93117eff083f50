"""Regenerate tests/data/fixture_digests.json, the report digests of the
acceptance fixtures (criterion 5's solves and criterion 9's refinement) that
`test_acceptance.py::test_fixture_digests_are_pinned` compares against.

    PYTHONPATH=src python tests/fixture_digests.py

Run it only for a change that moves report bytes on purpose, together with
the golden report, and list every moved field in CHANGES.md.
"""

import json

from test_acceptance import DIGESTS, fixture_digests, refine_case, solve_cases

if __name__ == "__main__":
    table = fixture_digests(solve_cases(), refine_case())
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
