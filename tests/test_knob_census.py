"""Every ``REPRO_*`` environment knob the code reads is documented in
PERFORMANCE.md's knob table, and the table lists no knob that is gone."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _code_knobs():
    found = set()
    for top in ("src", "benchmarks"):
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name)) as fh:
                        found |= set(KNOB.findall(fh.read()))
    return found


def _table_knobs():
    with open(os.path.join(ROOT, "PERFORMANCE.md")) as fh:
        text = fh.read()
    section = text.split("## Env knobs", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return set(KNOB.findall("\n".join(rows)))


def test_code_knobs_match_performance_table():
    code, table = _code_knobs(), _table_knobs()
    assert code, "no REPRO_* names found in the code"
    assert code - table == set(), "undocumented knobs"
    assert table - code == set(), "documented knobs the code no longer reads"
