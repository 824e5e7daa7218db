"""One-shot golden-output checks of the benchmark (not run in every timed
repetition).  Run from the repository root:

    python3 -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys

import golden


def test_golden_set_matches_pinned():
    pinned = json.loads(golden.GOLDEN.read_text())["golden_set"]
    assert golden.mismatches(pinned, golden.golden_set_digests()) == []


def test_workload_outputs_do_not_depend_on_hash_seed():
    pinned = json.loads(golden.GOLDEN.read_text())["workloads"]
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, str(golden.HERE / "golden.py"),
             "--print-workloads"],
            env=env, capture_output=True, text=True, check=True, timeout=600)
        digests = json.loads(proc.stdout)
        assert golden.mismatches(pinned, digests) == [], hash_seed
