"""Smoke test of the benchmark itself (not part of the repository's tests).

    python3 -m pytest -q perfbench/smoke.py

Runs every workload at toy size, untraced and traced, and checks that every
metric named in BENCHMARK.json appears, that no request fails and that the
top-level spans account for the traced wall time.  Then feeds a
deliberately wrong psd reference and checks that the failure is counted.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ACCOUNTING = re.compile(r"trace accounting, threads \d: top-level spans (\S+) s, "
                        r"traced wall (\S+) s, untraced wall \S+ s, overhead (\S+) s")


def _run(*extra):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--toy",
                           "--seconds", "1", *extra],
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stderr[-3000:]
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_appears_and_no_request_fails():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    stdout, result = _run()
    assert result["correct"] and result["failed"] == 0, stdout[-3000:]
    expected = {f"{w['name']}.{name}" for w in spec["workloads"] for name in names}
    assert set(result["metrics"]) == expected
    for name in names:
        assert re.search(rf"^{re.escape(name)} = \S+ \S+ \(n=\d+\)$", stdout, re.M), name
    accounting = ACCOUNTING.findall(stdout)
    assert len(accounting) == 2 * len(spec["workloads"])
    for top, wall, overhead in accounting:
        top, wall, overhead = float(top), float(wall), float(overhead)
        assert abs(wall - top) <= max(abs(overhead), 1e-3 * wall), (top, wall, overhead)


def test_wrong_reference_is_counted_as_failure(tmp_path):
    reference = tmp_path / "reference"
    shutil.copytree(os.path.join(HERE, "reference"), reference)
    path = reference / "psd.demo.csv"
    lines = path.read_text().splitlines()
    data = lines.index(next(line for line in lines if line.startswith("f_Hz"))) + 1
    for i in range(data, len(lines)):
        values = lines[i].split(",")
        values[1] = repr(1.5 * float(values[1]))   # spm off by half
        lines[i] = ",".join(values)
    path.write_text("\n".join(lines) + "\n")

    stdout, result = _run("--workload", "psd_sweep", "--trace", "0",
                          "--reference-dir", str(reference))
    assert result["failed"] > 0 and not result["correct"]
    ratio = float(re.search(r"^fail_ratio = (\S+)", stdout, re.M).group(1))
    assert ratio > 0
