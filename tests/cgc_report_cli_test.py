#!/usr/bin/env python3
"""Command-line contract of cgc_report, the reproduction driver.

Usage: cgc_report_cli_test.py PATH/TO/cgc_report

Checks the exit taxonomy of the flag parser (--help is 0; a malformed
--spawn or --shard value and an unknown --only id are usage errors, 2),
that --list prints every case, and one end-to-end fast-scale run of
two cases (a workload figure and a host-load table) in a private
output and cache dir: exit 0, a complete report.json, and every output
file the report records present on disk; then --resume over a torn
report.json exits 1 naming it.
"""

import json
import os
import subprocess
import sys
import tempfile

EXPECTED_CASES = 22


def run(exe, args, env=None):
    return subprocess.run([exe] + args, capture_output=True, text=True,
                          env=env, timeout=600)


def expect_exit(exe, args, code, stderr_has=None):
    result = run(exe, args)
    assert result.returncode == code, (
        f"{args}: exit {result.returncode}, want {code}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}")
    if stderr_has is not None:
        assert stderr_has in result.stderr, (
            f"{args}: stderr lacks {stderr_has!r}:\n{result.stderr}")
    return result


def main():
    exe = sys.argv[1]

    help_out = expect_exit(exe, ["--help"], 0).stdout
    assert "--only" in help_out and "--merge" in help_out, help_out
    expect_exit(exe, ["--spawn", "abc"], 2, stderr_has="--spawn")
    expect_exit(exe, ["--only", "fig03,fig3"], 2, stderr_has='"fig3"')
    expect_exit(exe, ["--shard", "1/x"], 2, stderr_has="--shard")

    listed = expect_exit(exe, ["--list"], 0).stdout.split("\n")
    ids = [line.split()[0] for line in listed if line.strip()]
    assert len(ids) == EXPECTED_CASES, ids
    assert len(set(ids)) == EXPECTED_CASES, ids
    assert "fig03" in ids and "tab02" in ids, ids

    with tempfile.TemporaryDirectory(prefix="cgc_report_cli_") as tmp:
        out_dir = os.path.join(tmp, "out")
        env = dict(os.environ)
        env.update({"CGC_BENCH_FAST": "1",
                    "CGC_BENCH_OUT": out_dir,
                    "CGC_BENCH_CACHE": os.path.join(tmp, "cache")})
        env.pop("CGC_FAULT_SPEC", None)
        result = run(exe, ["--only", "fig03,tab02"], env=env)
        assert result.returncode == 0, (
            f"fast run exit {result.returncode}\n{result.stderr}")
        with open(os.path.join(out_dir, "report.json")) as f:
            report = json.load(f)
        assert report["complete"] is True, report
        assert report["fast_mode"] is True, report
        cases = {c["id"]: c for c in report["cases"]}
        assert sorted(cases) == ["fig03", "tab02"], sorted(cases)
        for case in cases.values():
            assert case["ok"], case
            for output in case["outputs"]:
                path = os.path.join(out_dir, output["file"])
                assert os.path.getsize(path) == output["size"], output
        fig03 = [o["file"] for o in cases["fig03"]["outputs"]]
        assert "fig03_google.dat" in fig03, fig03
        assert all(name.endswith(".dat") for name in fig03), fig03
        # tab02 prints its table to stdout; it writes no series.
        assert "Table II" in result.stdout, result.stdout

        # A torn checkpoint stops --resume (exit 1) instead of being
        # silently rerun: the operator decides what the dead sweep left.
        report_path = os.path.join(out_dir, "report.json")
        with open(report_path, "rb") as f:
            sealed = f.read()
        with open(report_path, "wb") as f:
            f.write(sealed[: len(sealed) // 2])
        torn = run(exe, ["--only", "fig03,tab02", "--resume"], env=env)
        assert torn.returncode == 1, (
            f"torn resume exit {torn.returncode}\n{torn.stderr}")
        assert "truncated or unparseable" in torn.stderr, torn.stderr

    print("cgc_report_cli: ok")


if __name__ == "__main__":
    main()
