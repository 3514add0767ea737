#!/usr/bin/env python3
"""Exit-code contract of cgc_plan --merge, the capacity planner's merge.

Usage: cgc_plan_cli_test.py PATH/TO/cgc_plan

On the 8-scenario small matrix over a 1-hour horizon, in private output
dirs:
  * --shard 0/2 + --shard 1/2 + --merge exits 0 and writes the same
    plan.json bytes as a single-process run;
  * only shard 0/2 present: exit 1 (resumable — run the other shard);
  * shard 0's checkpoint copied under a second plan-shard-*.cgcp name
    (overlapping ownership): exit 2 (the inputs conflict);
  * a torn checkpoint: exit 1 (resumable — rerun that shard);
  * a torn checkpoint next to an overlapping copy: exit 2 (the conflict
    outranks the unfinished shard).
"""

import os
import shutil
import subprocess
import sys
import tempfile

MATRIX = ["--matrix", "small", "--hours", "1"]


def run(exe, args):
    return subprocess.run([exe] + MATRIX + args, capture_output=True,
                          text=True, timeout=600)


def expect_exit(exe, args, code, stderr_has=None):
    result = run(exe, args)
    assert result.returncode == code, (
        f"{args}: exit {result.returncode}, want {code}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}")
    if stderr_has is not None:
        assert stderr_has in result.stderr, (
            f"{args}: stderr lacks {stderr_has!r}:\n{result.stderr}")
    return result


def read(path):
    with open(path, "rb") as f:
        return f.read()


def shard_path(out, index):
    return os.path.join(out, f"plan-shard-{index}-of-2.cgcp")


def main():
    exe = sys.argv[1]
    os.environ.pop("CGC_FAULT_SPEC", None)  # children inherit a clean env

    with tempfile.TemporaryDirectory(prefix="cgc_plan_cli_") as tmp:
        single = os.path.join(tmp, "single")
        expect_exit(exe, ["--out", single], 0)
        golden = read(os.path.join(single, "plan.json"))

        sharded = os.path.join(tmp, "sharded")
        for index in (0, 1):
            expect_exit(exe, ["--out", sharded, "--shard", f"{index}/2"], 0)
        expect_exit(exe, ["--out", sharded, "--merge"], 0)
        assert read(os.path.join(sharded, "plan.json")) == golden, (
            "merged plan.json differs from the single-process run")

        partial = os.path.join(tmp, "partial")
        os.makedirs(partial)
        shutil.copy(shard_path(sharded, 0), partial)
        expect_exit(exe, ["--out", partial, "--merge"], 1,
                    stderr_has="resumable")

        overlap = os.path.join(tmp, "overlap")
        os.makedirs(overlap)
        shutil.copy(shard_path(sharded, 0), overlap)
        shutil.copy(shard_path(sharded, 1), overlap)
        shutil.copy(shard_path(sharded, 0),
                    os.path.join(overlap, "plan-shard-0-of-2.copy.cgcp"))
        expect_exit(exe, ["--out", overlap, "--merge"], 2,
                    stderr_has="claimed by both")

        torn = os.path.join(tmp, "torn")
        os.makedirs(torn)
        shutil.copy(shard_path(sharded, 0), torn)
        sealed = read(shard_path(sharded, 1))
        with open(shard_path(torn, 1), "wb") as f:
            f.write(sealed[: len(sealed) // 2])
        expect_exit(exe, ["--out", torn, "--merge"], 1, stderr_has="torn")

        torn_overlap = os.path.join(tmp, "torn_overlap")
        shutil.copytree(torn, torn_overlap)
        shutil.copy(shard_path(sharded, 0),
                    os.path.join(torn_overlap, "plan-shard-0-of-2.copy.cgcp"))
        expect_exit(exe, ["--out", torn_overlap, "--merge"], 2,
                    stderr_has="claimed by both")

        for out in (partial, overlap, torn, torn_overlap):
            assert not os.path.exists(os.path.join(out, "plan.json")), out

    print("cgc_plan_cli: ok")


if __name__ == "__main__":
    main()
