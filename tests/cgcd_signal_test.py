#!/usr/bin/env python3
"""SIGTERM stops cgcd on an idle pipe.

Usage: cgcd_signal_test.py PATH/TO/cgcd

Starts `cgcd --input - --query all --spill DIR` on a pipe whose writer
stays open, writes a few hundred task_events rows (several full ingest
batches and a partial one), waits a second and sends SIGTERM. The
daemon must exit within 10 s with exit code 0, report
`"interrupted": true`, count every row written, and leave a spill
manifest.

The writer never closes the pipe, so only the signal can end the
blocked read: the read must run on the main thread, which gets the
signal because the pool's workers block it, and there it returns EINTR
(the handlers are installed without SA_RESTART). A read left on a
thread that never sees the signal would block until the test's
timeout.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

ROWS = 300
BATCH = 64
EXIT_WAIT_S = 10


def row(i):
    # One SUBMIT a minute for job i: 300 rows span five hourly windows.
    return f"{i * 60 * 1000000},,{1000 + i},0,,0,,0,1\n"


def main():
    exe = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="cgcd_signal_") as tmp:
        spill = os.path.join(tmp, "spill")
        out_path = os.path.join(tmp, "out.json")
        err_path = os.path.join(tmp, "err.txt")
        env = {k: v for k, v in os.environ.items()
               if k not in ("CGC_FAULT_SPEC", "CGC_TRACE", "CGC_METRICS")}
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(
                [exe, "--input", "-", "--query", "all", "--spill", spill,
                 "--batch", str(BATCH)],
                stdin=subprocess.PIPE, stdout=out, stderr=err, env=env)
            try:
                proc.stdin.write("".join(row(i) for i in range(ROWS)).encode())
                proc.stdin.flush()
                time.sleep(1.0)
                assert proc.poll() is None, (
                    f"cgcd exited before the signal: {proc.returncode}")
                proc.send_signal(signal.SIGTERM)
                # The pipe's writer stays open while we wait.
                code = proc.wait(timeout=EXIT_WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise AssertionError(
                    f"cgcd still running {EXIT_WAIT_S} s after SIGTERM on "
                    "an open, idle pipe")
            finally:
                proc.stdin.close()
        with open(err_path) as f:
            stderr = f.read()
        assert code == 0, f"exit {code}, want 0\nstderr:\n{stderr}"
        with open(out_path) as f:
            result = json.load(f)
        summary = result["summary"]
        assert summary["interrupted"] is True, summary
        assert summary["events"] == ROWS, (summary["events"], ROWS)
        assert summary["health"]["parse_bad_lines"] == 0, summary["health"]
        manifest = os.path.join(spill, "windows.jsonl")
        assert os.path.isfile(manifest), os.listdir(spill)
        with open(manifest) as f:
            spilled = [json.loads(line) for line in f if line.strip()]
        assert len(spilled) == summary["windows_spilled"] > 0, (
            len(spilled), summary)
        assert sum(w["raw_events"] for w in spilled) == ROWS, spilled
    print(f"SIGTERM on an idle pipe: exit 0, {ROWS} events, "
          f"{len(spilled)} windows spilled")


if __name__ == "__main__":
    main()
