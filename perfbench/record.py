#!/usr/bin/env python3
"""Capture the stored answers in perfbench/expected/ from the current checkout.

    python3 perfbench/record.py

Writes the stdout of `delpezzo verify`, the stdout and exit code of every
cli-queries query, and the answer digests of h0-stream (default seed) and
h0-wide.  The files in expected/ were captured at the commit that added the
benchmark; a later change may re-record them only when it means to change an
answer, and must say so.
"""

from __future__ import annotations

import json
import os

import workloads as wl


def main() -> None:
    os.chdir(wl.ROOT)
    api = wl.load_package()
    wl.EXPECTED.mkdir(exist_ok=True)

    code, stdout, stderr = wl.run_cli(["verify"])
    if code != 0:
        raise SystemExit(f"verify failed, nothing recorded:\n{stdout}{stderr}")
    (wl.EXPECTED / "golden_suite.txt").write_text(stdout)

    queries = {}
    for name, args, expect in wl.cli_queries():
        code, stdout, stderr = wl.run_cli(args)
        entry = {"args": args, "expect": expect, "exit_at_recording": code}
        if expect in (wl.GOLDEN, wl.VALUE):
            if code != 0 or "Traceback" in stderr:
                raise SystemExit(f"query {name} did not succeed, nothing recorded:\n{stderr}")
            entry["stdout"] = stdout
        queries[name] = entry
    (wl.EXPECTED / "cli_queries.json").write_text(json.dumps(queries, indent=1) + "\n")

    answers = [wl.attempt(wl.wide_op, api, entry) for entry in wl.wide_corpus()]
    digests = {
        "seed": wl.DEFAULT_SEED,
        "h0-stream": wl.answer_digest(wl.stream_answers(api)),
        "h0-wide": wl.answer_digest(answers),
    }
    (wl.EXPECTED / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(f"recorded {len(queries)} queries, h0-wide failures at indices {digests['h0-wide']['failed']}, "
          f"h0-stream failures at indices {digests['h0-stream']['failed']}")


if __name__ == "__main__":
    main()
