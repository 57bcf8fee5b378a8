"""Runs clippy on this probe crate and compares its diagnostics with `expected`.

    python3 crates/lint/tests/fixtures/clippy/check.py

Builds into the repository's `target/clippy-probe`. Each diagnostic
becomes one `path line lint` line; the sorted set must equal the
non-comment lines of `expected`. Exits 1 on any difference.
"""

import json
import pathlib
import subprocess
import sys

here = pathlib.Path(__file__).resolve().parent
cmd = ["cargo", "clippy", "--quiet", "--message-format", "json",
       "--manifest-path", str(here / "Cargo.toml"),
       "--target-dir", str(here.parents[4] / "target" / "clippy-probe")]
run = subprocess.run(cmd, capture_output=True, text=True)
if run.returncode != 0:
    sys.exit(f"clippy failed:\n{run.stderr}")
got = set()
for line in run.stdout.splitlines():
    msg = json.loads(line)
    if msg.get("reason") != "compiler-message" or not msg["message"]["code"]:
        continue
    span = next(s for s in msg["message"]["spans"] if s["is_primary"])
    got.add(f'{span["file_name"]} {span["line_start"]} {msg["message"]["code"]["code"]}')
got = sorted(got, key=lambda e: (e.split()[0], int(e.split()[1]), e))
want = [l.strip() for l in (here / "expected").read_text().splitlines()
        if l.strip() and not l.startswith("#")]
if got != want:
    missing = [e for e in want if e not in got]
    extra = [e for e in got if e not in want]
    sys.exit(f"clippy probe diverged\nmissing: {missing}\nunexpected: {extra}")
print(f"clippy probe: {len(got)} expected diagnostics")
