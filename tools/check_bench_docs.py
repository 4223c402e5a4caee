#!/usr/bin/env python3
"""Completeness check for docs/PERFORMANCE.md.

The performance catalog must mention:

  * every bench binary (``bench_<stem>`` for each ``bench/<stem>.cpp``),
  * every ``BENCH_*.json`` name that a bench source under ``bench/`` or
    a CI workflow under ``.github/workflows/`` mentions, or that a
    committed result file carries as its name.

Planning documents such as ROADMAP.md and CHANGES.md are not scanned:
they name benches that do not exist yet.

Exits non-zero listing each omission, so the CI docs job fails when a
new bench or tracked JSON lands without documentation.  Run from
anywhere:

    python3 tools/check_bench_docs.py
"""

import os
import re
import subprocess
import sys

BENCH_JSON_RE = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")
# (directory, suffixes) whose files are scanned for BENCH_*.json names.
SCANNED_SOURCES = (
    ("bench", (".cpp", ".h", ".py")),
    (os.path.join(".github", "workflows"), (".yml", ".yaml")),
)


def committed_result_files(root: str):
    """Names of tracked files that are themselves BENCH_*.json results."""
    try:
        out = subprocess.run(["git", "ls-files", "-z"], cwd=root,
                             capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        print("warning: not a git checkout; committed result files not "
              "scanned", file=sys.stderr)
        return set()
    return {
        os.path.basename(path)
        for path in out.decode("utf-8", errors="ignore").split("\0")
        if BENCH_JSON_RE.fullmatch(os.path.basename(path))
    }


def collect_bench_json_names(root: str):
    names = committed_result_files(root)
    for subdir, suffixes in SCANNED_SOURCES:
        base = os.path.join(root, subdir)
        for dirpath, _, filenames in os.walk(base):
            for name in filenames:
                if not name.endswith(suffixes):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8", errors="ignore") as f:
                    names.update(BENCH_JSON_RE.findall(f.read()))
    return names


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    doc_path = os.path.join(root, "docs", "PERFORMANCE.md")
    if not os.path.isfile(doc_path):
        print("BROKEN: docs/PERFORMANCE.md does not exist", file=sys.stderr)
        return 1
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read()

    errors = []

    def documented(name: str) -> bool:
        # Word-boundary match: 'bench_micro_detect' must not ride on a
        # documented 'bench_micro_detect_throughput' (nor a JSON name
        # on a longer sibling).
        return re.search(
            r"(?<![A-Za-z0-9_.])" + re.escape(name) + r"(?![A-Za-z0-9_])",
            doc) is not None

    bench_dir = os.path.join(root, "bench")
    binaries = sorted(
        "bench_" + os.path.splitext(name)[0]
        for name in os.listdir(bench_dir)
        if name.endswith(".cpp"))
    for binary in binaries:
        if not documented(binary):
            errors.append(
                f"bench binary '{binary}' missing from docs/PERFORMANCE.md")

    for json_name in sorted(collect_bench_json_names(root)):
        if not documented(json_name):
            errors.append(
                f"result file '{json_name}' missing from "
                "docs/PERFORMANCE.md")

    if errors:
        for e in errors:
            print(f"BROKEN: {e}", file=sys.stderr)
        print(f"{len(errors)} omission(s) in docs/PERFORMANCE.md",
              file=sys.stderr)
        return 1
    print(f"ok: {len(binaries)} bench binaries and all BENCH_*.json "
          "names documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
