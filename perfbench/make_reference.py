"""Write perfbench/reference.json: the reference verdicts of each workload's sweep.

    python3 perfbench/make_reference.py

Run it on a commit whose verdicts are trusted, and only when a change means
to alter verdicts; the benchmark's correctness gate compares every run with
this file.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def _dump(reference: dict) -> str:
    """JSON with one sweep entry per line, so a verdict change is a one-line diff."""
    compact = dict(separators=(",", ":"), sort_keys=True)
    blocks = []
    for name in sorted(reference):
        ref = reference[name]
        fields = [f'  {json.dumps(k)}: {json.dumps(ref[k], **compact)}' for k in sorted(ref) if k != "entries"]
        entries = ",\n".join("    " + json.dumps(e, **compact) for e in ref["entries"])
        fields.append(f'  "entries": [\n{entries}\n  ]')
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    cli = run._import_program()
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        out = Path(tmp) / "sweep.json"
        for name, args in workloads.SWEEP_ARGS.items():
            rc = cli.main(["sweep", *args, "--format", "json", "--out", str(out), "--jobs", "1"])
            payload = json.loads(out.read_text(encoding="utf-8"))
            records = workloads.verdict_records(payload)
            reference[name] = {
                "argv": ["sweep", *args],
                "exit_code": rc,
                "counts": payload["counts"],
                "digest": workloads.records_digest(records),
                "entries": records,
            }
            print(f"{name}: {payload['counts']} exit {rc}", file=sys.stderr)
    run.REFERENCE.write_text(_dump(reference), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
