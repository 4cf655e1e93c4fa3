"""
Rewrite reference.json: the digest of every job's canonical answer, as
the current code computes it.

    python3 perfbench/reference.py

Run it only when a job is added or its expected answer changes on
purpose, and say why in the change that commits the new file.
"""

import json
import sys

import jobs
import run


def main():
    lam = run.import_laminate()
    reference = {}
    for name, workload in sorted(jobs.WORKLOADS.items()):
        prepared, _, _ = jobs.prepare(lam, workload, 0)
        answers = reference.setdefault(name, {})
        for item in prepared:
            if item.job.kind == "cli":
                argv = run.CLI_COMMAND + item.job.argv
                out, code, _ = run.run_child(argv)
                answers[item.job.id] = jobs.cli_digest(code, out)
            else:
                raw = jobs.execute(lam, item)
                answers[item.job.id] = jobs.digest(jobs.canonical(item, raw))
            print(name, item.job.id, answers[item.job.id], file=sys.stderr)
    with open(jobs.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
