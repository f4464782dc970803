#!/usr/bin/env python
"""Run the full incident benchmark and commit the baseline scorecard.

Executes every registered scenario (``repro.incidents.SCENARIOS``)
against a live served system, grades the shipped rule-based baseline
detector, and writes ``SCORECARD_incidents.json`` — the committed
record of how the baseline fares on the catalog (per-scenario
precision / recall / F1 / time-to-detect plus the deterministic bundle
digests).

``--check`` re-runs the benchmark and compares against the committed
scorecard instead of rewriting it: the gates must still pass and every
bundle digest must match (digests are pure functions of the frozen
scenarios, so any drift means a scenario, the spec, or the injection
behavior changed — re-run without ``--check`` deliberately after such a
change).

In both modes every bundle must also pass
``repro.incidents.audit_bundle`` (nothing lost, counters agree with
the ledger, bit-identical recovery), so a scenario that breaks the
system's own invariants fails here and not only in the chaos smoke.

Exit 0 when the gates and the audit pass (and, with ``--check``,
digests match); 1 otherwise.

Usage::

    python tools/incidents_bench.py [--check] [--out SCORECARD_incidents.json]

``make incidents-bench`` / ``make incidents-bench-check`` wrap this.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "SCORECARD_incidents.json",
                        help="committed scorecard path")
    parser.add_argument("--detector", default="rules",
                        help="baseline detector to grade")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed scorecard "
                        "instead of rewriting it")
    args = parser.parse_args()

    from repro.incidents import (
        Scorecard, audit_bundle, get_detector, grade_answer, run_scenario,
        scenario_names,
    )

    detector = get_detector(args.detector)
    card = Scorecard(detector=detector.name)
    digests: dict[str, str] = {}
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-incidents-bench-") as tmp:
        out_dir = Path(tmp) / "bundles"
        cache_dir = Path(tmp) / "cache"
        for name in scenario_names():
            bundle = run_scenario(
                name, out_dir, cache_dir=cache_dir, verbose=True
            )
            digests[name] = bundle.digest
            problems += [f"{name}: {p}" for p in audit_bundle(bundle)]
            card.add(grade_answer(bundle, detector.analyze(bundle)))

    print(card.summary())
    for problem in problems:
        print(f"[incidents-bench] audit: {problem}", file=sys.stderr)
    record = {"digests": digests, **card.to_dict()}

    if args.check:
        try:
            committed = json.loads(args.out.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"[incidents-bench] cannot read {args.out}: {exc}",
                  file=sys.stderr)
            return 1
        drifted = {
            name: (committed.get("digests", {}).get(name), digest)
            for name, digest in digests.items()
            if committed.get("digests", {}).get(name) != digest
        }
        if drifted:
            for name, (old, new) in sorted(drifted.items()):
                print(f"[incidents-bench] digest drift on {name}: "
                      f"committed {old} != current {new}", file=sys.stderr)
            return 1
        print(f"[incidents-bench] {len(digests)} bundle digest(s) match "
              f"{args.out.name}")
    else:
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"[incidents-bench] scorecard written to {args.out}")

    return 0 if card.passed and not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
