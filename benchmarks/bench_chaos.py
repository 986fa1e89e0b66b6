"""Chaos-campaign benchmark — fault-domain hardening as a measured artifact.

Runs ``N_CAMPAIGNS`` seeded campaigns from :mod:`repro.service.chaos`
through a real :class:`ReconstructionService` + :class:`HttpGateway`, then
reports:

* **correctness** — total invariant violations (always asserted zero:
  this benchmark *is* the PR-9 acceptance gate, CI's ``chaos`` job runs
  it with more campaigns);
* **cost of chaos** — mean wall-clock per campaign.  Fault recovery is
  not free (a SIGSTOPped worker costs one heartbeat timeout, a kill costs
  a respawn + checkpoint resume), so the mean is the number to watch
  drift: a jump means recovery got slower, not that reconstruction did;
* **fault coverage** — how many jobs of each fault kind the seed range
  actually exercised, so a report with zero ``hang`` jobs is visibly
  weaker than one with five.

Emit mode: ``REPRO_BENCH_JSON=path.json`` writes the machine-readable
report (CI uploads it as the ``BENCH_9.json`` artifact).  CI-size knobs:
``REPRO_BENCH_CHAOS_CAMPAIGNS`` / ``_JOBS`` / ``_SEED``.
"""

from __future__ import annotations

import json
import os
import platform

from conftest import report

from repro.service.chaos import run_campaigns, summarize

#: Campaigns per benchmark run (campaign i uses seed SEED + i).
N_CAMPAIGNS = int(os.environ.get("REPRO_BENCH_CHAOS_CAMPAIGNS", "10"))
#: Jobs per campaign.
N_JOBS = int(os.environ.get("REPRO_BENCH_CHAOS_JOBS", "6"))
#: Base seed — shift to explore a different fault-mix neighbourhood.
SEED = int(os.environ.get("REPRO_BENCH_CHAOS_SEED", "0"))


def bench_chaos():
    results = run_campaigns(N_CAMPAIGNS, seed=SEED, n_jobs=N_JOBS)
    summary = summarize(results)

    mean_s = round(sum(r.duration_s for r in results) / len(results), 3)

    lines = [
        f"{summary['campaigns']} campaigns, {summary['total_jobs']} jobs, "
        f"{summary['total_duration_s']:.1f}s total",
        f"mean campaign wall-clock: {mean_s:.2f}s",
        "fault coverage: "
        + "  ".join(f"{k}={n}" for k, n in sorted(summary["kind_counts"].items())),
        f"violations: {len(summary['violations'])}",
    ]
    report(
        f"CHAOS — {N_CAMPAIGNS} seeded campaigns x {N_JOBS} jobs "
        f"(seeds {SEED}..{SEED + N_CAMPAIGNS - 1})",
        "\n".join(lines),
    )

    emit_path = os.environ.get("REPRO_BENCH_JSON")
    if emit_path:
        doc = {
            "bench": "chaos",
            "python": platform.python_version(),
            "cpu_count": os.cpu_count() or 1,
            "campaigns": N_CAMPAIGNS,
            "jobs_per_campaign": N_JOBS,
            "base_seed": SEED,
            "mean_campaign_s": mean_s,
            "summary": summary,
        }
        with open(emit_path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")

    # The invariants are the whole point: zero violations, every fault
    # kind's fingerprint verified inside run_campaign.  Hard gate, no
    # advisory mode — a violation is a correctness bug, not CI noise.
    assert summary["ok"], "\n".join(summary["violations"])
    return summary


def test_chaos(benchmark):
    benchmark.pedantic(bench_chaos, rounds=1, iterations=1)
