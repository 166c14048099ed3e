"""E14 — how much is live data actually worth?

Claim (Draper §5): "one of the things we were surprised by was how little
most customers actually valued live data, especially if their alternatives
were fairly low latency (24 hours or less)" — i.e. EII's live-data
advantage only pays off when the application attaches a real penalty to
staleness.

Method: hold the E1 workload fixed and sweep the staleness penalty (the
per-query cost of each second of average staleness). For each penalty,
ask the advisor for the winner and for the warehouse's best refresh
cadence. Low penalties: the nightly warehouse wins and live data is
worthless; as the penalty grows the optimal cadence tightens and finally
EII takes over — quantifying exactly when "live" matters.
"""

from repro.advisor import PersistenceAdvisor, WorkloadProfile


def profile(penalty: float) -> WorkloadProfile:
    return WorkloadProfile(
        name="dashboard",
        queries_per_day=5_000,
        freshness_requirement_s=86_400,
        rows_touched=5_000,
        rows_to_copy=200_000,
        staleness_penalty_per_query_s=penalty,
    )


def test_e14_staleness_value(record_experiment):
    advisor = PersistenceAdvisor()
    rows = []
    winners = []
    intervals = []
    for penalty in (0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        rec = advisor.decide(profile(penalty))
        winners.append(rec.choice)
        intervals.append(rec.refresh_interval_s or 0)
        rows.append(
            (
                penalty,
                round(rec.warehouse_cost_per_day, 2),
                round(rec.eii_cost_per_day, 2),
                int(rec.refresh_interval_s or 0),
                rec.choice,
            )
        )

    record_experiment(
        "E14",
        "live data is overvalued until staleness carries a real penalty",
        ["staleness_penalty/query-s", "warehouse_cost/day", "eii_cost/day",
         "best_refresh_s", "winner"],
        rows,
        notes="fixed 5k queries/day dashboard; penalty is the only knob moved",
    )

    # Shape: warehouse wins at zero penalty (Draper's observation), the
    # optimal refresh interval tightens as the penalty grows, and EII wins
    # once staleness is genuinely expensive — with a single flip.
    assert winners[0] == "warehouse"
    assert winners[-1] == "eii"
    flip = winners.index("eii")
    assert all(w == "eii" for w in winners[flip:])
    warehouse_intervals = [i for i, w in zip(intervals, winners) if w == "warehouse"]
    assert warehouse_intervals == sorted(warehouse_intervals, reverse=True)
