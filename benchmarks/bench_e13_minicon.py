"""E13 — LAV reformulation scales: MiniCon over growing view sets.

Claim (Halevy §1, and the MiniCon line of work the panel's systems build
on): answering queries using views is practical at realistic view counts —
reformulation work follows the genuinely-relevant views only, and so does the
number of sound rewritings; an irrelevant view costs one probe per subgoal.

Method: a conceptual schema (person/employment/residence) with view sets
of increasing size: each batch adds relevant projections/joins plus
irrelevant distractor views. Sweep view count; count the rewritings, the
(view, subgoal) probes, the MCDs formed and the candidate combinations
verified (call counters on `repro.mediator.lav`); every rewriting is
containment-verified (soundness built in).
"""

from unittest import mock

from repro.mediator import lav
from repro.mediator.cq import parse_cq
from repro.mediator.lav import LavMapping, minicon_rewritings

QUERY = parse_cq(
    "q(Name, City) :- person(P, Name), employed(P, E), lives(P, City)"
)


def make_views(count: int) -> list:
    """`count` views: a relevant core plus parameterized variants/distractors."""
    views = [
        LavMapping.parse("v_person(P, Name) :- person(P, Name)"),
        LavMapping.parse("v_emp(P, E) :- employed(P, E)"),
        LavMapping.parse("v_lives(P, City) :- lives(P, City)"),
        LavMapping.parse(
            "v_emp_lives(P, E, City) :- employed(P, E), lives(P, City)"
        ),
        LavMapping.parse(
            "v_all(P, Name, City) :- person(P, Name), employed(P, E), lives(P, City)"
        ),
    ]
    distractor = 0
    while len(views) < count:
        views.append(
            LavMapping.parse(
                f"v_d{distractor}(X, Y) :- unrelated{distractor % 7}(X, Y)"
            )
        )
        distractor += 1
    return views[:count]


def test_e13_minicon(record_experiment):
    rows = []
    rewriting_counts = {}
    work = {}
    for count in (3, 5, 10, 25, 50, 100):
        views = make_views(count)
        with (
            mock.patch.object(lav, "_make_mcds", wraps=lav._make_mcds) as probes,
            mock.patch.object(lav, "_MCD", wraps=lav._MCD) as mcds,
            mock.patch.object(lav, "_verify", wraps=lav._verify) as verified,
        ):
            rewritings = minicon_rewritings(QUERY, views, verify=True)
        rewriting_counts[count] = len(rewritings)
        work[count] = (probes.call_count, mcds.call_count, verified.call_count)
        rows.append((count, len(rewritings), *work[count]))

    record_experiment(
        "E13",
        "MiniCon rewriting work follows the relevant views as the library grows",
        ["views", "sound_rewritings", "view_probes", "mcds_formed",
         "combinations_verified"],
        rows,
        notes="rewritings are expansion-verified (guaranteed contained in Q)",
    )

    # Shape: with only the 3 base views there is exactly the one triple-join
    # rewriting; richer view sets expose more; distractors add none.
    assert rewriting_counts[3] == 1
    assert rewriting_counts[5] > rewriting_counts[3]
    assert rewriting_counts[100] == rewriting_counts[5]
    # Practicality: 95 distractors cost one probe per view and subgoal and
    # nothing combinatorial - no MCD, no candidate to verify.
    assert work[100][0] == 100 * len(QUERY.body)
    assert work[100][1:] == work[5][1:]
