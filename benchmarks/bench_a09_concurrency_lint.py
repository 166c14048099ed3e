"""A9 (concurrency correctness) — seeded-bug corpus vs. the toolkit.

The panelists' mediators were shared infrastructure: one federation
layer multiplexing dashboards, analytics and batch tenants over real
threads. Every concurrency defect in that layer — a deadlock between
the cache and the limiter, a duplicated upstream fetch, a leaked
admission slot — is an outage for every tenant at once. This experiment
sweeps the seeded defect corpus under `tests/concurrency_corpus/`
through all three detectors of `repro.analysis.concurrency`:

* **static lint** — lock-order cycles (EII501), unguarded shared-state
  writes (EII502), non-atomic check-then-act (EII503), from the AST
  alone, no execution;
* **race sanitizer** — Eraser-style lockset intersection plus a coarse
  happens-before fence on join/shutdown: lockset races (EII504), slot
  leaks via the limiter drain audit (EII506), single-writer violations
  on the coordinator's MetricsCollector (EII507);
* **interleaving fuzzer** — seeded schedules over caller threads sharing
  one engine, diffed against the serial oracle (EII505), and over
  threads pouring through a source limiter (EII506).

Claims asserted: every seeded defect is detected with its expected code
(zero false negatives across the corpus); the shipped `src/repro` tree
and the clean scenario controls produce zero findings (zero false
positives); and the six acceptance defect classes — lock-order cycle,
unguarded write, check-then-act, lockset race, interleaving divergence,
limiter leak — are all distinctly represented.
"""

import pathlib

from repro.analysis.concurrency import (
    fuzz_shared_engine,
    instrument_method,
    lint_concurrency,
    lint_shared_state,
    run_limiter_scenario,
    sanitize,
)
from repro.analysis.concurrency.lockorder import lint_lock_order
from repro.federation.limits import SourceLimiter

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
CORPUS = REPO / "tests" / "concurrency_corpus"


def lint_corpus_file(name):
    path = CORPUS / f"{name}.py"
    sources = [(str(path), path.read_text())]
    return lint_lock_order(sources) + lint_shared_state(sources)


def detect_eii504():
    from tests.concurrency_corpus.dynamic_bugs import RacyCounter, race_increments

    undo = instrument_method(RacyCounter, "increment", ("value",))
    try:
        with sanitize() as sanitizer:
            race_increments(RacyCounter())
        return sanitizer.report.diagnostics
    finally:
        undo()


def detect_eii505():
    from tests.concurrency_corpus.dynamic_bugs import SHARED_ENGINE_SQL, run_state_engine

    return fuzz_shared_engine(run_state_engine, SHARED_ENGINE_SQL, seeds=(3,))


def clean_shared_engine():
    from tests.concurrency_corpus.dynamic_bugs import SHARED_ENGINE_SQL
    from tests.federation_fixtures import build_engine

    return fuzz_shared_engine(
        lambda: build_engine(parallel_workers=4), SHARED_ENGINE_SQL, seeds=range(5)
    )


def detect_eii506():
    from tests.concurrency_corpus.dynamic_bugs import LeakyLimiter

    return run_limiter_scenario(
        LeakyLimiter(limits={"src": 2}), n_threads=8, seed=1, fail_on=(2, 5)
    )


def detect_eii507():
    from tests.concurrency_corpus.dynamic_bugs import rogue_metrics_write
    from repro.netsim.metrics import MetricsCollector

    with sanitize() as sanitizer:
        rogue_metrics_write(MetricsCollector()).join()
    return sanitizer.report.diagnostics


#: defect -> (detector label, expected code, diagnostics thunk)
DEFECTS = [
    (
        "lock-order cycle",
        "lint",
        "EII501",
        lambda: lint_corpus_file("bug_lock_cycle"),
    ),
    (
        "unguarded shared write",
        "lint",
        "EII502",
        lambda: lint_corpus_file("bug_unguarded"),
    ),
    (
        "check-then-act",
        "lint",
        "EII503",
        lambda: lint_corpus_file("bug_check_then_act"),
    ),
    ("lockset race", "sanitizer", "EII504", detect_eii504),
    ("interleaving divergence", "fuzzer", "EII505", detect_eii505),
    ("limiter slot leak", "fuzzer", "EII506", detect_eii506),
    ("single-writer violation", "sanitizer", "EII507", detect_eii507),
]

#: negative controls: the disciplined equivalents must stay silent
CONTROLS = [
    ("clean shared engine (seeds 0-4)", clean_shared_engine),
    (
        "clean limiter + failures",
        lambda: run_limiter_scenario(
            SourceLimiter(limits={"src": 3}), n_threads=12, seed=4,
            fail_on=(3, 7),
        ),
    ),
]


def test_a09_concurrency_lint(record_experiment):
    rows = []
    misses = []
    for defect, detector, expected, thunk in DEFECTS:
        diagnostics = thunk()
        codes = sorted({d.code for d in diagnostics})
        hit = expected in codes
        if not hit:
            misses.append((defect, expected, codes))
        rows.append(
            (defect, detector, expected, "+".join(codes) or "-",
             len(diagnostics), "yes" if hit else "NO")
        )

    shipped = lint_concurrency([str(SRC)])
    rows.append(
        (
            "shipped src/repro",
            "lint",
            "(none)",
            "+".join(shipped.codes()) or "-",
            len(shipped.diagnostics),
            "yes" if shipped.ok and not shipped.diagnostics else "NO",
        )
    )
    control_findings = {}
    for label, thunk in CONTROLS:
        diagnostics = thunk()
        control_findings[label] = diagnostics
        rows.append(
            (label, "fuzzer", "(none)",
             "+".join(sorted({d.code for d in diagnostics})) or "-",
             len(diagnostics), "yes" if not diagnostics else "NO")
        )

    record_experiment(
        "A9",
        "the concurrency toolkit detects every seeded defect in the corpus "
        "with its expected EII5xx code — zero false negatives — while the "
        "shipped tree and the disciplined controls produce zero findings",
        ["defect", "detector", "expected", "detected", "n", "ok"],
        rows,
        notes=(
            "corpus: tests/concurrency_corpus (3 lint fixtures + 4 dynamic "
            "bugs); sanitizer = lockset intersection + join/shutdown "
            "happens-before fence; fuzzer seeds are fixed, every detection "
            "deterministic; acceptance classes: cycle, unguarded write, "
            "check-then-act, lockset race, divergence, slot leak"
        ),
        metrics={
            "defects_detected": len(DEFECTS) - len(misses),
            "defects_total": len(DEFECTS),
            "false_negatives": len(misses),
            "shipped_findings": len(shipped.diagnostics),
            "control_findings": sum(
                len(d) for d in control_findings.values()
            ),
        },
        gates={
            "zero_false_negatives": ("false_negatives", "==", 0),
            "shipped_tree_clean": ("shipped_findings", "==", 0),
            "controls_silent": ("control_findings", "==", 0),
        },
        headline={"metric": "defects_detected", "direction": "up"},
    )

    # Zero false negatives: every seeded defect found with its code.
    assert not misses, misses

    # Zero false positives: shipped tree and disciplined controls silent.
    assert shipped.ok and not shipped.diagnostics, shipped.render()
    for label, diagnostics in control_findings.items():
        assert diagnostics == [], (label, [d.render() for d in diagnostics])
