"""Workload inputs and output checks, shared by run.py and verdict.py.

The checks do not trust the program under test: the expected functionals,
statuses and diagnostic are written out here by hand from the paper, and a
report must also equal the recorded copy byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

RECORDED = Path(__file__).resolve().parent / "expected_report.json"

# coefficients are polynomials in m, so a constant is a one-element list
EXPECTED_VALUES = {
    "metric": {"g(u,w)": [Fraction(-1)]},
    "einstein": {"g(u,w)*s": [Fraction(1, 12)],
                 "Ric(u,w)": [Fraction(-1, 6)],
                 "g(u,w)*|V|^2": [Fraction(1)]},
}
TYPO_LABELS = {"II-3-E"}
EXPECTED_DIAGNOSTIC = {"check": "part1-top-norm-exponent",
                       "derived": "-2m-2", "printed": "-2m-4",
                       "status": "PAPER_TYPO"}


def check_report(raw: bytes, recorded: bytes) -> list[str]:
    """Problems in a `wittenres verify --format json` report; [] if none."""
    problems = []
    if raw != recorded:
        problems.append("report differs from the recorded copy")
    try:
        report = json.loads(raw)
        entries = report["entries"]
        for label, want in EXPECTED_VALUES.items():
            got = {atom: [Fraction(c) for c in coeffs]
                   for atom, coeffs in entries[label]["value"].items()}
            if got != want:
                problems.append(f"{label} is {entries[label]['value']}")
        if not TYPO_LABELS <= set(entries):
            problems.append("a PAPER_TYPO label is missing")
        for label, entry in entries.items():
            want = "PAPER_TYPO" if label in TYPO_LABELS else "MATCH"
            if entry["status"] != want:
                problems.append(f"{label} is {entry['status']}, not {want}")
        if report["diagnostics"] != [EXPECTED_DIAGNOSTIC]:
            problems.append(f"diagnostics are {report['diagnostics']}")
        if report["status"] != "pass":
            problems.append(f"status is {report['status']}")
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


class TaylorInputs(NamedTuple):
    derived: tuple   # order-zero component of sigma(A B), seeded
    printed: tuple   # the printed display, seeded
    order: tuple     # printed[k] is the seeded copy of display term order[k]
    control: int     # position of the display's last term, `u v w v`


def taylor_inputs(seed: int) -> TaylorInputs:
    """Both sides of the `taylor_diff` comparison, made from `seed`.

    Every term's dummy labels get fresh names and both sums are shuffled.
    Neither change alters the value of a sum.
    """
    from wittenres.operators import symbol_of_a, symbol_of_b
    from wittenres.pdo import compose
    from wittenres.reference import ab_symbol_reference

    rng = random.Random(seed)
    derived = compose(symbol_of_a(), symbol_of_b(), [(0, 0)])
    derived = [_rename_dummies(t, rng) for t in derived.comps[(0, 0)].terms]
    printed = [_rename_dummies(t, rng) for t in ab_symbol_reference()[(0, 0)]]
    rng.shuffle(derived)
    order = list(range(len(printed)))
    rng.shuffle(order)
    return TaylorInputs(tuple(derived), tuple(printed[k] for k in order),
                        tuple(order), order.index(len(printed) - 1))


def _rename_dummies(term, rng: random.Random):
    from wittenres.terms import label_counts, map_labels

    counts = label_counts(term)
    dummies = sorted(lab for lab, n in counts.items() if n == 2)
    fresh = [f"y{k}" for k in rng.sample(range(1000), len(dummies) + 8)]
    fresh = [lab for lab in fresh if lab not in counts]
    return map_labels(term, dict(zip(dummies, fresh)))


def with_control_doubled(inputs: TaylorInputs) -> TaylorInputs:
    """The negative control: one printed term's coefficient doubled."""
    printed = list(inputs.printed)
    term = printed[inputs.control]
    printed[inputs.control] = term._replace(coeff=term.coeff + term.coeff)
    return inputs._replace(printed=tuple(printed))


def digest(inputs: TaylorInputs) -> str:
    text = repr((inputs.derived, inputs.printed))
    return hashlib.sha256(text.encode()).hexdigest()
