"""Golden point queries: ``evaluate_objectives`` and ``comparative_statics`` bit for bit.

``tests/data/point_queries.csv`` holds one row per (model, price pair) case
of ``CASES``: the case's name and prices, then ``float.hex`` of
the report's profit, both welfare parts and six gradients, and of the ten
statics responses.  Regenerate it (only in a change meant to move these
bits) with ``PYTHONPATH=src python tests/test_point_queries.py``.
"""

import csv
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from netpricing import (CapacitySharing, CustomCongestion, CustomDemand, CustomGain,
                        ExponentialGain, MM1Queue, ReciprocalGain, baseline_model,
                        comparative_statics, evaluate_objectives)
from netpricing.equilibrium import PREDICTED_STATIC_SIGNS

GOLDEN = Path(__file__).parent / "data" / "point_queries.csv"
OBJECTIVE_FIELDS = ("profit", "user_welfare", "cp_welfare")
GRADIENT_FIELDS = ("profit_price_user", "profit_price_cp", "profit_capacity",
                   "welfare_price_user", "welfare_price_cp", "welfare_capacity")
HEADER = ("case", "price_user", "price_cp", *OBJECTIVE_FIELDS, *GRADIENT_FIELDS,
          *PREDICTED_STATIC_SIGNS)


def _models() -> list[tuple[str, object]]:
    """Three seeded builtin models per gain x law pair, then custom curves: a
    gain, a law, both together, and a demand with no slope or surplus callable."""
    rng = random.Random(29)
    models = []
    for gain in (ReciprocalGain(), ExponentialGain()):
        for law in (CapacitySharing(), MM1Queue()):
            for k in range(3):
                models.append((f"{type(gain).__name__}-{type(law).__name__}-{k}", baseline_model(
                    gain=gain, congestion=law, alpha=rng.uniform(0.5, 2.0),
                    beta=rng.uniform(0.5, 2.0), cost=rng.uniform(0.3, 0.9),
                    capacity=rng.uniform(0.5, 3.0), sensitivity=rng.uniform(0.5, 3.0))))
    a, b, k = rng.uniform(0.3, 0.7), rng.uniform(0.05, 0.2), rng.uniform(0.1, 0.4)
    gain = CustomGain(lambda phi, s: math.exp(-s * (a * phi + b * phi * phi)))
    law = CustomCongestion(lambda lam, mu: (lam + k * lam * lam) / mu)
    demand = CustomDemand(lambda p: 1.0 - math.sqrt(p))
    models += [
        ("CustomGain-CapacitySharing", baseline_model(gain=gain, capacity=rng.uniform(1.0, 3.0))),
        ("ReciprocalGain-CustomCongestion", baseline_model(congestion=law,
                                                           capacity=rng.uniform(1.0, 3.0))),
        ("CustomGain-CustomCongestion", baseline_model(gain=gain, congestion=law,
                                                       capacity=rng.uniform(1.0, 3.0))),
    ]
    models.append(("CustomDemand-MM1Queue", replace(
        baseline_model(congestion=MM1Queue(), capacity=rng.uniform(1.0, 3.0)),
        user_demand=demand)))
    return models


def _cases() -> list[tuple[str, object, float, float]]:
    """(name, model, p, q): every model of ``_models`` at five seeded interior
    price pairs and at a zero user price."""
    rng = random.Random(2903)
    return [(name, model, p, q) for name, model in _models()
            for p, q in [(rng.uniform(0.02, 0.9), rng.uniform(0.02, 0.9)) for _ in range(5)]
            + [(0.0, rng.uniform(0.02, 0.9))]]


CASES = _cases()


def point_query_row(model, p: float, q: float) -> list[str]:
    report = evaluate_objectives(model, p, q)
    statics = comparative_statics(model, p, q)
    values = ([getattr(report, f) for f in OBJECTIVE_FIELDS]
              + [getattr(report.gradients, f) for f in GRADIENT_FIELDS]
              + [getattr(statics, f) for f in PREDICTED_STATIC_SIGNS])
    return [float.hex(p), float.hex(q), *(float.hex(v) for v in values)]


def _golden_rows() -> list[list[str]]:
    with GOLDEN.open(newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(HEADER)
    return rows[1:]


def test_golden_has_a_row_per_case():
    assert [row[0] for row in _golden_rows()] == [name for name, *_ in CASES]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_point_query_matches_golden(index):
    # one row per case; a change that moves any bit of an objective, a gradient
    # or a statics response shows here
    name, model, p, q = CASES[index]
    assert [name, *point_query_row(model, p, q)] == _golden_rows()[index]


if __name__ == "__main__":
    with GOLDEN.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(HEADER)
        for name, model, p, q in CASES:
            writer.writerow([name, *point_query_row(model, p, q)])
