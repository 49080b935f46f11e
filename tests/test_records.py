"""The per-solve result records: field order, immutability, equality, pickling, repr.

``Equilibrium``, ``ComparativeStatics``, ``ObjectiveGradients`` and
``ObjectiveReport`` are built on every solve.  The goldens below were written
when they were frozen dataclasses; whatever type holds them must keep these.
"""

import pickle

import pytest

from netpricing import (ComparativeStatics, Equilibrium, ObjectiveGradients, ObjectiveReport,
                        baseline_model, comparative_statics, evaluate_objectives,
                        solve_equilibrium)

FIELDS = {
    Equilibrium: ("congestion", "throughput", "elasticity", "gap_residual", "iterations",
                  "price_user", "price_cp", "capacity", "sensitivity", "user_level",
                  "cp_level", "degenerate"),
    ComparativeStatics: ("dphi_dm", "dlam_dm", "dphi_dn", "dlam_dn", "dphi_dmu", "dlam_dmu",
                         "dphi_dp", "dlam_dp", "dphi_dq", "dlam_dq", "equilibrium"),
    ObjectiveGradients: ("profit_price_user", "profit_price_cp", "profit_capacity",
                         "welfare_price_user", "welfare_price_cp", "welfare_capacity"),
    ObjectiveReport: ("profit", "user_welfare", "cp_welfare", "welfare", "gradients",
                      "equilibrium", "degenerate"),
}
RECORDS = list(FIELDS)

EQUILIBRIUM = ("Equilibrium(congestion=1.0, throughput=0.5, elasticity=0.6666666666666666, "
               "gap_residual=0.0, iterations=1, price_user=0.0, price_cp=0.0, capacity=0.5, "
               "sensitivity=1.0, user_level=1.0, cp_level=1.0, degenerate=False)")
GRADIENTS = ("ObjectiveGradients(profit_price_user=0.7333333333333333, "
             "profit_price_cp=0.7333333333333333, profit_capacity=-0.2333333333333333, "
             "welfare_price_user=-0.5833333333333333, welfare_price_cp=-0.5833333333333333, "
             "welfare_capacity=0.3333333333333333)")
REPRS = {
    Equilibrium: EQUILIBRIUM,
    ComparativeStatics: (
        "ComparativeStatics(dphi_dm=0.6666666666666666, dlam_dm=0.3333333333333333, "
        "dphi_dn=0.6666666666666666, dlam_dn=0.3333333333333333, "
        "dphi_dmu=-1.3333333333333335, dlam_dmu=0.3333333333333333, "
        "dphi_dp=-0.6666666666666666, dlam_dp=-0.3333333333333333, "
        "dphi_dq=-0.6666666666666666, dlam_dq=-0.3333333333333333, "
        f"equilibrium={EQUILIBRIUM})"),
    ObjectiveGradients: GRADIENTS,
    ObjectiveReport: ("ObjectiveReport(profit=-0.35, user_welfare=0.25, cp_welfare=0.25, "
                      f"welfare=0.15000000000000002, gradients={GRADIENTS}, "
                      f"equilibrium={EQUILIBRIUM}, degenerate=False)"),
}


def _record(cls):
    """The record of ``cls`` at the closed-form point m = n = 1, mu = 0.5
    (phi = 1, lam = 0.5), from a fresh model."""
    model = baseline_model(capacity=0.5)
    if cls is Equilibrium:
        return solve_equilibrium(model, 0.0, 0.0)
    if cls is ComparativeStatics:
        return comparative_statics(model, 0.0, 0.0)
    report = evaluate_objectives(model, 0.0, 0.0)
    return report if cls is ObjectiveReport else report.gradients


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_its_field_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_immutable(cls):
    record = _record(cls)
    for name in (*FIELDS[cls], "added"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_inputs_give_equal_records(cls):
    first, second = _record(cls), _record(cls)
    assert first is not second
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_survives_a_pickle_round_trip(cls):
    record = _record(cls)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_repr_matches_its_golden(cls):
    assert repr(_record(cls)) == REPRS[cls]


def test_objective_report_keeps_its_surplus_welfare():
    report = _record(ObjectiveReport)
    assert report.surplus_welfare == report.user_welfare + report.cp_welfare == 0.5
