"""The package's result records: their repr, equality, hashing, pickling,
immutability and JSON reports.

Each record is a NamedTuple. The reprs below are the strings the package
has always printed, and a ``--jobs 2`` pool ships records between processes
by pickle, so each must come back equal.
"""

import json
import pickle
from fractions import Fraction

import pytest

from ratioshift.boros_moll import BmRatioCheck
from ratioshift.fuzz_harness import CampaignReport, CampaignSpec
from ratioshift.numeric_core import DomainError
from ratioshift.quartic_integral import IntegralCheck
from ratioshift.shape_props import PropertyVerdict, Status, Witness
from ratioshift.theorem_engine import Lemma3Report


def _spec():
    # A list range is stored as a tuple and shift_c as a Fraction.
    return CampaignSpec(target="corollary", trials=3, seed=7, degree_range=[2, 3],
                        shift_c=Fraction(3, 2))


def _witness():
    return Witness((1,), (Fraction(0),))


_SPEC_REPR = ("CampaignSpec(target='corollary', trials=3, seed=7, degree_range=(2, 3), "
              "magnitude_bound=1000000, integer_only=False, shift_c=Fraction(3, 2), "
              "allow_c_below_one=False)")

# (build, field to assign, repr); build makes a new, equal record each call.
_RECORDS = {
    "Witness": (_witness, "indices",
                "Witness(indices=(1,), values=(Fraction(0, 1),))"),
    "PropertyVerdict": (
        lambda: PropertyVerdict("log-concave", Status.NOT_APPLICABLE, _witness(),
                                "nonpositive entry 0 at index 1"),
        "status",
        "PropertyVerdict(prop='log-concave', status=<Status.NOT_APPLICABLE: "
        "'not-applicable'>, witness=Witness(indices=(1,), values=(Fraction(0, 1),)), "
        "detail='nonpositive entry 0 at index 1')"),
    "BmRatioCheck": (
        lambda: BmRatioCheck(lhs=Fraction(3, 5), rhs=Fraction(3, 5), equal=True,
                             below_one=True),
        "equal",
        "BmRatioCheck(lhs=Fraction(3, 5), rhs=Fraction(3, 5), equal=True, below_one=True)"),
    "Lemma3Report": (
        lambda: Lemma3Report(m=2, lhs=Fraction(33), rhs=Fraction(8)),
        "lhs",
        "Lemma3Report(m=2, lhs=Fraction(33, 1), rhs=Fraction(8, 1))"),
    "IntegralCheck": (
        lambda: IntegralCheck(m=1, x=0.5, lhs=0.6045997880700239, rhs=0.6045997880780726,
                              rel_err=1.3312397718345216e-11, tol=1e-08, passed=True),
        "passed",
        "IntegralCheck(m=1, x=0.5, lhs=0.6045997880700239, rhs=0.6045997880780726, "
        "rel_err=1.3312397718345216e-11, tol=1e-08, passed=True)"),
    "CampaignSpec": (_spec, "trials", _SPEC_REPR),
    "CampaignReport": (
        lambda: CampaignReport(spec=_spec(), trials_run=3,
                               coverage={"non_vacuous_trials": 3}, violations=[],
                               findings=[], examples_found={},
                               stats={"degrees": {"2": 1, "3": 2}}, wall_time=0.0),
        "wall_time",
        f"CampaignReport(spec={_SPEC_REPR}, trials_run=3, "
        "coverage={'non_vacuous_trials': 3}, violations=[], findings=[], "
        "examples_found={}, stats={'degrees': {'2': 1, '3': 2}}, wall_time=0.0)"),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_record_repr_is_unchanged(name):
    build, _, text = _RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", _RECORDS)
def test_equal_records_compare_and_hash_equal(name):
    build, _, _ = _RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b
    if name == "CampaignReport":  # its dicts and lists are unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", _RECORDS)
def test_record_pickles_to_an_equal_record(name):
    build, _, _ = _RECORDS[name]
    record = build()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


@pytest.mark.parametrize("name", _RECORDS)
def test_record_field_cannot_be_assigned(name):
    build, field, _ = _RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_spec_replace_and_make_check_their_fields():
    # namedtuple's _make and _replace build the tuple directly; a spec runs
    # its checks and normalisation there too.
    spec = _spec()
    assert spec._replace(degree_range=[3, 4]).degree_range == (3, 4)
    with pytest.raises(DomainError, match="trials must be >= 1"):
        spec._replace(trials=0)
    with pytest.raises(DomainError, match="unknown target"):
        CampaignSpec._make(("nope", *spec[1:]))


_SPEC_JSON = {"target": "corollary", "trials": 3, "seed": 7, "degree_range": [2, 3],
              "magnitude_bound": 1000000, "integer_only": False, "shift_c": "3/2",
              "allow_c_below_one": False}

# Each report's (key, value) pairs in order. IntegralCheck, CampaignSpec and
# CampaignReport key them by the record's field names, renaming only passed.
_REPORTS = {
    "Witness": [("indices", [1]), ("values", ["0"])],
    "PropertyVerdict": [("property", "log-concave"), ("status", "not-applicable"),
                        ("witness", {"indices": [1], "values": ["0"]}),
                        ("detail", "nonpositive entry 0 at index 1")],
    "IntegralCheck": [("m", 1), ("x", 0.5), ("lhs", 0.6045997880700239),
                      ("rhs", 0.6045997880780726), ("rel_err", 1.3312397718345216e-11),
                      ("tol", 1e-08), ("pass", True)],
    "CampaignSpec": list(_SPEC_JSON.items()),
    "CampaignReport": [("spec", _SPEC_JSON), ("trials_run", 3),
                       ("coverage", {"non_vacuous_trials": 3}), ("violations", []),
                       ("findings", []), ("examples_found", {}),
                       ("stats", {"degrees": {"2": 1, "3": 2}}), ("wall_time", 0.0)],
}


@pytest.mark.parametrize("name", _REPORTS)
def test_report_is_the_fields_in_order_and_survives_json(name):
    d = _RECORDS[name][0]().to_json_dict()
    assert list(d.items()) == _REPORTS[name]
    # A tuple or a record left in the report would come back as a list.
    assert json.loads(json.dumps(d)) == d
