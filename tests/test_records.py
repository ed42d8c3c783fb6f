"""The record types are immutable named tuples: what the package relies on."""

import copy
import importlib
import pickle
import re

import pytest

import hsagg
from hsagg import fields
from hsagg.errors import ConfigurationError
from hsagg.fields import FieldSpec, FqMatrix
from hsagg.protocol import ObservedRates, RoundInputs, RoundTranscript
from hsagg.rates import RATE_TABLE_HEADER, HsaConfig, RateRow, optimal_rates
from hsagg.schemes import CoefficientScheme, KeyMaterial, SchemeParams
from hsagg.security import (
    AuditReport,
    CollusionSet,
    IndependenceVerdict,
    RankViolation,
    relay_condition_matrix,
)

F5 = FieldSpec(5)
CFG = HsaConfig(2, 1, 0)
H = FqMatrix(2, 1, (1, 4), F5)
TSET = CollusionSet(((1, 1),))
INPUTS = RoundInputs({(1, 1): (0,), (2, 1): (0,)}, 1)
KEYS = KeyMaterial((1,), {(1, 1): 1, (2, 1): 4})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FieldSpec(4), "modulus 4 is not prime"),
        (lambda: FqMatrix(-1, 0, (), F5), "matrix dimensions must be nonnegative"),
        (lambda: FqMatrix(2, 2, (0, 1, 2), F5), "2x2 matrix needs 4 entries, got 3"),
        (lambda: FqMatrix(1, 2, (0, 5), F5), "entries must be canonical residues in [0, 5)"),
        (lambda: FqMatrix(1, 1, (-1,), F5), "entries must be canonical residues in [0, 5)"),
        (lambda: CollusionSet(((2, 1), (1, 1))), "collusion set must be sorted and duplicate-free"),
        (lambda: CollusionSet(((1, 1), (1, 1))), "collusion set must be sorted and duplicate-free"),
    ],
)
def test_constructors_validate_with_value_error(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 1, 0), "need at least 2 relays, got U=1"),
        ((2, 0, 0), "need at least 1 user per cluster, got V=0"),
        ((2, 1, -1), "collusion budget must be nonnegative, got T=-1"),
    ],
)
def test_config_validates_with_configuration_error(args, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        HsaConfig(*args)


@pytest.mark.parametrize(
    "record, name",
    [
        (F5, "q"),
        (H, "rows"),
        (CFG, "U"),
        (RateRow(2, 1, 0, True), "R_X"),
        (INPUTS, "L"),
        (RoundTranscript(INPUTS, (KEYS,), {}, {}, (0,)), "decoded"),
        (ObservedRates(1, 1, 1, 1), "R_Z_sigma"),
        (SchemeParams(CFG, None), "gamma"),
        (CoefficientScheme(SchemeParams(CFG, None), H, {(1, 1): 0, (2, 1): 1}, "external"), "kind"),
        (KEYS, "source"),
        (TSET, "members"),
        (RankViolation(None, TSET, 0, 1), "observed_rank"),
        (AuditReport(3, ()), "violations"),
        (IndependenceVerdict(True, 1, TSET, 25), "witness"),
    ],
)
def test_fields_cannot_be_assigned(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    assert getattr(record, name) == before


def test_collusion_set_is_the_tuple_of_its_members():
    tset = CollusionSet.of([(3, 1), (2, 1), (3, 1)])
    assert len(tset) == 2
    assert list(tset) == [(2, 1), (3, 1)]
    assert tset.members == ((2, 1), (3, 1)) and type(tset.members) is tuple
    assert not CollusionSet(()) and len(CollusionSet(())) == 0
    assert repr(tset) == "CollusionSet(members=((2, 1), (3, 1)))"
    for clone in (copy.copy(tset), copy.deepcopy(tset), pickle.loads(pickle.dumps(tset))):
        assert clone == tset and type(clone) is CollusionSet


def test_records_keep_their_repr_and_value_equality():
    assert repr(HsaConfig(4, 3, 4)) == "HsaConfig(U=4, V=3, T=4)"
    assert HsaConfig(4, 3, 4) == HsaConfig(4, 3, 4) == (4, 3, 4)
    assert hash(HsaConfig(4, 3, 4)) == hash(HsaConfig(4, 3, 4))
    assert pickle.loads(pickle.dumps(H)) == H
    assert RoundInputs({}, 2).seed is None
    assert IndependenceVerdict(True, None, TSET, 1).witness is None


@pytest.mark.parametrize("cfg", [(3, 2, 1), (2, 2, 2)])
def test_rate_row_json_keys_follow_the_csv_header(cfg):
    row = optimal_rates(HsaConfig(*cfg))
    assert list(row.to_json_obj()) == RATE_TABLE_HEADER.split(",")
    assert list(row.to_json_obj().values()) == list(row)


def test_a_matrix_takes_a_tag_without_changing_its_value(golden_3x2_f17):
    # A tracer tags each condition matrix in place and reads the tag back
    # from the instance dict; neither the rank nor equality may notice.
    m = relay_condition_matrix(golden_3x2_f17, 1, CollusionSet.of([]))
    untagged = FqMatrix(m.rows, m.cols, m.entries, m.field)
    object.__setattr__(m, "_bench_kind", "relay")
    assert m.__dict__.get("_bench_kind") == "relay"
    assert untagged.__dict__.get("_bench_kind") is None
    assert m.rank() == untagged.rank() == m.rows
    assert m == untagged and hash(m) == hash(untagged)


def test_public_api_is_pinned():
    # a name added to or removed from the package's API shows up here; the
    # package resolves each one on first access to its own module's object
    assert sorted(hsagg.__all__) == [
        "AuditBudgetExceeded", "AuditReport", "CoefficientScheme", "CollusionSet",
        "ConfigurationError", "CorrectnessViolation", "FieldSpec", "FqMatrix",
        "HsaConfig", "IndependenceVerdict", "InfeasibleConfiguration", "KeyMaterial",
        "ObservedRates", "RankViolation", "RateRow", "RoundInputs", "RoundTranscript",
        "SchemeFormatError", "SchemeParams", "active_branch", "audit",
        "baseline_source_rate", "build_baseline", "build_elements", "build_scheme",
        "derive_keys", "exact_independence_check", "exact_sweep", "extended_vandermonde",
        "extended_vandermonde_subdet", "import_scheme", "infeasibility_attack", "is_prime",
        "measure_rates", "next_prime", "optimal_rates", "optimal_source_rate", "rate_table",
        "rate_table_csv", "relay_condition_matrix", "run_round", "sample_round",
        "scheme_to_json", "search_gamma", "server_condition_matrix",
        "transcript_to_json_obj", "vandermonde",
    ]
    for name in hsagg.__all__:
        value = getattr(hsagg, name)
        assert value.__module__.startswith("hsagg."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert sorted(fields.__all__) == [
        "FieldSpec", "FqMatrix", "extended_vandermonde", "extended_vandermonde_subdet",
        "is_prime", "json_int", "next_prime", "vandermonde",
    ]
