"""Unit tests for anonymisation, pseudonymisation, attacks, and risk."""

import hashlib
import hmac

import numpy as np
import pytest

from repro.confidentiality.anonymity import (
    MondrianAnonymizer,
    equivalence_classes,
    generalization_information_loss,
    k_anonymity_level,
    l_diversity_level,
    t_closeness_level,
)
from repro.confidentiality.attacks import (
    linkage_attack,
    membership_inference_on_mean,
    theoretical_membership_advantage,
)
from repro.confidentiality.pseudonym import (
    Pseudonymizer,
    drop_identifiers,
    redact_for_release,
)
from repro.confidentiality.risk import assess_risk, risk_reduction
from repro.data.schema import ColumnRole, categorical
from repro.data.synth import CensusIncomeGenerator
from repro.exceptions import AnonymityError, DataError


@pytest.fixture
def census(rng):
    return CensusIncomeGenerator().generate(800, rng)


def test_equivalence_classes(small_table):
    classes = equivalence_classes(small_table, ["city"])
    assert set(classes) == {("north",), ("south",)}
    assert len(classes[("north",)]) == 3


def test_k_anonymity_level(small_table, census):
    assert k_anonymity_level(small_table, ["city"]) == 3
    # Census QIs are near-unique raw.
    assert k_anonymity_level(census) == 1


def test_mondrian_achieves_k(census):
    for k in (5, 20):
        anonymized = MondrianAnonymizer(k=k).anonymize(census)
        assert k_anonymity_level(anonymized) >= k


def test_mondrian_only_touches_quasi_identifiers(census):
    anonymized = MondrianAnonymizer(k=10).anonymize(census)
    np.testing.assert_allclose(
        anonymized["education_years"], census["education_years"]
    )
    np.testing.assert_allclose(anonymized["high_income"], census["high_income"])
    # QI columns became categorical generalisations.
    assert anonymized.schema["age"].ctype.value == "categorical"
    assert anonymized.schema["age"].role is ColumnRole.QUASI_IDENTIFIER


def test_mondrian_numeric_labels_are_ranges(census):
    anonymized = MondrianAnonymizer(k=10).anonymize(census)
    label = str(anonymized["age"][0])
    low, separator, high = label.partition("..")
    assert separator == ".."
    assert float(low) <= float(high)


def test_mondrian_larger_k_loses_more_information(census):
    coarse = MondrianAnonymizer(k=100).anonymize(census)
    fine = MondrianAnonymizer(k=5).anonymize(census)
    assert (generalization_information_loss(census, coarse)
            > generalization_information_loss(census, fine))


def test_mondrian_validation(census, small_table):
    with pytest.raises(AnonymityError):
        MondrianAnonymizer(k=1)
    with pytest.raises(AnonymityError):
        MondrianAnonymizer(k=1000).anonymize(small_table)
    from repro.data.table import Table

    no_qi = Table.from_dict({"x": [1.0, 2.0, 3.0]})
    with pytest.raises(AnonymityError, match="quasi-identifier"):
        MondrianAnonymizer(k=2).anonymize(no_qi)


def test_l_diversity_and_t_closeness(census):
    anonymized = MondrianAnonymizer(k=25).anonymize(census)
    diversity = l_diversity_level(anonymized, "sex")
    assert diversity >= 1
    closeness = t_closeness_level(anonymized, "sex")
    assert 0.0 <= closeness <= 1.0
    # Bigger classes track the global distribution more closely.
    small_k = MondrianAnonymizer(k=5).anonymize(census)
    assert (t_closeness_level(anonymized, "sex")
            <= t_closeness_level(small_k, "sex") + 0.05)


# -- pseudonymisation ------------------------------------------------------------------

def test_pseudonymizer_consistent_and_keyed():
    worker = Pseudonymizer(key=b"secret")
    assert worker.pseudonym("alice") == worker.pseudonym("alice")
    assert worker.pseudonym("alice") != worker.pseudonym("bob")
    other_key = Pseudonymizer(key=b"other")
    assert worker.pseudonym("alice") != other_key.pseudonym("alice")


def test_pseudonymize_table(small_table):
    worker = Pseudonymizer(key=b"k")
    result = worker.pseudonymize(small_table)
    assert result["ssn"][0].startswith("p_")
    assert result.schema["ssn"].role is ColumnRole.IDENTIFIER
    # Same input -> same token (joins survive).
    again = worker.pseudonymize(small_table)
    assert (result["ssn"] == again["ssn"]).all()


@pytest.mark.parametrize("key_length", [1, 32, 64, 65, 100])
@pytest.mark.parametrize("token_length", [8, 16, 64])
def test_column_tokens_equal_hmac_sha256(small_table, key_length,
                                         token_length):
    # The column path absorbs the keyed HMAC prefixes once; its tokens
    # must stay hmac.new's for keys below, at, and above the 64-byte
    # block (where the key is hashed first).
    key = bytes(range(7, 7 + key_length))
    worker = Pseudonymizer(key=key, token_length=token_length)
    values = ["s1", "", "ünïcödé", "x" * 200, "7"]
    table = small_table.head(5).with_column(
        small_table.schema["ssn"], values)
    tokens = worker.pseudonymize_column(table, "ssn")["ssn"].tolist()
    expected = [
        "p_" + hmac.new(key, value.encode("utf-8"),
                        hashlib.sha256).hexdigest()[:token_length]
        for value in values
    ]
    assert tokens == expected
    assert tokens == [worker.pseudonym(value) for value in values]


def test_rekeyed_breaks_linkability(small_table):
    worker = Pseudonymizer()
    fresh = worker.rekeyed()
    a = worker.pseudonymize(small_table)["ssn"]
    b = fresh.pseudonymize(small_table)["ssn"]
    assert not (a == b).any()


def test_pseudonymizer_validation(small_table):
    with pytest.raises(DataError):
        Pseudonymizer(token_length=4)
    from repro.data.table import Table

    plain = Table.from_dict({"x": [1.0]})
    with pytest.raises(DataError, match="identifier"):
        Pseudonymizer().pseudonymize(plain)


def test_drop_identifiers(small_table):
    assert "ssn" not in drop_identifiers(small_table)
    from repro.data.table import Table

    plain = Table.from_dict({"x": [1.0]})
    assert drop_identifiers(plain) is plain


def test_redact_for_release(credit_tables):
    train, _ = credit_tables
    released = redact_for_release(train)
    # Oracle column gone.
    assert "qualified" not in released
    assert "approved" in released


# -- attacks --------------------------------------------------------------------------

def _released_with_ids(census):
    return census.with_column(
        categorical("uid", role=ColumnRole.IDENTIFIER),
        [f"u{i}" for i in range(census.n_rows)],
    )


def test_linkage_attack_on_raw_data(census):
    released = _released_with_ids(census)
    auxiliary = released.select(
        ["age", "occupation", "zipcode", "uid"]
    ).rename({"uid": "name"})
    result = linkage_attack(
        released, auxiliary, ["age", "occupation", "zipcode"], "uid", "name"
    )
    assert result.reidentification_rate > 0.9
    assert result.n_unique_matches >= result.n_correct


def test_linkage_attack_defeated_by_mondrian(census):
    released = _released_with_ids(census)
    auxiliary = released.select(
        ["age", "occupation", "zipcode", "uid"]
    ).rename({"uid": "name"})
    anonymized = MondrianAnonymizer(k=10).anonymize(released)
    result = linkage_attack(
        anonymized, auxiliary, ["age", "occupation", "zipcode"], "uid", "name"
    )
    assert result.reidentification_rate == 0.0


def test_linkage_attack_validation(census):
    with pytest.raises(DataError):
        linkage_attack(census, census, ["nope"], "age", "age")


def test_membership_inference_advantage_grows_with_epsilon(rng):
    values = rng.normal(50.0, 10.0, 200)
    weak = membership_inference_on_mean(
        values, 99.0, 0.05, rng, 0.0, 100.0, n_trials=800
    )
    strong = membership_inference_on_mean(
        values, 99.0, 20.0, rng, 0.0, 100.0, n_trials=800
    )
    assert strong.advantage > weak.advantage
    assert strong.advantage > 0.3


def test_membership_inference_bounded_at_low_epsilon(rng):
    values = rng.normal(50.0, 10.0, 200)
    result = membership_inference_on_mean(
        values, 99.0, 0.1, rng, 0.0, 100.0, n_trials=3000
    )
    bound = theoretical_membership_advantage(0.1)
    # Empirical advantage within sampling noise of the DP bound.
    assert result.advantage <= bound + 0.05


def test_theoretical_advantage_endpoints():
    assert theoretical_membership_advantage(0.0) == 0.0
    assert theoretical_membership_advantage(10.0) > 0.99


# -- risk ------------------------------------------------------------------------------

def test_risk_profile_raw_vs_anonymized(census):
    raw = assess_risk(census)
    assert raw.k_anonymity == 1
    assert raw.unique_row_fraction > 0.5
    assert raw.prosecutor_risk == 1.0
    anonymized = MondrianAnonymizer(k=10).anonymize(census)
    safe = assess_risk(anonymized)
    assert safe.k_anonymity >= 10
    assert safe.prosecutor_risk <= 0.1
    assert safe.unique_row_fraction == 0.0
    reduction = risk_reduction(raw, safe)
    assert reduction["prosecutor_risk"] > 0.8
    assert "k=" in safe.render()


def test_journalist_risk_definition(small_table):
    profile = assess_risk(small_table, ["city"])
    # Two classes over six rows.
    assert profile.journalist_risk == pytest.approx(2 / 6)
