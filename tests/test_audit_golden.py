"""Golden-digest pins for the FACT audit report.

Every audit runs as one map/combine plan over the evaluation data's
row-range shards; a plain table is a one-shard partition.  These
digests were captured from the whole-table four-section plan that
preceded it, so they hold the map/combine plan to the reports that
plan produced: any change to a section's arithmetic, its random
stream, a note, or the report's rendering flips a digest.  Each case
runs on the plain table and on a three-shard partition of it.
"""

import numpy as np
import pytest

from repro.confidentiality.accountant import PrivacyAccountant
from repro.core import FACTAuditor
from repro.data import partition, three_way_split
from repro.data.schema import ColumnRole, categorical
from repro.data.synth import CensusIncomeGenerator, CreditScoringGenerator
from repro.learn.linear import LogisticRegression
from repro.learn.table_model import TableClassifier
from repro.pipeline import CleanStage, Pipeline, TrainStage

GOLDEN = {
    "census_calibrated": "9d00539c59f974d1be910725",
    "census_two_sensitive": "c191a15e7beaec495a2bc77b",
    "credit_depth4": "e326301851c09b21d0e3a5cf",
    "credit_depth6": "335a4a6a0cc7ed519a388b1f",
    "credit_pipeline_accountant": "d9f4257585b0157c1d018d5e",
}


def _census(n_rows=240, sex_gap=0.0):
    """The calibrated census audit of ``tests/test_partition.py``."""
    census = CensusIncomeGenerator(sex_gap=sex_gap).generate(
        n_rows, np.random.default_rng(7)
    )
    train, calibration, test = three_way_split(
        census, 0.3, 0.2, np.random.default_rng(17)
    )
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, calibration, test


def census_calibrated(shards):
    model, calibration, test = _census()
    auditor = FACTAuditor(n_bootstrap=16, n_jobs=1, backend="thread",
                          shards=shards)
    return auditor.audit(model, test, np.random.default_rng(99),
                         calibration=calibration)


def census_two_sensitive(shards):
    # Large and biased enough that the report carries both the power
    # note and the intersectional note.
    model, calibration, test = _census(n_rows=900, sex_gap=0.8)
    band = np.where(test.column("education_years") >= 13.0, "hi", "lo")
    test = test.with_column(
        categorical("schooling", role=ColumnRole.SENSITIVE), band
    )
    auditor = FACTAuditor(n_bootstrap=16, n_jobs=1, backend="thread",
                          shards=shards)
    return auditor.audit(model, test, np.random.default_rng(99),
                         calibration=calibration)


def _credit():
    """The ``audit_subject`` credit audit of ``tests/test_engine.py``."""
    rng = np.random.default_rng(404)
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    train, test = generator.generate_pair(900, 400, rng)
    return TableClassifier(LogisticRegression()).fit(train), test


def credit_depth(depth):
    def run(shards):
        model, test = _credit()
        auditor = FACTAuditor(n_bootstrap=40, n_jobs=1, backend="serial",
                              surrogate_depth=depth, shards=shards)
        return auditor.audit(model, test, np.random.default_rng(11))
    return run


def credit_pipeline_accountant(shards):
    rng = np.random.default_rng(99)
    generator = CreditScoringGenerator(label_bias=0.35, proxy_strength=0.8)
    data = generator.generate(1200, rng)
    train, calibration, test = three_way_split(data, 0.25, 0.15, rng)
    result = Pipeline([
        CleanStage(), TrainStage(TableClassifier(LogisticRegression())),
    ]).run(train, rng)
    accountant = PrivacyAccountant(2.0)
    accountant.spend(0.5, label="demo-release")
    return FACTAuditor(n_bootstrap=40, shards=shards).audit(
        result.model, test, rng, calibration=calibration,
        accountant=accountant, pipeline_result=result,
        subject="pipeline-model",
    )


CASES = {
    "census_calibrated": census_calibrated,
    "census_two_sensitive": census_two_sensitive,
    "credit_depth4": credit_depth(4),
    "credit_depth6": credit_depth(6),
    "credit_pipeline_accountant": credit_pipeline_accountant,
}


@pytest.mark.parametrize("shards", (None, 3))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_fingerprint_is_pinned(case, shards):
    assert CASES[case](shards).fingerprint() == GOLDEN[case]
