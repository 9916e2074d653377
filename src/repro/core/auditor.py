"""The FACT auditor: one call, four pillars (S10).

``FACTAuditor.audit`` takes a trained table model, held-out data, and
(optionally) the pipeline trail and privacy accountant, and produces the
full :class:`~repro.core.report.FACTReport`:

* **Fairness** — the complete group audit of the model's decisions.
* **Accuracy** — bootstrap intervals, calibration error, and (with a
  calibration split) a conformal coverage check.
* **Confidentiality** — disclosure-risk profile of the evaluation data,
  leaked-column warnings, privacy-ledger summary.
* **Transparency** — a distilled surrogate with its fidelity, the top
  permutation-importance drivers, and the provenance/audit counts.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from repro import obs
from repro.accuracy.bootstrap import bootstrap_paired_ci
from repro.accuracy.conformal import SplitConformalClassifier
from repro.confidentiality.accountant import PrivacyAccountant
from repro.confidentiality.risk import qi_class_counts, risk_from_counts
from repro.core.report import (
    AccuracySection,
    ConfidentialitySection,
    FACTReport,
    TransparencySection,
)
from repro.data.partition import PartitionedTable, merge_counts
from repro.data.schema import ColumnRole
from repro.data.table import Table
from repro.engine import Executor, Plan, value_fingerprint
from repro.engine.sharding import combine_node, shard_map_nodes
from repro.exceptions import DataError, FairnessError
from repro.fairness.metrics import factorize_groups
from repro.fairness.report import audit_decisions
from repro.learn.calibration import expected_calibration_error
from repro.learn.metrics import accuracy as accuracy_metric
from repro.learn.metrics import roc_auc
from repro.learn.table_model import TableClassifier
from repro.pipeline.pipeline import PipelineResult
from repro.store import resolve_store
from repro.transparency.importance import permutation_importance
from repro.transparency.surrogate import fit_surrogate


def _audit_shard_partial(model: TableClassifier, qi_names: tuple,
                         shard: Table, rng) -> dict:
    """One shard's contribution to every pillar (the map task body).

    Row-wise pure: each returned array is exactly the corresponding rows
    of the whole-table computation (the encoder's statistics and the
    estimator's weights are frozen at fit time), so concatenating the
    partials in shard order reproduces the whole-table arrays *bitwise* —
    which is what makes the report byte-identical at every shard count
    by construction.  Module-level so ``functools.partial`` of it pickles
    into a process worker.
    """
    labels = model.labels(shard)
    probabilities = model.predict_proba(shard)
    decisions = (probabilities >= model.threshold).astype(np.float64)
    partial = {
        "n_rows": shard.n_rows,
        "labels": labels,
        "probabilities": probabilities,
        "decisions": decisions,
        "X": model.encoder.transform(shard),
        "sensitive": {
            name: shard.column(name)
            for name in shard.schema.sensitive_names
        },
    }
    if qi_names:
        counts, nan_singletons = qi_class_counts(shard, list(qi_names))
        partial["qi"] = counts
        partial["qi_nan"] = nan_singletons
    return partial


def _gather(partials, keys: tuple[str, ...],
            sensitive: tuple[str, ...] = ()) -> dict:
    """Concatenate the named partial arrays in shard order — one pass.

    A single iteration over ``partials`` (each spilled entry is decoded
    exactly once), returning ``{key: concatenated array}`` plus a
    ``"sensitive"`` dict when sensitive column names are requested.
    """
    parts: dict[str, list] = {key: [] for key in keys}
    groups: dict[str, list] = {name: [] for name in sensitive}
    for partial in partials:
        for key in keys:
            parts[key].append(partial[key])
        for name in sensitive:
            groups[name].append(partial["sensitive"][name])
    gathered: dict = {
        key: np.concatenate(values) for key, values in parts.items()
    }
    if sensitive:
        gathered["sensitive"] = {
            name: np.concatenate(values) for name, values in groups.items()
        }
    return gathered


def _audit_notes(partials, fairness, sensitive_names: tuple[str, ...],
                 calibrated: bool) -> list[str]:
    """The report's notes (the ``notes`` node of the audit plan).

    Computed from the shard partials and the fairness section, so a
    re-audit replays them with everything else it did not invalidate.
    """
    notes = []
    if not calibrated:
        notes.append(
            "no calibration split supplied: conformal guarantee not checked"
        )
    arrays = _gather(partials, ("decisions",), sensitive=sensitive_names)
    power_note = FACTAuditor._audit_power_note(
        fairness, arrays["sensitive"][fairness.sensitive]
    )
    if power_note:
        notes.append(power_note)
    intersectional_note = FACTAuditor._intersectional_note(
        arrays["sensitive"], arrays["decisions"], fairness
    )
    if intersectional_note:
        notes.append(intersectional_note)
    return notes


class FACTAuditor:
    """Audits a model + dataset against all four FACT questions.

    Every audit runs as one map/combine plan (:meth:`build_plan`) over
    row-range shards of the evaluation data; a plain ``Table`` is
    partitioned into ``shards`` shards (one when ``shards`` is
    ``None``).  The report is byte-identical at every shard count,
    ``n_jobs``, backend, and store setting.

    Parameters
    ----------
    conformal_alpha:
        Miscoverage level for the conformal check (needs ``calibration``
        data at audit time).
    surrogate_depth:
        Depth of the transparency surrogate tree.
    n_bootstrap:
        Resamples behind each accuracy interval.
    top_features:
        How many importance-ranked drivers the report lists.
    n_jobs:
        Fan-out for the audit's resampling-heavy internals (the
        bootstrap intervals and permutation importances) via
        :mod:`repro.parallel`; ``None`` defers to ``$REPRO_N_JOBS``.
        The report is bit-identical for every setting.
    backend:
        ``"thread"`` (default) or ``"process"`` for the fan-out.
    store:
        An :class:`~repro.store.ArtifactStore` memoising the audit
        **per plan node** (shard partials, pillar sections, notes);
        ``None`` defers to ``$REPRO_STORE`` (unset: no caching).  Each
        node is keyed on exactly the inputs, parameters, and code it
        depends on, so a re-audit after one change recomputes only the
        invalidated nodes and replays the rest bit-identically.  The
        stochastic sections own ``SeedSequence``-spawned generators
        (assigned in plan order, independent of scheduling and
        caching), so the sections that *do* recompute draw the same
        stream they would have in a cold run — and a change to one
        section can never shift another's results.
    shards:
        How many row-range shards a plain ``Table`` is partitioned into
        at audit time: ``None`` (one shard) or an integer >= 1.  A
        :class:`~repro.data.PartitionedTable` keeps its own shards.
    """

    def __init__(self, conformal_alpha: float = 0.1,
                 surrogate_depth: int = 4,
                 n_bootstrap: int = 500,
                 top_features: int = 5,
                 n_jobs: int | None = None,
                 backend: str = "thread",
                 store=None,
                 shards: int | None = None):
        if shards is not None and not (
            isinstance(shards, numbers.Integral) and shards >= 1
        ):
            raise DataError(
                f"shards must be None or an integer >= 1, got {shards!r}"
            )
        self.conformal_alpha = conformal_alpha
        self.surrogate_depth = surrogate_depth
        self.n_bootstrap = n_bootstrap
        self.top_features = top_features
        self.n_jobs = n_jobs
        self.backend = backend
        self.store = store
        self.shards = shards

    def _partitioned(self, data: Table | PartitionedTable) -> PartitionedTable:
        if isinstance(data, PartitionedTable):
            return data
        return PartitionedTable.partition(data, n_shards=self.shards or 1)

    def build_plan(self, model: TableClassifier,
                   data: Table | PartitionedTable,
                   calibration: Table | None = None,
                   accountant: PrivacyAccountant | None = None,
                   pipeline_result: PipelineResult | None = None,
                   store=None) -> Plan:
        """The audit as a map/combine plan over ``data``'s shards.

        A plain ``Table`` is partitioned as :meth:`audit` would.  Level
        0 is one map node per shard (``partial.shard{i}``), each a
        picklable process task computing that shard's row-wise-pure
        arrays and exact contingency counts; with a store the partials
        *spill* (tagged ``shard:<fp>``), so references rather than
        values travel on.  Level 1 is the four pillar sections as
        combine nodes: they concatenate the partials in shard order —
        reproducing the whole-table arrays bitwise — so the report is
        **byte-identical by construction** at every shard count,
        ``n_jobs``, and backend.  The stochastic sections (accuracy,
        then transparency) declare ``rng="spawn"``: each owns its own
        seed stream, so a change to one can never shift the other's
        results.  Level 2 is the ``notes`` combine over the partials and
        the fairness section, so a re-audit replays the notes too.

        Per-shard cache keys fold each shard's content fingerprint:
        editing one shard re-runs one map node plus the combines.  The
        sections and notes are tagged ``table:<fp>`` with the dataset's
        fingerprint and every shard's, so invalidating a plain table's
        ``table_fingerprint`` drops the audit built on it.
        """
        data = self._partitioned(data)
        schema = data.schema
        qi_names = tuple(schema.quasi_identifier_names)
        sensitive_names = tuple(schema.sensitive_names)
        map_fn = functools.partial(_audit_shard_partial, model, qi_names)
        maps = shard_map_nodes(
            "partial", data, map_fn,
            params=lambda: {"model": value_fingerprint(model)},
            code=_audit_shard_partial,
        )
        tags = lambda fps: (  # noqa: E731
            f"table:{data.__content_fingerprint__()}",
            *(f"table:{fp}" for fp in data.shard_fingerprints()),
        )

        def fairness_fn(partials, extras, rng):
            if not sensitive_names:
                raise FairnessError("table declares no sensitive column")
            arrays = _gather(
                partials, ("labels", "probabilities", "decisions"),
                sensitive=sensitive_names[:1],
            )
            return audit_decisions(
                arrays["labels"], arrays["decisions"],
                arrays["sensitive"][sensitive_names[0]],
                sensitive=sensitive_names[0],
                probabilities=arrays["probabilities"],
            )

        def accuracy_fn(partials, extras, rng):
            arrays = _gather(
                partials, ("labels", "probabilities", "decisions"),
            )
            return self._accuracy(
                model, arrays["labels"], arrays["probabilities"],
                arrays["decisions"], calibration, rng, store=store,
                x_test=lambda: _gather(partials, ("X",))["X"],
                sensitive_names=sensitive_names,
                group=lambda name: _gather(
                    partials, (), sensitive=(name,)
                )["sensitive"][name],
            )

        def confidentiality_fn(partials, extras, rng):
            risk = None
            if qi_names:
                counts: dict = {}
                nan_singletons = 0
                n_rows = 0
                for partial in partials:
                    counts = merge_counts((counts, partial["qi"]))
                    nan_singletons += partial["qi_nan"]
                    n_rows += partial["n_rows"]
                risk = risk_from_counts(
                    qi_names, counts, nan_singletons, n_rows=n_rows
                )
            return self._confidentiality(schema, risk, accountant)

        def transparency_fn(partials, extras, rng):
            arrays = _gather(partials, ("X", "labels"))
            return self._transparency(
                model, arrays["X"], arrays["labels"], rng,
                pipeline_result, store=store,
            )

        def notes_fn(partials, extras, rng):
            return _audit_notes(partials, extras["fairness"],
                                sensitive_names, calibration is not None)

        nodes = [
            combine_node("fairness", maps, fairness_fn, store=store,
                         code=audit_decisions, tags=tags),
            combine_node("accuracy", maps, accuracy_fn, store=store,
                         params=lambda: {
                             "conformal_alpha": self.conformal_alpha,
                             "n_bootstrap": self.n_bootstrap,
                             "calibration": (
                                 None if calibration is None
                                 else value_fingerprint(calibration)
                             ),
                         },
                         code=FACTAuditor._accuracy,
                         rng="spawn", tags=tags),
            combine_node("confidentiality", maps, confidentiality_fn,
                         store=store,
                         params={"accountant": None if accountant is None
                                 else {
                                     "epsilon_spent": accountant.epsilon_spent,
                                     "epsilon_budget": accountant.epsilon_budget,
                                     "ledger_entries": len(accountant.ledger),
                                 }},
                         code=FACTAuditor._confidentiality,
                         tags=tags),
            combine_node("transparency", maps, transparency_fn, store=store,
                         params={"surrogate_depth": self.surrogate_depth,
                                 "top_features": self.top_features,
                                 "pipeline": None if pipeline_result is None
                                 else {
                                     "provenance_steps": (
                                         pipeline_result.context.provenance.n_steps
                                         if pipeline_result.context.provenance
                                         else 0
                                     ),
                                     "audit_events": len(
                                         pipeline_result.context.audit
                                     ),
                                 }},
                         code=FACTAuditor._transparency,
                         rng="spawn", tags=tags),
            combine_node("notes", maps, notes_fn, store=store,
                         inputs=("fairness",),
                         params={"calibrated": calibration is not None},
                         code=_audit_notes, tags=tags),
        ]
        return Plan([*maps, *nodes])

    def audit(self, model: TableClassifier,
              test: Table | PartitionedTable,
              rng: np.random.Generator,
              calibration: Table | None = None,
              accountant: PrivacyAccountant | None = None,
              pipeline_result: PipelineResult | None = None,
              subject: str = "model") -> FACTReport:
        """Produce the full FACT report.

        ``test`` is a ``Table`` (partitioned into ``shards`` row-range
        shards, one by default) or a
        :class:`~repro.data.PartitionedTable`.  Either way the audit
        runs as the one map/combine plan of :meth:`build_plan`:
        concurrent when the auditor has workers (process-parallel map
        tasks with ``backend="process"``), memoised per node when a
        store is available (explicit or via ``$REPRO_STORE``) —
        unchanged nodes replay byte-identically, changed ones
        recompute, the incremental re-audit.  A run without a store
        differs only in that nothing is looked up.
        """
        data = self._partitioned(test)
        if data.n_rows < 10:
            raise DataError("need at least 10 evaluation rows for an audit")
        store = resolve_store(self.store)
        plan = self.build_plan(
            model, data, calibration, accountant, pipeline_result,
            store=store,
        )
        executor = Executor(n_jobs=self.n_jobs, backend=self.backend,
                            name="audit")
        telemetry = obs.get()
        if telemetry is not None:
            with telemetry.tracer.span(
                "audit.run", subject=subject, n_rows=data.n_rows,
                n_shards=data.n_shards, n_jobs=executor.n_jobs,
                backend=self.backend,
            ):
                result = executor.run(plan, store=store, rng=rng)
        else:
            result = executor.run(plan, store=store, rng=rng)
        return FACTReport(
            subject=subject,
            fairness=result["fairness"],
            accuracy=result["accuracy"],
            confidentiality=result["confidentiality"],
            transparency=result["transparency"],
            notes=result["notes"],
        )

    # -- sections -----------------------------------------------------------

    @staticmethod
    def _intersectional_note(sensitive_columns: dict[str, np.ndarray],
                             decisions: np.ndarray,
                             fairness) -> str | None:
        """Cross several sensitive attributes when the schema declares them.

        The headline fairness section audits one attribute; if more are
        declared, the worst *intersection* may be worse than any
        marginal — the report should say so rather than average it away.
        ``sensitive_columns`` maps each sensitive column's name to its
        values (the shard partials, concatenated).
        """
        if len(sensitive_columns) < 2:
            return None
        from repro.fairness.intersectional import intersectional_audit

        try:
            report = intersectional_audit(decisions, dict(sensitive_columns))
        except FairnessError:
            return None
        worst = report.worst_cell
        if report.max_gap > fairness.statistical_parity_difference + 0.02:
            return (
                f"intersectional gap exceeds the marginal one: worst cell "
                f"{worst.describe()} selects at {worst.selection_rate:.2f} "
                f"(gap {report.max_gap:.3f} vs marginal "
                f"{fairness.statistical_parity_difference:.3f})"
            )
        return None

    @staticmethod
    def _audit_power_note(fairness, group: np.ndarray) -> str | None:
        """Flag an underpowered fairness audit (Q2 applied to Q1).

        A small test set can only *detect* large selection gaps; when the
        minimum detectable gap exceeds what the four-fifths rule needs to
        see, a "pass" is statistically meaningless and the report says so.
        ``group`` is the audited sensitive column's values (the shard
        partials, concatenated).
        """
        from repro.accuracy.power import minimum_detectable_gap

        smallest = int(factorize_groups(group).sizes().min())
        baseline = max(fairness.selection_rates.values())
        if not 0.0 < baseline < 1.0 or smallest < 2:
            return None
        detectable = minimum_detectable_gap(smallest, baseline)
        if np.isnan(detectable):
            return (f"fairness audit severely underpowered: smallest group "
                    f"has {smallest} rows")
        # The gap the 4/5 rule cares about at this baseline rate.
        material_gap = 0.2 * baseline
        if detectable > material_gap:
            return (
                f"fairness audit underpowered: smallest group n={smallest} "
                f"can only detect selection gaps >= {detectable:.3f}, but "
                f"a four-fifths violation here is a gap of "
                f"{material_gap:.3f}"
            )
        return None

    def _accuracy(self, model, labels, probabilities, decisions,
                  calibration, rng, store=None, *,
                  x_test, sensitive_names: tuple,
                  group) -> AccuracySection:
        """The accuracy section from the concatenated partial arrays.

        ``x_test`` and ``group`` are zero/one-argument callables — the
        encoded test matrix and a sensitive column — evaluated only when
        a conformal check actually needs them, so the ``X`` partials are
        only concatenated when calibration data exists.
        """
        acc_ci = bootstrap_paired_ci(
            labels, decisions, accuracy_metric, rng,
            n_resamples=self.n_bootstrap,
            n_jobs=self.n_jobs, backend=self.backend, store=store,
        )
        auc_ci = bootstrap_paired_ci(
            labels, probabilities, roc_auc, rng,
            n_resamples=self.n_bootstrap,
            n_jobs=self.n_jobs, backend=self.backend, store=store,
        )
        coverage = set_size = None
        by_group: dict[object, float] = {}
        if calibration is not None:
            conformal = SplitConformalClassifier(
                model.estimator, alpha=self.conformal_alpha
            )
            X_cal = model.encoder.transform(calibration)
            conformal.calibrate(X_cal, model.labels(calibration),
                                store=store)
            X_test = x_test()
            covered = conformal.covered(X_test, labels)
            coverage = float(np.mean(covered))
            set_size = conformal.mean_set_size(X_test)
            # The E4b check: does the (marginal) guarantee hold within
            # each protected group, or only on average?
            if sensitive_names:
                groups = factorize_groups(group(sensitive_names[0]))
                by_group = {
                    value: float(covered[mask].mean())
                    for value, mask in groups.masks()
                    if mask.sum() >= 10
                }
        return AccuracySection(
            accuracy=acc_ci,
            auc=auc_ci,
            expected_calibration_error=expected_calibration_error(
                labels, probabilities
            ),
            conformal_alpha=self.conformal_alpha if coverage is not None else None,
            conformal_coverage=coverage,
            conformal_mean_set_size=set_size,
            conformal_coverage_by_group=by_group,
            n_test_rows=int(labels.size),
        )

    @staticmethod
    def _confidentiality(schema, risk, accountant) -> ConfidentialitySection:
        """Assemble the section from a (possibly merged) risk profile.

        The plan computes ``risk`` by exactly merging per-shard
        equivalence-class counts (:func:`repro.data.merge_counts` +
        :func:`repro.confidentiality.risk_from_counts`), which
        reproduces :func:`~repro.confidentiality.assess_risk` on the
        whole table; everything else is schema- and accountant-derived.
        """
        metadata = [
            spec.name for spec in schema
            if spec.role is ColumnRole.METADATA
        ]
        section = ConfidentialitySection(
            risk=risk,
            identifiers_present=schema.identifier_names,
            metadata_present=metadata,
        )
        if accountant is not None:
            section.epsilon_spent = accountant.epsilon_spent
            section.epsilon_budget = accountant.epsilon_budget
            section.ledger_entries = len(accountant.ledger)
        return section

    def _transparency(self, model, X, labels, rng, pipeline_result,
                      store=None) -> TransparencySection:
        """The transparency section from the encoded matrix + labels."""
        fidelity = leaves = None
        try:
            surrogate = fit_surrogate(
                model.estimator, X, max_depth=self.surrogate_depth
            )
            fidelity, leaves = surrogate.fidelity, surrogate.n_leaves
        except DataError:
            pass  # constant model: surrogate vacuous, reported as absent
        importance = permutation_importance(
            model.estimator, X, labels, rng, n_repeats=3,
            feature_names=model.feature_names,
            n_jobs=self.n_jobs, backend=self.backend, store=store,
        )
        section = TransparencySection(
            model_type=type(model.estimator).__name__,
            surrogate_fidelity=fidelity,
            surrogate_leaves=leaves,
            top_features=importance.ranked()[:self.top_features],
        )
        if pipeline_result is not None:
            graph = pipeline_result.context.provenance
            section.provenance_steps = graph.n_steps if graph else 0
            section.audit_events = len(pipeline_result.context.audit)
        return section
