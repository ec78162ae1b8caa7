"""Declarative campaign health rules for CI gates.

A merged campaign journal holds everything needed to decide "is this
fleet healthy": per-shard custody and durations, lease reclaims,
adaptive-repetition convergence, and checkpoint corruption counts.
This module evaluates a small declarative rule language over that
stream so CI can fail a pipeline (``repro obs health --rules
rules.json`` exits non-zero) instead of a human eyeballing dashboards.

Rules (JSON: ``{"rules": [{"rule": NAME, ...params}, ...]}``):

``straggler-shard``
    A finished shard's busy time exceeds ``k`` (default 2.0) times the
    median across the finished shards that executed at least one cell
    (a shard replayed wholly from checkpoints finishes in ~0 s and
    would drag the median down); ``min_shards`` (default 2) guards the
    degenerate single-shard case.
``lease-churn``
    Lease reclaims per shard exceed ``max_rate`` (default 0.0 — any
    steal is a violation unless the rule says otherwise).
``ci-unconverged``
    An adaptive sweep finished with more than ``max_cells`` (default
    0) cells still failing the confidence-interval policy at the rep
    cap (from ``sweep-finished`` ``extra["unconverged"]``).
``checkpoint-corrupt``
    More than ``max_count`` (default 0) corrupt checkpoints were
    detected and re-run.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.summary import summarize_journal

__all__ = [
    "RULE_NAMES",
    "HealthRule",
    "Violation",
    "load_rules",
    "default_rules",
    "evaluate_health",
    "render_violations",
]

#: Every rule name the engine understands.
RULE_NAMES: frozenset[str] = frozenset(
    {"straggler-shard", "lease-churn", "ci-unconverged", "checkpoint-corrupt"}
)

_RULE_PARAMS = {
    "straggler-shard": {"k", "min_shards"},
    "lease-churn": {"max_rate"},
    "ci-unconverged": {"max_cells"},
    "checkpoint-corrupt": {"max_count"},
}


@dataclass(frozen=True)
class HealthRule:
    """One declarative health check.

    Attributes
    ----------
    rule:
        One of :data:`RULE_NAMES`.
    params:
        Rule-specific thresholds (see the module docstring).
    """

    rule: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate the rule name and parameter names."""
        if self.rule not in RULE_NAMES:
            raise ConfigurationError(
                f"unknown health rule {self.rule!r} "
                f"(know: {', '.join(sorted(RULE_NAMES))})"
            )
        bad = set(self.params) - _RULE_PARAMS[self.rule]
        if bad:
            raise ConfigurationError(
                f"rule {self.rule!r} does not take parameter(s) "
                f"{', '.join(sorted(bad))}"
            )
        for name, value in self.params.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigurationError(
                    f"rule {self.rule!r} parameter {name!r} must be a "
                    f"number, got {value!r}"
                )


@dataclass(frozen=True)
class Violation:
    """One failed health check.

    Attributes
    ----------
    rule:
        The rule that fired.
    subject:
        What violated it (shard label, cell label, or ``campaign``).
    value / limit:
        Observed value and the threshold it crossed.
    detail:
        Human-readable explanation.
    """

    rule: str
    subject: str
    value: float
    limit: float
    detail: str


def default_rules() -> list[HealthRule]:
    """The conservative built-in rule set (used without ``--rules``)."""
    return [
        HealthRule("straggler-shard", {"k": 3.0}),
        HealthRule("checkpoint-corrupt", {"max_count": 0}),
        HealthRule("ci-unconverged", {"max_cells": 0}),
    ]


def load_rules(path: str | Path) -> list[HealthRule]:
    """Parse a rules JSON file (``{"rules": [...]}`` or a bare list)."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"rules file {path} does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    rules = doc.get("rules") if isinstance(doc, dict) else doc
    if not isinstance(rules, list) or not rules:
        raise ConfigurationError(
            f"{path}: expected a non-empty rule list "
            f'("rules": [{{"rule": ...}}, ...])'
        )
    out: list[HealthRule] = []
    for i, spec in enumerate(rules):
        if not isinstance(spec, dict) or "rule" not in spec:
            raise ConfigurationError(
                f"{path}: rules[{i}] must be an object with a 'rule' key"
            )
        params = {k: v for k, v in spec.items() if k != "rule"}
        try:
            out.append(HealthRule(spec["rule"], params))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: rules[{i}]: {exc}") from exc
    return out


def _straggler_shard(summary, rule: HealthRule) -> list[Violation]:
    k = float(rule.params.get("k", 2.0))
    min_shards = int(rule.params.get("min_shards", 2))
    finished = {
        label: s.duration
        for label, s in summary.shards.items()
        if s.finished and s.duration > 0 and s.executed > 0
    }
    if len(finished) < min_shards:
        return []
    median = statistics.median(finished.values())
    if median <= 0:
        return []
    return [
        Violation(
            rule="straggler-shard",
            subject=label,
            value=duration,
            limit=k * median,
            detail=(
                f"{label} busy {duration:.3f} s > {k:g} x median "
                f"{median:.3f} s across {len(finished)} shards"
            ),
        )
        for label, duration in sorted(finished.items())
        if duration > k * median
    ]


def _lease_churn(summary, rule: HealthRule) -> list[Violation]:
    max_rate = float(rule.params.get("max_rate", 0.0))
    if not summary.shards:
        return []
    rate = summary.shard_reclaims / len(summary.shards)
    if rate <= max_rate:
        return []
    return [
        Violation(
            rule="lease-churn",
            subject="campaign",
            value=rate,
            limit=max_rate,
            detail=(
                f"{summary.shard_reclaims} lease reclaim(s) across "
                f"{len(summary.shards)} shard(s) = {rate:.2f}/shard "
                f"> {max_rate:g}"
            ),
        )
    ]


def _ci_unconverged(events, rule: HealthRule) -> list[Violation]:
    max_cells = int(rule.params.get("max_cells", 0))
    labels: list[str] = []
    for e in events:
        if e.kind == "sweep-finished":
            labels.extend(e.extra.get("unconverged", []))
    if len(labels) <= max_cells:
        return []
    shown = ", ".join(sorted(labels)[:5])
    return [
        Violation(
            rule="ci-unconverged",
            subject="campaign",
            value=float(len(labels)),
            limit=float(max_cells),
            detail=(
                f"{len(labels)} cell(s) hit the adaptive rep cap without "
                f"CI convergence (> {max_cells}): {shown}"
            ),
        )
    ]


def _checkpoint_corrupt(summary, rule: HealthRule) -> list[Violation]:
    max_count = int(rule.params.get("max_count", 0))
    if summary.checkpoint_corrupt <= max_count:
        return []
    return [
        Violation(
            rule="checkpoint-corrupt",
            subject="campaign",
            value=float(summary.checkpoint_corrupt),
            limit=float(max_count),
            detail=(
                f"{summary.checkpoint_corrupt} corrupt checkpoint(s) "
                f"detected and re-run (> {max_count})"
            ),
        )
    ]


def evaluate_health(events, rules) -> list[Violation]:
    """Evaluate health rules over a (merged) journal event stream.

    Returns every violation, ordered by rule then subject; an empty
    list means the campaign is healthy under the given rules.
    """
    summary = summarize_journal(list(events))
    violations: list[Violation] = []
    for rule in rules:
        if rule.rule == "straggler-shard":
            violations.extend(_straggler_shard(summary, rule))
        elif rule.rule == "lease-churn":
            violations.extend(_lease_churn(summary, rule))
        elif rule.rule == "ci-unconverged":
            violations.extend(_ci_unconverged(events, rule))
        elif rule.rule == "checkpoint-corrupt":
            violations.extend(_checkpoint_corrupt(summary, rule))
    return sorted(violations, key=lambda v: (v.rule, v.subject))


def render_violations(violations) -> str:
    """Human-readable report block for the ``obs health`` CLI."""
    if not violations:
        return "healthy: no rule violations"
    lines = [f"UNHEALTHY: {len(violations)} violation(s)"]
    for v in violations:
        lines.append(
            f"  [{v.rule}] {v.subject}: {v.detail} "
            f"(value {v.value:g}, limit {v.limit:g})"
        )
    return "\n".join(lines)
