"""Seeded inputs of the benchmark: a COMPAS-shaped relation, its CSV,
pattern pools, and brute-force counts.

The generator is the benchmark's own (numpy only), so a change to the
program's dataset module never changes what the benchmark feeds it.  It
mirrors the shape of the paper's cleaned COMPAS export: 17 categorical
attributes whose demographic marginals follow the paper's Figure 1, race
conditioned on sex, and the assessment-score cluster tied together by
functional dependencies.  Every value is a string, as it is in a CSV.

Counts used to check the program's answers come from :func:`count`,
a numpy scan over the code matrix that shares no code with the program.
"""

from __future__ import annotations

import csv
import io
import operator

import numpy as np

ROWS = 60_843

_SEX = ("Male", "Female")
_AGE = ("under 20", "20-39", "40-59", "over 60")
_RACE = ("African-American", "Caucasian", "Hispanic", "Other")
_MARITAL = ("Single", "Married", "Divorced", "Separated",
            "Significant Other", "Widowed", "Unknown")
_SCALE = ("7", "8", "18")
_DISPLAY = ("Risk of Violence", "Risk of Recidivism",
            "Risk of Failure to Appear")
_DECILE = tuple(str(i) for i in range(1, 11))
_SUPERVISION_TEXT = ("Low", "Medium", "Medium with Override", "High")

OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
       "<": operator.lt}


def _pick(rng, n, probs):
    cdf = np.cumsum(np.asarray(probs, dtype=float) / sum(probs))
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"),
                      len(cdf) - 1)


def _conditional(rng, parent, table, noise=0.0):
    """Per-row draw from ``table[parent code]`` blended with uniform."""
    table = np.asarray(table, dtype=float)
    table = table / table.sum(axis=1, keepdims=True)
    table = (1 - noise) * table + noise / table.shape[1]
    cdf = np.cumsum(table, axis=1)[parent]
    codes = (rng.random(len(parent))[:, None] > cdf).sum(axis=1)
    return np.minimum(codes, table.shape[1] - 1)


def _noisy(rng, codes, k, noise):
    flip = rng.random(len(codes)) < noise
    return np.where(flip, rng.integers(0, k, len(codes)), codes)


def _decile_table():
    race = [np.linspace(0.8, 1.3, 10), np.linspace(1.3, 0.7, 10),
            np.linspace(1.2, 0.8, 10), np.linspace(1.25, 0.75, 10)]
    age = [np.linspace(0.8, 1.25, 10), np.linspace(0.95, 1.05, 10),
           np.linspace(1.15, 0.85, 10), np.linspace(1.3, 0.7, 10)]
    return [r * a for r in race for a in age]  # index race * 4 + age


def generate(n_rows: int, seed: int):
    """``(names, domains, codes)``: attribute names, per-attribute value
    tuples, and an ``(n_rows, 17)`` int matrix of codes into them."""
    rng = np.random.default_rng(seed)
    sex = _pick(rng, n_rows, (0.78, 0.22))
    age = _pick(rng, n_rows, (0.03, 0.66, 0.27, 0.04))
    race = _conditional(rng, sex, [(35, 27, 12, 4), (9, 9, 3, 1)])
    marital = _conditional(rng, age, [
        (0.97, 0.01, 0.003, 0.003, 0.013, 0.0005, 0.0005),
        (0.80, 0.11, 0.04, 0.025, 0.02, 0.001, 0.004),
        (0.58, 0.20, 0.13, 0.045, 0.02, 0.017, 0.008),
        (0.38, 0.27, 0.18, 0.04, 0.01, 0.11, 0.01)])
    agency = _pick(rng, n_rows, (0.55, 0.30, 0.10, 0.05))
    reason = _conditional(rng, agency, [
        (0.55, 0.40, 0.02, 0.03), (0.45, 0.05, 0.35, 0.15),
        (0.60, 0.15, 0.10, 0.15), (0.60, 0.15, 0.10, 0.15)], 0.02)
    language = _pick(rng, n_rows, (0.93, 0.07))
    legal = _conditional(rng, agency, [
        (0.85, 0.05, 0.05, 0.05), (0.10, 0.55, 0.30, 0.05),
        (0.40, 0.35, 0.15, 0.10), (0.40, 0.35, 0.15, 0.10)], 0.02)
    custody = _conditional(rng, legal, [
        (0.35, 0.50, 0.03, 0.12), (0.45, 0.05, 0.35, 0.15),
        (0.30, 0.05, 0.55, 0.10), (0.25, 0.25, 0.25, 0.25)], 0.02)
    kind = _pick(rng, n_rows, (0.82, 0.18))
    charge = _conditional(rng, age, [
        (0.68, 0.32), (0.64, 0.36), (0.55, 0.45), (0.55, 0.45)], 0.02)
    scale = _pick(rng, n_rows, (0.33, 0.34, 0.33))  # DisplayText = f(scale)
    decile = _conditional(rng, race * 4 + age, _decile_table(), 0.02)
    score = np.searchsorted([4, 7], decile, side="right")  # 1-4, 5-7, 8-10
    level = _noisy(rng, np.searchsorted([3, 6, 8], decile, side="right"),
                   4, 0.05)  # RecSupervisionLevelText = f(level)
    columns = [
        ("Sex", _SEX, sex), ("Age", _AGE, age), ("Race", _RACE, race),
        ("MaritalStatus", _MARITAL, marital),
        ("Agency", ("PRETRIAL", "Probation", "DRRD", "Broward County"),
         agency),
        ("AssessmentReason",
         ("Intake", "Pretrial Release", "Violation", "Review"), reason),
        ("Language", ("English", "Spanish"), language),
        ("LegalStatus",
         ("Pretrial", "Post Sentence", "Probation Violator", "Other"), legal),
        ("CustodyStatus", ("Jail Inmate", "Pretrial Defendant", "Probation",
                           "Released"), custody),
        ("AssessmentType", ("New", "Reassessment"), kind),
        ("ChargeDegree", ("Felony", "Misdemeanor"), charge),
        ("Scale_ID", _SCALE, scale), ("DisplayText", _DISPLAY, scale),
        ("DecileScore", _DECILE, decile),
        ("ScoreText", ("Low", "Medium", "High"), score),
        ("RecSupervisionLevel", ("1", "2", "3", "4"), level),
        ("RecSupervisionLevelText", _SUPERVISION_TEXT, level),
    ]
    names = tuple(name for name, _, _ in columns)
    domains = tuple(values for _, values, _ in columns)
    codes = np.stack([c for _, _, c in columns], axis=1).astype(np.int32)
    return names, domains, codes


def csv_text(names, domains, codes) -> str:
    """The relation as CSV text with a header row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    lookup = [np.asarray(values, dtype=object) for values in domains]
    writer.writerows(
        zip(*(lookup[j][codes[:, j]] for j in range(len(names)))))
    return out.getvalue()


def rows_as_dicts(names, domains, codes):
    """Rows as ``{attribute: value}`` objects (the update wire shape)."""
    return [
        {name: domains[j][code] for j, (name, code) in
         enumerate(zip(names, row))}
        for row in codes.tolist()
    ]


# -- patterns ------------------------------------------------------------------


def sample_patterns(rng, names, domains, codes, n, *, max_arity,
                    range_share):
    """``n`` distinct patterns, each bound to values of one sampled row
    (so its true count is at least 1).  A range binding picks an operator
    whose bound the row's own value satisfies."""
    seen, patterns = set(), []
    n_rows, n_attrs = codes.shape
    while len(patterns) < n:
        row = codes[rng.integers(n_rows)]
        arity = int(rng.integers(1, max_arity + 1))
        attrs = sorted(rng.choice(n_attrs, arity, replace=False).tolist())
        pattern = {}
        for position, j in enumerate(attrs):
            value = domains[j][row[j]]
            if position == 0 and rng.random() < range_share:
                op = (">=", "<=", ">", "<")[int(rng.integers(4))]
                bounds = [v for v in domains[j] if OPS[op](value, v)]
                if bounds:
                    pattern[names[j]] = {op: bounds[int(
                        rng.integers(len(bounds)))]}
                    continue
            pattern[names[j]] = value
        key = repr(sorted(pattern.items()))
        if key not in seen:
            seen.add(key)
            patterns.append(pattern)
    return patterns


def _allowed(values, spec):
    """Codes of ``values`` that satisfy one binding."""
    if isinstance(spec, dict):
        ((op, bound),) = spec.items()
        return [c for c, v in enumerate(values) if OPS[op](v, bound)]
    return [values.index(spec)]


def count(patterns, names, domains, codes):
    """Exact count of every pattern by a scan over per-value row bitsets."""
    index = {name: j for j, name in enumerate(names)}
    pad = -len(codes) % 64
    bitsets = [
        [np.packbits(np.concatenate([codes[:, j] == c, np.zeros(pad, bool)])
                     ).view(np.uint64) for c in range(len(values))]
        for j, values in enumerate(domains)
    ]
    counts = []
    for pattern in patterns:
        mask = None
        for name, spec in pattern.items():
            j = index[name]
            hit = np.bitwise_or.reduce(
                [bitsets[j][c] for c in _allowed(domains[j], spec)])
            mask = hit if mask is None else mask & hit
        counts.append(int(np.bitwise_count(mask).sum()))
    return counts


def error_summary(estimates, truths):
    """``(max absolute error, mean q-error)``; q-error clamps both sides
    at 1 so empty counts stay finite."""
    est = np.asarray(estimates, dtype=float)
    true = np.asarray(truths, dtype=float)
    a, b = np.maximum(est, 1.0), np.maximum(true, 1.0)
    return float(np.abs(est - true).max()), float(
        (np.maximum(a, b) / np.minimum(a, b)).mean())
