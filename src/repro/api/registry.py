"""String-keyed registries for estimators and search strategies.

The repository grew seven estimator backends and five label-search
strategies, each with its own constructor incantation.  The registries
flatten that into two uniform calls:

* :func:`make_estimator(name, source, **params)
  <make_estimator>` — resolve ``name`` and build the backend from either
  a dataset (the *producer* side: the backend profiles the data) or a
  deserialized artifact (the *consumer* side: estimation without data
  access).  Every backend satisfies the
  :class:`~repro.baselines.base.CardinalityEstimator` protocol; those
  with a vectorized path additionally satisfy
  :class:`~repro.baselines.base.TabularEstimator`.
* :func:`make_strategy(name, **config) <make_strategy>` — resolve a
  label-construction strategy with its config validated against a
  dataclass (unknown or mistyped options fail with the list of valid
  fields, not deep inside the search).

Both registries are open: :func:`register_estimator` and
:func:`register_strategy` accept new entries so deployments can plug in
their own backends (a sharded store, a learned estimator, ...) without
touching this package.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.api.artifacts import MultiLabelBundle
from repro.api.errors import RegistryError
from repro.baselines.base import CardinalityEstimator, TabularEstimator
from repro.core.counts import PatternCounter
from repro.core.sharding import make_counter
from repro.core.errors import ErrorSummary, Objective
from repro.core.estimator import LabelEstimator, MultiLabelEstimator
from repro.core.flexlabel import (
    FlexibleEstimator,
    FlexibleLabel,
    greedy_flexible_label,
)
from repro.core.label import Label, build_label
from repro.core.patternsets import PatternSet
from repro.core.search import (
    SearchResult,
    anytime_search,
    beam_search,
    naive_search,
    top_down_search,
)
from repro.dataset.table import Dataset

__all__ = [
    "EstimatorSpec",
    "register_estimator",
    "registered_estimators",
    "estimator_spec",
    "make_estimator",
    "estimate_many",
    "FittedLabel",
    "StrategySpec",
    "NaiveConfig",
    "TopDownConfig",
    "BeamConfig",
    "AnytimeConfig",
    "GreedyFlexibleConfig",
    "StreamConfig",
    "register_strategy",
    "registered_strategies",
    "strategy_spec",
    "make_strategy",
    "Strategy",
]

_DEFAULT_BOUND = 50


def _normalize(name: str) -> str:
    return name.strip().lower().replace("-", "_")


def _counter_of(source: Dataset | PatternCounter) -> PatternCounter:
    """Resolve the counter for a data-profiling factory.

    Thin registry-flavored wrapper over
    :func:`repro.core.sharding.make_counter`: counters pass through, a
    dataset (or iterable of chunk datasets) is wrapped, and unbuildable
    sources fail with a :class:`RegistryError` instead of a bare
    ``TypeError``.
    """
    try:
        return make_counter(source)
    except (TypeError, ValueError) as exc:
        raise RegistryError(
            f"this estimator profiles data: expected a Dataset, a "
            f"counter, or an iterable of Datasets — "
            f"{type(source).__name__} cannot be counted ({exc})"
        ) from exc


# -- estimator registry -----------------------------------------------------------


@dataclass(frozen=True)
class EstimatorSpec:
    """One registered estimator backend.

    Attributes
    ----------
    name:
        Registry key (normalized: lowercase, ``_`` for ``-``).
    factory:
        ``factory(source, **params) -> CardinalityEstimator``.
    description:
        One line for ``--help`` output and :func:`registered_estimators`.
    needs_data:
        True when the backend can only be built from a dataset (the
        sampling/DBMS baselines); label-backed estimators also accept a
        deserialized artifact.
    """

    name: str
    factory: Callable[..., CardinalityEstimator]
    description: str
    needs_data: bool = True


_ESTIMATORS: dict[str, EstimatorSpec] = {}
_ESTIMATOR_ALIASES: dict[str, str] = {}


def register_estimator(
    name: str,
    factory: Callable[..., CardinalityEstimator],
    *,
    description: str = "",
    needs_data: bool = True,
    aliases: Sequence[str] = (),
    replace: bool = False,
) -> EstimatorSpec:
    """Add an estimator backend to the registry.

    Raises
    ------
    RegistryError
        When ``name`` (or an alias) is already taken and ``replace`` is
        false.
    """
    key = _normalize(name)
    if not replace and (key in _ESTIMATORS or key in _ESTIMATOR_ALIASES):
        raise RegistryError(
            f"estimator {name!r} is already registered; pass replace=True "
            "to override"
        )
    spec = EstimatorSpec(
        name=key,
        factory=factory,
        description=description,
        needs_data=needs_data,
    )
    _ESTIMATORS[key] = spec
    for alias in aliases:
        alias_key = _normalize(alias)
        if alias_key == key:
            continue  # normalization already maps the alias to the name
        if not replace and (
            alias_key in _ESTIMATORS or alias_key in _ESTIMATOR_ALIASES
        ):
            raise RegistryError(f"estimator alias {alias!r} is already taken")
        _ESTIMATOR_ALIASES[alias_key] = key
    return spec


def registered_estimators() -> dict[str, EstimatorSpec]:
    """The registered backends, keyed by canonical name."""
    return dict(sorted(_ESTIMATORS.items()))


def estimator_spec(name: str) -> EstimatorSpec:
    """Resolve a registered estimator's spec by name or alias."""
    key = _normalize(name)
    key = _ESTIMATOR_ALIASES.get(key, key)
    try:
        return _ESTIMATORS[key]
    except KeyError:
        raise RegistryError(
            f"unknown estimator {name!r}; registered: "
            f"{', '.join(sorted(_ESTIMATORS))}"
        ) from None


def make_estimator(
    name: str,
    source: Dataset | PatternCounter | Label | FlexibleLabel | MultiLabelBundle,
    **params: Any,
) -> CardinalityEstimator:
    """Build the estimator backend ``name`` from a dataset or artifact.

    Parameters
    ----------
    name:
        A registered backend (``label``, ``flexible``, ``multi_label``,
        ``independence``, ``sampling``, ``dephist``, ``postgres``, or
        anything added via :func:`register_estimator`; ``-`` and ``_``
        are interchangeable).
    source:
        A :class:`~repro.dataset.table.Dataset` /
        :class:`~repro.core.counts.PatternCounter` (the backend profiles
        the data), or — for the label-backed backends — a deserialized
        artifact, in which case no data access happens at all.
    params:
        Backend-specific options; each factory documents its own (e.g.
        ``bound`` for the label backends, ``seed`` for the randomized
        baselines).
    """
    spec = estimator_spec(name)
    if spec.needs_data:
        if isinstance(source, PatternCounter) and source.n_shards > 1:
            # The sampling/DBMS baselines read raw rows (sample, codes),
            # which a multi-shard counter's dataset view does not expose.
            raise RegistryError(
                f"estimator {spec.name!r} needs raw row access and must "
                f"be built from a Dataset (or single-shard counter); a "
                f"{source.n_shards}-shard counter only serves merged counts"
            )
        if not isinstance(source, (Dataset, PatternCounter)):
            raise RegistryError(
                f"estimator {spec.name!r} must be built from a dataset; it "
                f"cannot be reconstructed from a "
                f"{type(source).__name__} artifact"
            )
    try:
        return spec.factory(source, **params)
    except TypeError as exc:
        raise RegistryError(
            f"bad parameters for estimator {spec.name!r}: {exc}"
        ) from exc


def estimate_many(
    estimator: CardinalityEstimator,
    workload: PatternSet | Sequence[Any],
) -> list[float]:
    """Estimates for a workload, batched whenever the backend allows.

    Dispatch order:

    1. a :class:`~repro.core.patternsets.PatternSet` whose patterns share
       one attribute tuple (``is_tabular``) is pushed through the
       backend's ``estimate_codes`` when the backend satisfies
       :class:`~repro.baselines.base.TabularEstimator`;
    2. a backend exposing its own ``estimate_many`` (every label backend
       and — via :class:`~repro.baselines.base.GroupedEstimateMany` —
       every baseline) receives the whole pattern list, so heterogeneous
       workloads still hit the batch kernel;
    3. otherwise, the per-pattern ``estimate`` loop (the scalar reference
       path, kept for minimal third-party backends).
    """
    if isinstance(workload, PatternSet):
        if (
            workload.is_tabular
            and isinstance(estimator, TabularEstimator)
            and workload.attributes is not None
            and workload.combos is not None
        ):
            codes = estimator.estimate_codes(
                workload.attributes, workload.combos
            )
            return [float(v) for v in np.asarray(codes, dtype=np.float64)]
        patterns = [workload.pattern(i) for i in range(len(workload))]
    else:
        patterns = list(workload)
    batched = getattr(estimator, "estimate_many", None)
    if callable(batched):
        return [float(v) for v in batched(patterns)]
    return [float(estimator.estimate(p)) for p in patterns]


# -- built-in estimator factories -------------------------------------------------


def _label_factory(
    source: Dataset | PatternCounter | Label,
    *,
    bound: int = _DEFAULT_BOUND,
    attributes: Sequence[str] | None = None,
    pattern_set: PatternSet | None = None,
    objective: Objective = Objective.MAX_ABS,
    algorithm: str = "top_down",
    seed: int | None = None,  # accepted for uniformity; the search is
    # deterministic
) -> LabelEstimator:
    """``label``: the paper's subset label ``L_S(D)``.

    From an artifact: wraps the label directly.  From data: builds
    ``L_S(D)`` for ``attributes`` when given, else runs the search
    strategy named by ``algorithm`` (resolved through the strategy
    registry, so registered strategies that produce subset labels work
    here too) under ``bound``.  Pass a sharded counter
    (:func:`repro.core.sharding.make_counter`) to count over shards.
    """
    if isinstance(source, Label):
        return LabelEstimator(source)
    counter = _counter_of(source)
    if attributes is not None:
        return LabelEstimator(build_label(counter, attributes))
    fitted = make_strategy(algorithm).fit(
        counter, bound, pattern_set=pattern_set, objective=objective
    )
    if not isinstance(fitted.artifact, Label):
        raise RegistryError(
            f"strategy {algorithm!r} produces a {fitted.kind!r} artifact, "
            "not a subset label; use make_estimator('flexible', ...) for it"
        )
    return LabelEstimator(fitted.artifact)


def _flexible_factory(
    source: Dataset | PatternCounter | FlexibleLabel,
    *,
    bound: int = _DEFAULT_BOUND,
    pattern_set: PatternSet | None = None,
    max_arity: int | None = None,
    seed: int | None = None,  # accepted for uniformity; greedy is deterministic
) -> FlexibleEstimator:
    """``flexible``: overlapping pattern counts (Section II-C extension)."""
    if isinstance(source, FlexibleLabel):
        return FlexibleEstimator(source)
    counter = _counter_of(source)
    label = greedy_flexible_label(
        counter, bound, pattern_set=pattern_set, max_arity=max_arity
    )
    return FlexibleEstimator(label)


def _multi_label_factory(
    source: Dataset | PatternCounter | MultiLabelBundle | Sequence[Label],
    *,
    bound: int = _DEFAULT_BOUND,
    subsets: Sequence[Sequence[str]] | None = None,
    n_labels: int = 2,
    reduce: str = "median",
    pattern_set: PatternSet | None = None,
    seed: int | None = None,  # accepted for uniformity; deterministic
) -> MultiLabelEstimator:
    """``multi_label``: combine several labels of one dataset.

    From an artifact bundle (or a plain sequence of labels): wraps them
    directly.  From data: builds one label per subset in ``subsets``, or
    — when not given — the search winner plus up to ``n_labels - 1``
    further antichain candidates from the same run.
    """
    if isinstance(source, MultiLabelBundle):
        return source.make_estimator()
    if isinstance(source, Sequence) and source and all(
        isinstance(item, Label) for item in source
    ):
        return MultiLabelEstimator(list(source), reduce=reduce)
    counter = _counter_of(source)
    if subsets is None:
        result = top_down_search(counter, bound, pattern_set=pattern_set)
        chosen: list[tuple[str, ...]] = [result.attributes]
        for candidate in result.candidates:
            if len(chosen) >= max(1, n_labels):
                break
            if candidate != result.attributes:
                chosen.append(candidate)
        subsets = chosen
    labels = [build_label(counter, tuple(subset)) for subset in subsets]
    return MultiLabelEstimator(labels, reduce=reduce)


def _independence_factory(
    source: Dataset | PatternCounter,
    *,
    bound: int | None = None,  # accepted for uniformity; |VC| is fixed
    seed: int | None = None,
) -> CardinalityEstimator:
    """``independence``: value counts only (Example 2.6 strawman)."""
    from repro.baselines.independence import IndependenceEstimator

    return IndependenceEstimator(_counter_of(source).dataset)


def _sampling_factory(
    source: Dataset | PatternCounter,
    *,
    bound: int = _DEFAULT_BOUND,
    sample_size: int | None = None,
    seed: int = 0,
) -> CardinalityEstimator:
    """``sampling``: uniform sample sized ``bound + |VC|`` (Section IV-A)."""
    from repro.baselines.sampling import SamplingEstimator, sample_size_for_bound

    dataset = _counter_of(source).dataset
    if sample_size is None:
        sample_size = sample_size_for_bound(dataset, bound)
    return SamplingEstimator(
        dataset, sample_size, np.random.default_rng(seed)
    )


def _dephist_factory(
    source: Dataset | PatternCounter,
    *,
    bound: int | None = None,  # accepted for uniformity; tree size is fixed
    seed: int | None = None,
) -> CardinalityEstimator:
    """``dephist``: Chow–Liu tree of 2-D count tables."""
    try:
        import networkx  # noqa: F401
    except ImportError:
        raise RegistryError(
            "estimator 'dephist' requires the optional dependency "
            "'networkx', which is not installed"
        ) from None
    from repro.baselines.dephist import DependencyTreeEstimator

    return DependencyTreeEstimator(_counter_of(source).dataset)


def _postgres_factory(
    source: Dataset | PatternCounter,
    *,
    seed: int = 0,
    statistics_target: int | None = None,
    bound: int | None = None,  # accepted for uniformity; pg_statistic
    # space depends on statistics_target, not the label budget
) -> CardinalityEstimator:
    """``postgres``: simulated ``pg_statistic`` selectivity estimation."""
    from repro.baselines.postgres import (
        DEFAULT_STATISTICS_TARGET,
        PostgresEstimator,
    )

    return PostgresEstimator(
        _counter_of(source).dataset,
        np.random.default_rng(seed),
        statistics_target=(
            DEFAULT_STATISTICS_TARGET
            if statistics_target is None
            else statistics_target
        ),
    )


register_estimator(
    "label",
    _label_factory,
    description="subset label L_S(D) + Est(p, l) (the paper's PCBL)",
    needs_data=False,
    aliases=("pcbl",),
)
register_estimator(
    "flexible",
    _flexible_factory,
    description="overlapping pattern counts (Section II-C extension)",
    needs_data=False,
)
register_estimator(
    "multi_label",
    _multi_label_factory,
    description="combine estimates from several labels",
    needs_data=False,
    aliases=("multi",),
)
register_estimator(
    "independence",
    _independence_factory,
    description="value counts only, full independence (Example 2.6)",
)
register_estimator(
    "sampling",
    _sampling_factory,
    description="space-equalized uniform sample (Section IV-A baseline)",
)
register_estimator(
    "dephist",
    _dephist_factory,
    description="Chow-Liu dependency tree of pairwise count tables",
)
register_estimator(
    "postgres",
    _postgres_factory,
    description="simulated pg_statistic equality selectivity",
)


# -- search-strategy registry -----------------------------------------------------


@dataclass(frozen=True)
class FittedLabel:
    """What a strategy produces: the artifact plus optional search stats."""

    artifact: Label | FlexibleLabel
    search: SearchResult | None = None

    @property
    def kind(self) -> str:
        """Artifact kind — matches the serialization envelope's ``kind``."""
        return "label" if isinstance(self.artifact, Label) else "flexible"

    @property
    def summary(self) -> ErrorSummary | None:
        """The fit-time error summary, when the strategy evaluated one."""
        return self.search.summary if self.search is not None else None


@dataclass(frozen=True)
class NaiveConfig:
    """Options of the level-wise exhaustive search."""

    min_size: int = 2
    max_size: int | None = None
    time_limit_seconds: float | None = None


@dataclass(frozen=True)
class TopDownConfig:
    """Options of Algorithm 1 (top-down lattice traversal)."""

    prune_parents: bool = True
    time_limit_seconds: float | None = None


@dataclass(frozen=True)
class BeamConfig:
    """Options of the width-limited best-first beam search.

    ``beam_width=None`` lifts the width limit, making the beam
    exhaustive (identical winners to ``naive``).
    """

    beam_width: int | None = None
    min_size: int = 2
    max_size: int | None = None
    time_limit_seconds: float | None = None


@dataclass(frozen=True)
class AnytimeConfig:
    """Options of the budgeted best-first anytime search.

    The budget — ``time_limit_seconds`` wall-clock and/or
    ``max_candidates`` evaluations — degrades the answer instead of
    raising: the best label found so far is returned with
    ``SearchResult.is_exact`` False.
    """

    time_limit_seconds: float | None = None
    max_candidates: int | None = None


@dataclass(frozen=True)
class GreedyFlexibleConfig:
    """Options of the greedy flexible-label construction."""

    max_arity: int | None = None


@dataclass(frozen=True)
class StreamConfig:
    """Policy knobs of the streaming ingestion pipeline (``repro.stream``).

    Lives beside the strategy configs so the whole pipeline is
    configured the registry way: a frozen, validated dataclass that
    ``LabelingSession.stream()`` and ``repro serve --stream`` both
    accept.  ``None`` disables the corresponding trigger.

    * ``compact_every`` / ``compact_min_rows`` — fold the accumulated
      insert-shard tail back into the base counter after this many tail
      shards / tail rows (whichever trips first; the compaction itself
      runs on a background thread, off the reader path).
    * ``pack_dir`` — checkpoint each compaction as a ``repro-pack/1``
      directory and truncate the WAL through the checkpointed batch.
    * ``drift_threshold`` — flag the maintained label stale when its
      max error per row over the drift panel exceeds this factor of the
      baseline (the first check on the panel); staleness kicks off an
      ``anytime`` re-search under ``research_budget_seconds`` wall-clock
      on a background thread.
    * ``drift_check_every`` / ``drift_sample`` — check cadence (batches
      between checks) and panel size: the number of tuple-sampled
      patterns drawn once per start-up or re-search and recounted at
      every check.
    * ``research_bound`` — ``|PC|`` budget of the re-search; ``None``
      re-uses the current label's size (always feasible: the current
      subset witnesses its own bound).
    * ``fsync`` — fsync every WAL append (durability vs throughput; the
      bench flips this off to time the in-memory path).
    """

    compact_every: int | None = 16
    compact_min_rows: int | None = None
    pack_dir: str | None = None
    drift_threshold: float | None = 4.0
    drift_check_every: int = 8
    drift_sample: int = 256
    research_budget_seconds: float = 5.0
    research_bound: int | None = None
    fsync: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.compact_every is not None and self.compact_every < 1:
            raise RegistryError("compact_every must be >= 1 (or None)")
        if self.compact_min_rows is not None and self.compact_min_rows < 1:
            raise RegistryError("compact_min_rows must be >= 1 (or None)")
        if self.drift_threshold is not None and self.drift_threshold < 1.0:
            raise RegistryError("drift_threshold must be >= 1 (or None)")
        if self.drift_check_every < 1:
            raise RegistryError("drift_check_every must be >= 1")
        if self.drift_sample < 1:
            raise RegistryError("drift_sample must be >= 1")
        if self.research_budget_seconds <= 0:
            raise RegistryError("research_budget_seconds must be > 0")
        if self.research_bound is not None and self.research_bound < 1:
            raise RegistryError("research_bound must be >= 1 (or None)")


@dataclass(frozen=True)
class StrategySpec:
    """One registered search strategy.

    ``produces_search`` declares whether the runner's ``FittedLabel``
    carries a :class:`~repro.core.search.SearchResult` — what
    :func:`~repro.core.search.find_optimal_label` returns.  Strategies
    that construct artifacts without a subset search (e.g.
    ``greedy_flexible``) register False so the front door can reject
    them *before* paying for a full fit.
    """

    name: str
    config_cls: type
    runner: Callable[..., FittedLabel]
    description: str
    produces_search: bool = True


_STRATEGIES: dict[str, StrategySpec] = {}
_STRATEGY_ALIASES: dict[str, str] = {}


def register_strategy(
    name: str,
    runner: Callable[..., FittedLabel],
    *,
    config_cls: type,
    description: str = "",
    produces_search: bool = True,
    aliases: Sequence[str] = (),
    replace: bool = False,
) -> StrategySpec:
    """Add a label-construction strategy to the registry.

    ``runner(counter, bound, pattern_set, objective, config)`` must
    return a :class:`FittedLabel`; ``config_cls`` must be a dataclass —
    it is what validates the keyword options of :func:`make_strategy`.
    Pass ``produces_search=False`` for strategies whose ``FittedLabel``
    carries no ``SearchResult`` (see :class:`StrategySpec`).
    """
    if not dataclasses.is_dataclass(config_cls):
        raise RegistryError(
            f"config_cls for strategy {name!r} must be a dataclass"
        )
    key = _normalize(name)
    if not replace and (key in _STRATEGIES or key in _STRATEGY_ALIASES):
        raise RegistryError(
            f"strategy {name!r} is already registered; pass replace=True "
            "to override"
        )
    spec = StrategySpec(
        name=key,
        config_cls=config_cls,
        runner=runner,
        description=description,
        produces_search=produces_search,
    )
    _STRATEGIES[key] = spec
    for alias in aliases:
        alias_key = _normalize(alias)
        if alias_key == key:
            continue  # normalization already maps the alias to the name
        if not replace and (
            alias_key in _STRATEGIES or alias_key in _STRATEGY_ALIASES
        ):
            raise RegistryError(f"strategy alias {alias!r} is already taken")
        _STRATEGY_ALIASES[alias_key] = key
    return spec


def registered_strategies() -> dict[str, StrategySpec]:
    """The registered strategies, keyed by canonical name."""
    return dict(sorted(_STRATEGIES.items()))


def strategy_spec(name: str) -> StrategySpec:
    """Resolve a registered strategy's spec by name or alias."""
    return _resolve_strategy(name)


def _resolve_strategy(name: str) -> StrategySpec:
    key = _normalize(name)
    key = _STRATEGY_ALIASES.get(key, key)
    try:
        return _STRATEGIES[key]
    except KeyError:
        raise RegistryError(
            f"unknown strategy {name!r}; registered: "
            f"{', '.join(sorted(_STRATEGIES))}"
        ) from None


@dataclass(frozen=True)
class Strategy:
    """A resolved strategy bound to a validated config."""

    spec: StrategySpec
    config: Any

    @property
    def name(self) -> str:
        return self.spec.name

    def fit(
        self,
        source: Dataset | PatternCounter,
        bound: int,
        *,
        pattern_set: PatternSet | None = None,
        objective: Objective = Objective.MAX_ABS,
    ) -> FittedLabel:
        """Run the strategy on ``source`` under the size budget ``bound``.

        A bare dataset is wrapped in a single-shard counter; counters
        (of any shard count — see :func:`repro.core.sharding.make_counter`)
        are used as-is.
        """
        counter = _counter_of(source)
        return self.spec.runner(
            counter, bound, pattern_set, objective, self.config
        )


def make_strategy(name: str, **config: Any) -> Strategy:
    """Resolve strategy ``name`` with config validated by its dataclass.

    Raises
    ------
    RegistryError
        Unknown strategy name, or a config key the strategy's dataclass
        does not declare (the message lists the valid fields).
    """
    spec = _resolve_strategy(name)
    valid = {f.name for f in dataclasses.fields(spec.config_cls)}
    unknown = set(config) - valid
    if unknown:
        raise RegistryError(
            f"strategy {spec.name!r} does not accept "
            f"{sorted(unknown)}; valid options: {sorted(valid) or 'none'}"
        )
    return Strategy(spec=spec, config=spec.config_cls(**config))


# -- built-in strategy runners ----------------------------------------------------


def _run_naive(
    counter: PatternCounter,
    bound: int,
    pattern_set: PatternSet | None,
    objective: Objective,
    config: NaiveConfig,
) -> FittedLabel:
    result = naive_search(
        counter,
        bound,
        pattern_set=pattern_set,
        objective=objective,
        min_size=config.min_size,
        max_size=config.max_size,
        time_limit_seconds=config.time_limit_seconds,
    )
    return FittedLabel(artifact=result.label, search=result)


def _run_top_down(
    counter: PatternCounter,
    bound: int,
    pattern_set: PatternSet | None,
    objective: Objective,
    config: TopDownConfig,
) -> FittedLabel:
    result = top_down_search(
        counter,
        bound,
        pattern_set=pattern_set,
        objective=objective,
        prune_parents=config.prune_parents,
        time_limit_seconds=config.time_limit_seconds,
    )
    return FittedLabel(artifact=result.label, search=result)


def _run_beam(
    counter: PatternCounter,
    bound: int,
    pattern_set: PatternSet | None,
    objective: Objective,
    config: BeamConfig,
) -> FittedLabel:
    result = beam_search(
        counter,
        bound,
        pattern_set=pattern_set,
        objective=objective,
        beam_width=config.beam_width,
        min_size=config.min_size,
        max_size=config.max_size,
        time_limit_seconds=config.time_limit_seconds,
    )
    return FittedLabel(artifact=result.label, search=result)


def _run_anytime(
    counter: PatternCounter,
    bound: int,
    pattern_set: PatternSet | None,
    objective: Objective,
    config: AnytimeConfig,
) -> FittedLabel:
    result = anytime_search(
        counter,
        bound,
        pattern_set=pattern_set,
        objective=objective,
        time_limit_seconds=config.time_limit_seconds,
        max_candidates=config.max_candidates,
    )
    return FittedLabel(artifact=result.label, search=result)


def _run_greedy_flexible(
    counter: PatternCounter,
    bound: int,
    pattern_set: PatternSet | None,
    objective: Objective,
    config: GreedyFlexibleConfig,
) -> FittedLabel:
    label = greedy_flexible_label(
        counter, bound, pattern_set=pattern_set, max_arity=config.max_arity
    )
    return FittedLabel(artifact=label, search=None)


register_strategy(
    "naive",
    _run_naive,
    config_cls=NaiveConfig,
    description="level-wise exhaustive search (Section III baseline)",
)
register_strategy(
    "top_down",
    _run_top_down,
    config_cls=TopDownConfig,
    description="Algorithm 1: top-down lattice traversal with pruning",
    aliases=("top-down",),
)
register_strategy(
    "beam",
    _run_beam,
    config_cls=BeamConfig,
    description="width-limited best-first frontier (exhaustive when "
    "beam_width is unset)",
)
register_strategy(
    "anytime",
    _run_anytime,
    config_cls=AnytimeConfig,
    description="budgeted best-first search; always returns the best "
    "label found so far",
)
register_strategy(
    "greedy_flexible",
    _run_greedy_flexible,
    config_cls=GreedyFlexibleConfig,
    description="greedy overlapping-pattern label (Section II-C extension)",
    produces_search=False,
    aliases=("flexible",),
)
