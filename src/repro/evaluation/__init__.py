"""Evaluation engines: Yannakakis, generic join, cover game, SemAcEval, batch.

Every set-at-a-time engine compiles to the shared physical-operator IR of
:mod:`repro.evaluation.operators` (``Scan`` / ``SemiJoin`` / ``HashJoin`` /
``Project`` / ``Select`` / ``Distinct`` / ``CursorEnumerate``), which runs
on the hash-partitioned :class:`~repro.evaluation.relation.Relation` layer
and records per-operator estimated (statistics-calibrated
:class:`CostModel`) and observed cardinalities — pretty-printed by the
:func:`explain` API.  Every route also has a *streaming* face:
:func:`evaluate_iter` (and :meth:`YannakakisEvaluator.iter_answers`,
:func:`iter_with_plan`, :meth:`BatchEvaluator.evaluate_iter`) yields
distinct answers one at a time instead of materialising the output — the
``LIMIT``-style serving scenarios of the ROADMAP.  The original
assignment-dict Yannakakis is a test-only differential oracle under
``tests/helpers/yannakakis_dict.py`` and is no longer part of this
package's API.

Every operator additionally exposes a *batch* face
(:meth:`~repro.evaluation.operators.Operator.iter_batches`) running over
dictionary-encoded integer columns (:mod:`repro.evaluation.encoding`);
``backend="columnar"`` (or ``REPRO_BACKEND=columnar``) routes any entry
point through it, with the tuple backend kept as the differential oracle.

The batch face's kernels (:mod:`repro.evaluation.parallel`) are
morsel-driven: serial execution runs them with one shard, and
``parallel=`` on any entry point (or ``REPRO_PARALLEL``) hash-shards the
build sides and splits the probe sides into contiguous morsels, with a
deterministic merge keeping the answers bit-identical at every worker
count.

Batches of queries over one database go through :func:`evaluate_batch`
(:mod:`repro.evaluation.batch`), which shares the phase-1 atom scans and
hash partitions across the whole batch via a :class:`ScanCache`; the same
cache can be injected into any single-query entry point through its
``scans=`` parameter.
"""

from .relation import Partition, Relation, ScanProvider, SchemaError
from .encoding import (
    BACKENDS,
    EncodedRelation,
    TermEncoder,
    numpy_enabled,
    resolve_backend,
)
from .operators import (
    BagNode,
    CardinalityEstimate,
    CostModel,
    CursorEnumerate,
    Distinct,
    ExecutionContext,
    HashJoin,
    Operator,
    Project,
    Scan,
    Select,
    SemiJoin,
    Statistics,
    render_plan,
)
from .parallel import (
    PARALLEL_ENV,
    PARALLEL_MIN_ROWS,
    ParallelMeta,
    resolve_parallel,
    shard_counts,
)
from .batch import BatchEvaluator, CacheBindingError, ScanCache, atom_signature
from .yannakakis import (
    AcyclicityRequired,
    YannakakisEvaluator,
    boolean_acyclic,
    evaluate_acyclic,
)
from .generic import boolean_generic, evaluate_generic, membership_generic
from .join_plans import (
    JoinPlan,
    PlanExecution,
    PlanStep,
    PlanTree,
    boolean_with_plan,
    compile_plan,
    estimated_intermediate_sizes,
    evaluate_with_plan,
    execute_plan,
    explain_plan,
    iter_plan_answers,
    iter_with_plan,
    plan_greedy,
    resolve_planner,
)
from .planner_dp import DP_ATOM_LIMIT, DecompositionEvaluator, plan_dp, plan_dp_linear
from .cover_game import (
    CoverEngine,
    CoverGameResult,
    existential_one_cover,
    instance_covers_database,
    query_covers_database,
)
from .cover_game_naive import existential_one_cover_naive
from .semacyclic_eval import (
    NotSemanticallyAcyclic,
    SemAcEvaluation,
    evaluate_batch,
    evaluate_iter,
    evaluate_via_reformulation,
    explain,
    membership_baseline,
    membership_via_chase_and_cover_game_tgds,
    membership_via_cover_game_egds,
    membership_via_cover_game_guarded,
    resolve_route,
    service_enabled,
)

__all__ = [
    "AcyclicityRequired",
    "BACKENDS",
    "BagNode",
    "BatchEvaluator",
    "CacheBindingError",
    "CardinalityEstimate",
    "CostModel",
    "CoverEngine",
    "CoverGameResult",
    "CursorEnumerate",
    "DP_ATOM_LIMIT",
    "DecompositionEvaluator",
    "Distinct",
    "EncodedRelation",
    "ExecutionContext",
    "HashJoin",
    "JoinPlan",
    "NotSemanticallyAcyclic",
    "Operator",
    "PARALLEL_ENV",
    "PARALLEL_MIN_ROWS",
    "ParallelMeta",
    "Partition",
    "PlanExecution",
    "PlanStep",
    "PlanTree",
    "Project",
    "Relation",
    "Scan",
    "ScanCache",
    "ScanProvider",
    "SchemaError",
    "Select",
    "SemAcEvaluation",
    "SemiJoin",
    "Statistics",
    "TermEncoder",
    "YannakakisEvaluator",
    "atom_signature",
    "boolean_acyclic",
    "boolean_generic",
    "boolean_with_plan",
    "compile_plan",
    "estimated_intermediate_sizes",
    "evaluate_acyclic",
    "evaluate_batch",
    "evaluate_generic",
    "evaluate_iter",
    "evaluate_via_reformulation",
    "evaluate_with_plan",
    "execute_plan",
    "existential_one_cover",
    "existential_one_cover_naive",
    "explain",
    "explain_plan",
    "instance_covers_database",
    "iter_plan_answers",
    "iter_with_plan",
    "membership_baseline",
    "membership_generic",
    "membership_via_chase_and_cover_game_tgds",
    "membership_via_cover_game_egds",
    "membership_via_cover_game_guarded",
    "numpy_enabled",
    "plan_dp",
    "plan_dp_linear",
    "plan_greedy",
    "query_covers_database",
    "render_plan",
    "resolve_backend",
    "resolve_parallel",
    "resolve_planner",
    "resolve_route",
    "service_enabled",
    "shard_counts",
]
