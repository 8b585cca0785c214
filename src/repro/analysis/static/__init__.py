"""Determinism & shared-state sanitizer: static analysis over the source.

The second static-analysis subsystem, beside the flow-rule lint
(:mod:`repro.analysis.lint`): an AST-based pass over ``src/repro/**`` with
a pluggable rule registry emitting ``DET001``-``DET007`` (determinism
hazards: global RNG, OS entropy, wall clocks, hash-ordered escapes) and
``RACE001``-``RACE003`` (shared-state hazards: mutable state that outlives
one run and leaks into the next).  Findings carry severities and fix hints,
can be silenced per site (``# repro: allow[DET003] reason``) or permitted
by a committed baseline (``sancheck-baseline.json``) so CI fails only on
*new* findings.

Its runtime cross-check is :mod:`repro.analysis.static.doublerun`: the
golden-trace scenario matrix executed twice in subprocesses under
different ``PYTHONHASHSEED`` values, with every observable hashed —
hash-order nondeterminism the static pass misses shows up as a digest
mismatch, and static findings explain dynamic mismatches.

Its whole-program sibling is ``smartsouth shardcheck``: a call graph over
the same models (:mod:`repro.analysis.static.callgraph`), per-function
effect sets propagated to a fixpoint (:mod:`.effects`), an ownership
manifest naming every runtime object's shard owner (:mod:`.shardmodel`),
and the ``EFF001``-``EFF003`` / ``SHARD001``-``SHARD004`` rule families
(:mod:`.shardrules`) certifying the codebase for the sharded
multi-process simulator, with its own baseline
(``shardcheck-baseline.json``) and the committed per-public-API effect
summary (``shardcheck-effects.json``) as the declared contract.

CLI: ``smartsouth sancheck [--json] [--baseline PATH] [--write-baseline]
[--prune-baseline] [--double-run] [--interprocedural]`` and
``smartsouth shardcheck [--json] [--write-effects] [--min-resolution R]``.
Catalogue and workflow: ``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.static.baseline import (
    BASELINE_NAME,
    SHARD_BASELINE_NAME,
    discover_baseline,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from repro.analysis.static.doublerun import (
    DoubleRunReport,
    double_run,
    scenario_digests,
)
from repro.analysis.static.findings import (
    SAN_RULES,
    SanFinding,
    SanReport,
    SanRule,
    san_rule,
)
from repro.analysis.static.callgraph import ProgramModel, build_program
from repro.analysis.static.effects import EffectTable, build_effect_table
from repro.analysis.static.runner import (
    EFFECTS_NAME,
    SanConfig,
    ShardReport,
    analyze_models,
    analyze_program,
    default_scan_root,
    run_sancheck,
    run_shardcheck,
)
from repro.analysis.static.shardmodel import ShardManifest, default_manifest
from repro.analysis.static.shardrules import IPA_RULES, ipa_rule
from repro.analysis.static.walker import ModuleModel, build_models

__all__ = [
    "BASELINE_NAME",
    "DoubleRunReport",
    "EFFECTS_NAME",
    "EffectTable",
    "IPA_RULES",
    "ModuleModel",
    "ProgramModel",
    "SAN_RULES",
    "SHARD_BASELINE_NAME",
    "SanConfig",
    "SanFinding",
    "SanReport",
    "SanRule",
    "ShardManifest",
    "ShardReport",
    "analyze_models",
    "analyze_program",
    "build_effect_table",
    "build_models",
    "build_program",
    "default_manifest",
    "default_scan_root",
    "discover_baseline",
    "double_run",
    "ipa_rule",
    "load_baseline",
    "prune_baseline",
    "run_sancheck",
    "run_shardcheck",
    "san_rule",
    "scenario_digests",
    "write_baseline",
]
