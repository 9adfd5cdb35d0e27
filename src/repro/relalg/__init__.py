"""In-memory relational-algebra engine (the reproduction's database substrate).

Public surface:

- :class:`~repro.relalg.relation.Relation` — named-column relations, set
  semantics, the full project/rename/select/join/semijoin algebra.
- :class:`~repro.relalg.database.Database` — the catalog, plus
  :func:`~repro.relalg.database.edge_database` (the paper's 6-tuple k-COLOR
  relation).
- :class:`~repro.relalg.engine.Engine` — evaluates :mod:`repro.plans` trees,
  with pluggable join algorithms and work counters.
- :class:`~repro.relalg.compiled.VectorizedEngine` — the compiled
  engine: plans lowered once into fused kernels over dictionary-encoded
  column batches (:mod:`repro.relalg.columnar`), with the same answers
  and logical work counters; :func:`~repro.relalg.compiled.make_engine`
  constructs any backend by name (``compiled`` and ``vectorized`` both
  name this one).
- :class:`~repro.relalg.cache.CacheInfo` — the uniform record every
  engine's ``cache_info()`` returns; mutating a relation through the
  catalog's delta APIs evicts exactly the cached results that depend on
  it (see :mod:`repro.relalg.cache`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Relation": "relation",
        "Database": "database",
        "database_from_tuples": "database",
        "edge_database": "database",
        "Engine": "engine",
        "VectorizedEngine": "compiled",
        "ColumnStore": "columnar",
        "CacheInfo": "cache",
        "clear_interning": "columnar",
        "interning_info": "columnar",
        "ENGINES": "compiled",
        "ENGINE_NAMES": "engine",
        "make_engine": "compiled",
        "DEFAULT_PLAN_CACHE_SIZE": "engine",
        "evaluate": "engine",
        "vectorized_evaluate": "compiled",
        "is_nonempty": "engine",
        "BagEngine": "bag_engine",
        "bag_evaluate": "bag_engine",
        "load_relation": "io",
        "save_relation": "io",
        "load_database": "io",
        "save_database": "io",
        "ExecutionStats": "stats",
        "hash_join": "joins",
        "sort_merge_join": "joins",
        "nested_loop_join": "joins",
        "get_join_algorithm": "joins",
        "JOIN_ALGORITHMS": "joins",
    },
)
