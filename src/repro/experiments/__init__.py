"""Experiment harness: runners, per-figure series builders, reporting.

``python -m repro.experiments <figure>`` regenerates any figure's table
from the command line; the :data:`~repro.experiments.figures.FIGURES`
registry maps figure names to builders.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "run_method": "runner",
        "run_cell": "runner",
        "MethodRun": "runner",
        "CellResult": "runner",
        "Series": "runner",
        "aggregate_runs": "runner",
        "BudgetTracker": "runner",
        "EXECUTION_METHODS": "figures",
        "FIGURES": "figures",
        "fig2_compile": "figures",
        "fig3_density": "figures",
        "fig4_order_low_density": "figures",
        "fig5_order_high_density": "figures",
        "fig6_augmented_path": "figures",
        "fig7_ladder": "figures",
        "fig8_augmented_ladder": "figures",
        "fig9_augmented_circular_ladder": "figures",
        "sat_scaling": "figures",
        "relation_size_scaling": "figures",
        "mediator_chain_scaling": "figures",
        "yannakakis_broken_chain": "figures",
        "ablation_orders": "figures",
        "ablation_joins": "figures",
        "ablation_distinct": "figures",
        "ablation_minibuckets": "figures",
        "ablation_rewrite": "figures",
        "format_table": "report",
        "format_report": "report",
        "series_to_json": "report",
        "dominance_summary": "report",
    },
)
