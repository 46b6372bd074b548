"""The experiment registry: every paper table and figure, plus the
ablations and extensions, as one campaign each.

``CAMPAIGNS`` maps each experiment id to a zero-argument factory with
the defaults EXPERIMENTS.md uses. A factory returns a
:class:`~repro.campaign.Campaign` whose ``aggregate(values, metrics)``
builds the experiment's Table or Series, or, for a multi-round
experiment, a :class:`~repro.campaign.TrialSource` whose
``aggregate(stream, metrics)`` folds the drained stream.
:func:`run_experiment` runs any entry; ``repro run``, ``repro campaign``,
``run-all`` and ``scripts/`` (EXPERIMENTS.md and its claim checks among
them) all go through it, so a trial store is shared by every entry point.
"""

from . import (
    ablations,
    extensions,
    fig01_launch_costs,
    fig02_sel_current_trace,
    fig05_current_correlation,
    fig10_misdetection,
    fig11_emr_runtime,
    fig12_input_size,
    fig13_replication_sweep,
    fig14_energy,
    fig_hmr_frontier,
    table2_ild_accuracy,
    table3_ild_overhead,
    table4_protected_area,
    table5_workloads,
    table6_breakdown,
    table7_adaptive,
    table7_fault_injection,
    table8_dev_overhead,
)

#: experiment id -> zero-argument factory, in EXPERIMENTS.md order.
CAMPAIGNS = {
    "fig1": fig01_launch_costs.campaign,
    "fig2": fig02_sel_current_trace.campaign,
    "fig5": fig05_current_correlation.campaign,
    "table2": table2_ild_accuracy.campaign,
    "fig10": fig10_misdetection.campaign,
    "table3": table3_ild_overhead.campaign,
    "table4": table4_protected_area.campaign,
    "table5": table5_workloads.campaign,
    "fig11": fig11_emr_runtime.campaign,
    "fig12": fig12_input_size.campaign,
    "table6": table6_breakdown.campaign,
    "fig13": fig13_replication_sweep.campaign,
    "fig14": fig14_energy.campaign,
    "table7": table7_fault_injection.campaign,
    "table8": table8_dev_overhead.campaign,
    "hmr_frontier": fig_hmr_frontier.campaign,
    "ablation:scheduling_order": ablations.scheduling_order_campaign,
    "ablation:rolling_window": ablations.rolling_window_campaign,
    "ablation:bubble_cadence": ablations.bubble_cadence_campaign,
    "ablation:redundancy_level": ablations.redundancy_level_campaign,
    "extension:checksum_comparison": extensions.checksum_comparison_campaign,
    "extension:physics_rates": extensions.physics_rates_campaign,
    "extension:flightsw_ild": extensions.flightsw_ild_campaign,
    "extension:feature_selection": extensions.feature_selection_campaign,
    "extension:mission_survival": extensions.mission_survival_campaign,
    "extension:adaptive_table7": table7_adaptive.source,
}


def run_experiment(entry, **kwargs):
    """Drain one registry entry and fold it: ``(stream, report)``.

    A campaign drains as its :class:`~repro.campaign.GridSource`.
    ``kwargs`` go to :func:`~repro.campaign.execute_stream`
    (``workers``, ``store``, ``trace_path``, ``metrics``,
    ``supervision``, ``pool``, ...); ``metrics`` also reaches the
    aggregate. ``report`` is ``None`` when supervision quarantined a
    trial: an aggregate over missing values means nothing.
    """
    from ..campaign import Campaign, GridSource, execute_stream

    source = GridSource(entry) if isinstance(entry, Campaign) else entry
    stream = execute_stream(source, **kwargs)
    if stream.quarantined:
        return stream, None
    return stream, source.aggregate(stream, kwargs.get("metrics"))
