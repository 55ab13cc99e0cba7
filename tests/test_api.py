import agemon

# the whole public surface; a name added to or dropped from agemon.__all__
# must be added to or dropped from this list too
PUBLIC_NAMES = [
    "DecisionRule",
    "EVENT_CAP",
    "EmptyTimelineError",
    "OracleError",
    "ParameterError",
    "PeriodTable",
    "SimParams",
    "SimulationLimitError",
    "SweepSpec",
    "Timeline",
    "analytic_report",
    "aoi_mm1",
    "error_rate_closed_form",
    "failure_prior",
    "map_threshold",
    "mean_aoi_closed_form",
    "monte_carlo_cross_check",
    "pdf_z_given_r2",
    "pdf_z_given_r3",
    "period_table",
    "quadrature_error_rate",
    "region_means_closed_form",
    "render_svg",
    "run_sweep",
    "simulate",
    "summarize",
    "write_csv",
]


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 27
    assert sorted(agemon.__all__) == PUBLIC_NAMES
    assert all(hasattr(agemon, name) for name in PUBLIC_NAMES)
