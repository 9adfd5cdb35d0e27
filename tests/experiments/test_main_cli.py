"""The `python -m repro.experiments` command-line interface."""

import pytest

from repro.experiments.__main__ import _kwargs_for, build_argument_parser, main


def test_parser_accepts_all_figures():
    parser = build_argument_parser()
    for name in ("fig2", "fig3", "fig9", "sat", "all"):
        assert parser.parse_args([name]).figure == name


def test_parser_rejects_unknown_figure():
    parser = build_argument_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig99"])


def test_kwargs_routing_orders_only_for_order_figures():
    parser = build_argument_parser()
    args = parser.parse_args(["fig4", "--orders", "8", "10"])
    assert _kwargs_for("fig4", args)["orders"] == [8, 10]
    assert "orders" not in _kwargs_for("fig3", args)


def test_kwargs_routing_densities():
    parser = build_argument_parser()
    args = parser.parse_args(["fig3", "--densities", "1.0", "2.0"])
    assert _kwargs_for("fig3", args)["densities"] == [1.0, 2.0]
    assert "densities" not in _kwargs_for("fig4", args)


def test_kwargs_fig2_ignores_execution_flags():
    parser = build_argument_parser()
    args = parser.parse_args(
        ["fig2", "--budget-seconds", "1", "--free-fraction", "0.2", "--via-sql"]
    )
    kwargs = _kwargs_for("fig2", args)
    assert "budget_seconds" not in kwargs
    assert "free_fraction" not in kwargs
    assert "via_sql" not in kwargs


def test_kwargs_routing_engine_and_jobs():
    parser = build_argument_parser()
    args = parser.parse_args(
        ["fig6", "--engine", "compiled", "--jobs", "2",
         "--cell-timeout-seconds", "30"]
    )
    kwargs = _kwargs_for("fig6", args)
    assert kwargs["engine"] == "compiled"
    assert kwargs["jobs"] == 2
    assert kwargs["cell_timeout_seconds"] == 30.0
    # fig2 has no execution layer, so none of the three apply.
    assert "engine" not in _kwargs_for("fig2", args)
    assert "jobs" not in _kwargs_for("fig2", args)


def test_parser_rejects_unknown_engine():
    parser = build_argument_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig6", "--engine", "jitted"])


def test_main_json_output(capsys):
    import json

    exit_code = main(
        ["fig3", "--seeds", "1", "--densities", "1.0", "--json"]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-series/1"
    assert payload["name"] == "fig3_density_boolean"
    assert payload["cells"]


def test_main_compiled_engine_matches_interpreted(capsys):
    import json

    flags = ["fig3", "--seeds", "1", "--densities", "1.0", "--json"]
    assert main(flags) == 0
    interpreted = json.loads(capsys.readouterr().out)
    assert main(flags + ["--engine", "compiled"]) == 0
    compiled = json.loads(capsys.readouterr().out)

    def strip(payload):
        return [
            {k: v for k, v in cell.items() if k != "median_seconds"}
            for cell in payload["cells"]
        ]

    assert strip(compiled) == strip(interpreted)


def test_main_runs_tiny_figure(capsys):
    exit_code = main(
        ["fig3", "--seeds", "1", "--densities", "1.0", "--summary"]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "fig3_density_boolean" in out
    assert "winner per" in out


def test_main_runs_fig2(capsys):
    exit_code = main(["fig2", "--seeds", "1", "--densities", "1.0", "2.0"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "fig2_compile" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["fig6", "--seeds", "0"],
        ["fig6", "--seeds", "-2"],
        ["fig6", "--budget-seconds", "-1"],
        ["fig6", "--budget-seconds", "0"],
        ["fig6", "--cell-timeout-seconds", "0"],
        ["fig6", "--jobs", "-1"],
        ["fig6", "--jobs", "0"],
        ["fig5", "--orders", "8"],  # 48 edges do not fit on 8 vertices
    ],
)
def test_out_of_range_settings_are_usage_errors(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_kwargs_routing_follows_each_builders_signature():
    parser = build_argument_parser()
    args = parser.parse_args(
        ["orders", "--orders", "4", "6", "--free-fraction", "0.2",
         "--engine", "vectorized", "--jobs", "2", "--via-sql"]
    )
    assert _kwargs_for("rewrite", args) == {"orders": [4, 6], "engine": "vectorized"}
    assert _kwargs_for("joins", args) == {"orders": [4, 6]}
    assert "orders" not in _kwargs_for("yannakakis", args)
    assert _kwargs_for("yannakakis", args)["via_sql"] is True
