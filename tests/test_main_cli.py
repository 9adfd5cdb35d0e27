"""The `python -m repro` command line."""

import pytest

from repro.__main__ import build_argument_parser, main
from repro.relalg.database import edge_database
from repro.relalg.io import save_database

RULE = "q(X) :- edge(X, Y), edge(Y, Z)."


@pytest.fixture
def db_dir(tmp_path):
    save_database(edge_database(), tmp_path / "db")
    return str(tmp_path / "db")


class TestParser:
    def test_subcommands(self):
        parser = build_argument_parser()
        for command in ("plan", "sql", "run", "analyze", "minimize"):
            args = (
                [command, RULE, "--db", "x"]
                if command == "run"
                else [command, RULE]
            )
            assert parser.parse_args(args).command == command

    def test_method_choices(self):
        parser = build_argument_parser()
        args = parser.parse_args(["plan", RULE, "--method", "early"])
        assert args.method == "early"
        with pytest.raises(SystemExit):
            parser.parse_args(["plan", RULE, "--method", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_argument_parser().parse_args([])


class TestCommands:
    def test_plan(self, capsys):
        assert main(["plan", RULE]) == 0
        out = capsys.readouterr().out
        assert "width" in out
        assert "Scan edge" in out

    def test_plan_dot(self, capsys):
        assert main(["plan", RULE, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_sql(self, capsys):
        assert main(["sql", RULE, "--method", "straightforward"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SELECT DISTINCT")
        assert "JOIN" in out

    def test_sql_jointree_falls_back(self, capsys):
        assert main(["sql", RULE, "--method", "jointree"]) == 0
        assert "SELECT" in capsys.readouterr().out

    def test_sql_yannakakis_emits_exists(self, capsys):
        assert main(["sql", RULE, "--method", "yannakakis"]) == 0
        assert "EXISTS" in capsys.readouterr().out

    def test_run(self, capsys, db_dir):
        assert main(["run", RULE, "--db", db_dir]) == 0
        out = capsys.readouterr().out
        assert "3 rows" in out

    @pytest.mark.parametrize("algorithm", ["hash", "sort_merge", "nested_loop"])
    def test_run_join_algorithm_flag(self, capsys, db_dir, algorithm):
        assert main(
            ["run", RULE, "--db", db_dir, "--join-algorithm", algorithm]
        ) == 0
        assert "3 rows" in capsys.readouterr().out

    def test_run_no_plan_cache_flag(self, capsys, db_dir):
        assert main(["run", RULE, "--db", db_dir, "--no-plan-cache"]) == 0
        assert "3 rows" in capsys.readouterr().out

    def test_run_unknown_join_algorithm_rejected(self, db_dir):
        with pytest.raises(SystemExit):
            main(["run", RULE, "--db", db_dir, "--join-algorithm", "nope"])

    def test_run_compiled_engine(self, capsys, db_dir):
        assert main(["run", RULE, "--db", db_dir, "--engine", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "3 rows" in out

    def test_run_unknown_engine_rejected(self, db_dir):
        with pytest.raises(SystemExit):
            main(["run", RULE, "--db", db_dir, "--engine", "jitted"])

    def test_run_compiled_engine_rejects_non_hash_join(self, capsys, db_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", RULE, "--db", db_dir, "--engine", "compiled",
                 "--join-algorithm", "nested_loop"]
            )
        assert excinfo.value.code == 2
        assert "hash" in capsys.readouterr().err

    def test_run_explain(self, capsys, db_dir):
        assert main(["run", RULE, "--db", db_dir, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "estimated=" in out
        assert "-- 3 rows" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "q() :- edge(X, Y), edge(Y, Z), edge(Z, X)."]) == 0
        out = capsys.readouterr().out
        assert "acyclic (GYO)  : False" in out
        assert "treewidth      : 2" in out
        assert "GHW (bound)    : 2" in out

    def test_analyze_acyclic(self, capsys):
        assert main(["analyze", "q(X) :- edge(X, Y)."]) == 0
        out = capsys.readouterr().out
        assert "acyclic (GYO)  : True" in out
        assert "GHW (bound)    : 1" in out

    def test_minimize(self, capsys):
        assert main(["minimize", "q(X) :- edge(X, Y), edge(X, Z)."]) == 0
        out = capsys.readouterr().out
        assert "1 join(s) removed" in out

    def test_minimize_already_minimal(self, capsys):
        assert main(["minimize", "q(X) :- edge(X, Y)."]) == 0
        assert "already minimal" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "method",
        ["straightforward", "early", "reordering", "bucket", "jointree", "yannakakis"],
    )
    def test_every_method_plans(self, capsys, method):
        # RULE is an acyclic chain, so even "yannakakis" plans it.
        assert main(["plan", RULE, "--method", method]) == 0


class TestProgramCommand:
    def test_program_runs(self, capsys, tmp_path):
        path = tmp_path / "p.dl"
        path.write_text(
            "edge(1, 2). edge(2, 3). edge(3, 1).\n"
            "q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).\n"
        )
        assert main(["program", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 rows" in out

    def test_run_without_db_errors(self, capsys):
        assert main(["run", RULE]) == 2
        assert "required" in capsys.readouterr().err

    def test_program_execution_flags(self, capsys, tmp_path):
        path = tmp_path / "p.dl"
        path.write_text(
            "edge(1, 2). edge(2, 3). edge(3, 1).\n"
            "q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).\n"
        )
        assert main(
            ["program", str(path), "--join-algorithm", "sort_merge", "--no-plan-cache"]
        ) == 0
        assert "3 rows" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_subcommand_registered(self):
        args = build_argument_parser().parse_args(["serve"])
        assert args.command == "serve"

    def test_serve_defaults(self):
        args = build_argument_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7411
        assert args.db == []
        assert args.edge_db == []
        assert args.queue_limit == 256
        assert args.request_timeout == 30.0
        assert args.max_sessions == 1024
        assert args.prepared_cache_size == 256
        assert args.default_engine == "interpreted"
        assert args.default_method == "bucket"
        assert args.workers == 0  # pool off by default: one executor thread

    def test_serve_flags_parse(self):
        args = build_argument_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--db", "a=dir1",
                "--db", "b=dir2",
                "--edge-db", "colors",
                "--default-engine", "vectorized",
                "--default-method", "early",
            ]
        )
        assert args.port == 0
        assert args.db == ["a=dir1", "b=dir2"]
        assert args.edge_db == ["colors"]
        assert args.default_engine == "vectorized"
        assert args.default_method == "early"

    def test_serve_pool_knobs_parse(self):
        args = build_argument_parser().parse_args(["serve", "--workers", "4"])
        assert args.workers == 4

    def test_serve_pool_knobs_reach_config(self):
        from repro.service import QueryService, ServiceConfig
        from repro.relalg.database import edge_database

        args = build_argument_parser().parse_args(["serve", "--workers", "3"])
        config = ServiceConfig(workers=args.workers)
        service = QueryService({"default": edge_database()}, config)
        assert service.config.workers == 3
        assert service._pool is not None
        assert service._pool.workers == 3

    def test_serve_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_argument_parser().parse_args(
                ["serve", "--default-engine", "nope"]
            )

    def test_serve_bad_db_spec_exits_2(self, capsys):
        assert main(["serve", "--db", "no-separator"]) == 2
        assert "NAME=DIR" in capsys.readouterr().err

    def test_the_hidden_replicas_flag_accepts_only_zero(self, capsys):
        from repro.service import ServiceConfig

        parser = build_argument_parser()
        assert parser.parse_args(["serve", "--replicas", "0"]).command == "serve"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["serve", "--replicas", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--help"])
        assert "--replicas" not in capsys.readouterr().out
        with pytest.raises(TypeError):
            ServiceConfig(replicas=1)

    @pytest.mark.parametrize(
        "field, value", [("workers", -1), ("queue_limit", 0), ("max_sessions", 0)]
    )
    def test_serve_rejects_out_of_range_settings(self, field, value, capsys):
        from repro.service import ServiceConfig

        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})
        flag = "--" + field.replace("_", "-")
        assert main(["serve", flag, str(value)]) == 2
        assert field in capsys.readouterr().err
