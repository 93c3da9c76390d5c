"""The crowd-topk command-line interface."""

import re

import pytest

from repro.algorithms import ALGORITHMS, RESUMERS
from repro.cli import _spec_from_args, build_parser, main
from repro.service import QueryService, execute_spec, run_query, session_for
from repro.telemetry import MetricsRegistry, ObservatoryServer
from repro.telemetry import server as server_module


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query"])
        assert args.dataset == "jester"
        assert args.method == "spr"
        assert args.k == 10

    def test_query_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--method", "bogosort"])

    def test_experiment_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_submit_has_no_poll_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--wait", "--poll", "0.1"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert capsys.readouterr().out.strip()


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("imdb", "book", "jester", "photo", "peopleage"):
            assert name in out

    def test_query_end_to_end(self, capsys):
        code = main(
            [
                "query",
                "--dataset", "jester",
                "--method", "spr",
                "-k", "3",
                "--n-items", "25",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TMC:" in out
        assert "NDCG@3:" in out
        assert "true rank" in out

    def test_query_other_method(self, capsys):
        code = main(
            [
                "query",
                "--dataset", "jester",
                "--method", "quickselect",
                "-k", "2",
                "--n-items", "20",
            ]
        )
        assert code == 0
        assert "quickselect" in capsys.readouterr().out

    def test_experiment_fig15(self, capsys):
        assert main(["experiment", "fig15"]) == 0
        assert "n_b - n" in capsys.readouterr().out

    def test_experiment_peopleage(self, capsys):
        assert main(["experiment", "peopleage", "--runs", "1"]) == 0
        assert "PeopleAge" in capsys.readouterr().out


class _Killed(Exception):
    """Stands in for a crash part-way through a query."""


class TestResume:
    def test_non_resumable_method_is_refused_naming_the_table(
        self, tmp_path, capsys
    ):
        code = main([
            "query", "--method", "tournament",
            "--checkpoint", str(tmp_path / "q.ckpt"), "--resume",
        ])
        assert code == 2
        err = capsys.readouterr().err
        named = {m for m in ALGORITHMS if re.search(rf"\b{m}\b", err)}
        assert named == set(RESUMERS)

    @pytest.mark.parametrize("method", sorted(RESUMERS))
    def test_resume_prints_what_the_uninterrupted_query_prints(
        self, method, tmp_path, capsys
    ):
        argv = [
            "query", "--dataset", "jester", "--method", method, "-k", "3",
            "--n-items", "20", "--budget", "300", "--seed", "2",
        ]
        assert main(argv) == 0
        uninterrupted = capsys.readouterr().out

        # Crash the same query half-way through its spend, checkpointing
        # every round, then finish it from the checkpoint through the CLI.
        spec = _spec_from_args(build_parser().parse_args(argv))
        half = run_query(spec).cost // 2
        path = tmp_path / "q.ckpt"
        session, items = session_for(spec)
        session.enable_checkpoints(path, every=1)

        def crash(session, _record):
            if session.total_cost > half:
                raise _Killed

        session.add_compare_listener(crash)
        with pytest.raises(_Killed):
            execute_spec(session, spec, items)
        assert path.exists()

        assert main(argv + ["--checkpoint", str(path), "--resume"]) == 0
        assert capsys.readouterr().out == uninterrupted


class TestSubmitCommand:
    @pytest.mark.parametrize("wait_s", [server_module.RESULT_WAIT_S, 0.01])
    def test_wait_prints_the_outcome(self, capsys, monkeypatch, wait_s):
        # A short server wait makes the client re-ask after 202s.
        monkeypatch.setattr(server_module, "RESULT_WAIT_S", wait_s)
        with QueryService(max_workers=1, registry=MetricsRegistry()) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                code = main([
                    "submit", "--server", observatory.url,
                    "--method", "bdp", "--dataset", "synthetic", "-k", "3",
                    "--n-items", "12", "--seed", "7", "--tenant", "acme",
                    "--wait",
                ])
        assert code == 0
        handle = service.handle("q0001")
        out = capsys.readouterr().out
        assert f"q0001 done: top-3 = {list(handle.outcome.topk)}" in out
        assert f"TMC: {handle.outcome.cost:,} microtasks" in out


class TestPlanCommand:
    def test_plan_feasible(self, capsys):
        code = main(
            [
                "plan", "--n-items", "200", "-k", "5",
                "--target-precision", "0.5", "--dollars", "1000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FEASIBLE" in out
        assert "§5.4" in out

    def test_plan_infeasible_exit_code(self, capsys):
        code = main(
            [
                "plan", "--n-items", "500", "-k", "10",
                "--target-precision", "0.6", "--dollars", "0.01",
            ]
        )
        assert code == 1
        assert "INFEASIBLE" in capsys.readouterr().out
