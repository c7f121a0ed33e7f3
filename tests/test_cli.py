"""Unit tests for the command-line interface (driving main() directly)."""

import json
import re

import pytest

from repro.cli import main
from repro.data import generate_fortythree, FortyThreeConfig, save_dataset
from repro.storage import JsonLibraryStore


@pytest.fixture
def library_path(tmp_path, recipe_library):
    path = tmp_path / "lib.json"
    JsonLibraryStore(path).save(recipe_library)
    return path


@pytest.fixture
def dataset_path(tmp_path):
    dataset = generate_fortythree(FortyThreeConfig.tiny(), seed=1)
    return save_dataset(dataset, tmp_path / "ds.json")


class TestGenerate:
    def test_generates_dataset_file(self, tmp_path, capsys):
        out = tmp_path / "fm.json"
        code = main(
            [
                "generate", "--scenario", "foodmart", "--scale", "tiny",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["name"] == "foodmart"
        assert "wrote" in capsys.readouterr().out

    def test_43things_scenario(self, tmp_path, capsys):
        out = tmp_path / "ft.json"
        code = main(
            ["generate", "--scenario", "43things", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["name"] == "43things"


class TestInspect:
    def test_inspect_dataset(self, dataset_path, capsys):
        assert main(["inspect", str(dataset_path)]) == 0
        assert "43things" in capsys.readouterr().out

    def test_inspect_library(self, library_path, capsys):
        assert main(["inspect", str(library_path)]) == 0
        assert "connectivity" in capsys.readouterr().out


class TestRecommend:
    def test_recommend_prints_table(self, library_path, capsys):
        code = main(
            [
                "recommend", "--library", str(library_path),
                "--activity", "potatoes,carrots", "--strategy", "breadth",
                "-k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pickles" in out
        assert "breadth top-3" in out

    def test_unmatched_activity_exit_code(self, library_path, capsys):
        code = main(
            [
                "recommend", "--library", str(library_path),
                "--activity", "martian",
            ]
        )
        assert code == 1
        assert "no recommendations" in capsys.readouterr().out

    def test_missing_library_reports_error(self, tmp_path, capsys):
        code = main(
            [
                "recommend", "--library", str(tmp_path / "nope.json"),
                "--activity", "potatoes",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_evaluate_prints_all_methods(self, dataset_path, capsys):
        code = main(
            [
                "evaluate", "--dataset", str(dataset_path),
                "-k", "5", "--max-users", "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for method in ("breadth", "best_match", "cf_knn", "popularity"):
            assert method in out


class TestExtract:
    def test_extract_builds_library(self, tmp_path, capsys):
        stories = tmp_path / "stories.tsv"
        stories.write_text(
            "lose weight\tI joined a gym. Drank more water.\n"
            "\n"
            "save money\tStop eating out; cook at home.\n"
        )
        out = tmp_path / "extracted.json"
        code = main(
            ["extract", "--stories", str(stories), "--out", str(out)]
        )
        assert code == 0
        library = JsonLibraryStore(out).load()
        assert len(library) == 2

    def test_malformed_line_fails(self, tmp_path, capsys):
        stories = tmp_path / "stories.tsv"
        stories.write_text("no tab separator here\n")
        code = main(
            ["extract", "--stories", str(stories), "--out", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert "goal<TAB>story" in capsys.readouterr().err

    def test_no_actions_extracted_fails(self, tmp_path, capsys):
        stories = tmp_path / "stories.tsv"
        stories.write_text("vague goal\tIt was nice.\n")
        code = main(
            ["extract", "--stories", str(stories), "--out", str(tmp_path / "o.json")]
        )
        assert code == 1


class TestGoals:
    def test_goals_inferred(self, library_path, capsys):
        code = main(
            [
                "goals", "--library", str(library_path),
                "--activity", "potatoes,carrots", "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "olivier salad" in out
        assert "inferred goals" in out

    def test_scorer_selectable(self, library_path, capsys):
        code = main(
            [
                "goals", "--library", str(library_path),
                "--activity", "potatoes", "--scorer", "evidence",
            ]
        )
        assert code == 0
        assert "evidence" in capsys.readouterr().out

    def test_unmatched_activity_exit_code(self, library_path, capsys):
        code = main(
            ["goals", "--library", str(library_path), "--activity", "martian"]
        )
        assert code == 1


def _serve_args(*argv):
    from repro.cli import _build_parser

    return _build_parser().parse_args(["serve", *argv])


class TestServe:
    def test_serve_starts_and_stops(self, library_path, capsys):
        from repro.cli import _cmd_serve
        from repro.service import _ROUTES

        args = _serve_args("--library", str(library_path), "--port", "0")
        code = _cmd_serve(args, block=False)
        assert code == 0
        (banner,) = capsys.readouterr().out.splitlines()
        assert re.match(
            r"serving 4 implementations on http://127\.0\.0\.1:\d+ \(endpoints: ",
            banner,
        )
        assert banner.endswith(
            " ".join(route.endpoint for route in _ROUTES) + ")"
        )

    def test_serve_missing_library_errors(self, tmp_path):
        code = main(
            [
                "serve", "--library", str(tmp_path / "nope.json"),
                "--port", "0",
            ]
        )
        assert code == 2

    def test_serve_malformed_library_errors(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code = main(["serve", "--library", str(path), "--port", "0"])
        assert code == 2
        assert "error: library payload must be an object" in capsys.readouterr().err

    def test_approx_budget_flag_parses_with_default(self, library_path):
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(
            ["serve", "--library", str(library_path)]
        )
        assert args.approx_budget == 128
        args = parser.parse_args(
            [
                "serve", "--library", str(library_path),
                "--approx-budget", "5",
            ]
        )
        assert args.approx_budget == 5

    def test_approx_budget_reaches_service(
        self, library_path, capsys, monkeypatch
    ):
        from repro import service as service_module
        from repro.cli import _cmd_serve

        served = []

        class CapturingService(service_module.RecommenderService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                served.append(self)

        monkeypatch.setattr(
            service_module, "RecommenderService", CapturingService
        )
        args = _serve_args(
            "--library", str(library_path), "--port", "0",
            "--approx-budget", "9", "--history-window", "0",
        )
        assert _cmd_serve(args, block=False) == 0
        (service,) = served
        recommender = service.manager.snapshot().recommender
        assert recommender.strategy("breadth_pruned").budget == 9


def _every_serve_flag(tmp_path):
    """A non-default value for every ``repro serve`` flag but ``--library``."""
    return [
        "--host", "localhost", "--port", "0",
        "--cache-size", "7", "--approx-budget", "9",
        "--no-tracing", "--no-exemplars", "--no-trace-detail",
        "--slow-threshold", "0.2", "--slow-log-size", "5",
        "--max-inflight", "3", "--max-queue", "4", "--queue-timeout", "0.25",
        "--retry-after", "2", "--default-deadline-ms", "50",
        "--drain-timeout", "3",
        "--telemetry-dir", str(tmp_path / "telemetry"),
        "--telemetry-sample-rate", "0.5",
        "--history-interval", "2s", "--history-window", "1m",
        "--slo-availability", "0.99", "--slo-latency-ms", "100",
        "--slo-latency-target", "0.9",
        "--quality-window", "64", "--score-threshold", "0.1",
        "--drift-window", "32", "--drift-threshold", "0.5",
        "--lock-sanitizer", "--fault-spec", "seed=7,storage:latency:1.0:1",
        "--workers", "2", "--worker-restarts", "1",
    ]


#: ``repro serve`` destinations that configure the process, not the
#: service: everything else reaches ``RecommenderService``.
_PROCESS_FLAGS = {
    "library", "host", "port",
    "workers", "worker_restarts", "drain_timeout",
    "fault_spec", "lock_sanitizer",
}


class TestServeWiring:
    """One mapping from parsed flags to service keyword arguments feeds
    the single process and every pool worker."""

    def test_one_mapping_feeds_both_modes(
        self, library_path, tmp_path, monkeypatch
    ):
        import inspect

        import repro.resilience
        import repro.utils.concurrency
        from repro import service as service_module
        from repro.cli import _cmd_serve
        from repro.serving import workers

        defaults = {
            name: parameter.default
            for name, parameter in inspect.signature(
                service_module.RecommenderService.__init__
            ).parameters.items()
        }
        # The process-level flags act on this process: stub them out.
        monkeypatch.setattr(repro.resilience, "install_faults", lambda _: None)
        monkeypatch.setattr(
            repro.utils.concurrency, "enable_lock_sanitizer", lambda: None
        )
        captured = {}

        class Captured(Exception):
            pass

        def capture_worker_config(**fields):
            captured["pool"] = fields["service_kwargs"]
            raise Captured  # before any fork

        monkeypatch.setattr(workers, "_WorkerConfig", capture_worker_config)
        args = _serve_args(
            "--library", str(library_path), *_every_serve_flag(tmp_path)
        )
        with pytest.raises(Captured):
            _cmd_serve(args, block=False)

        class FakeService:
            port = 1

            def __init__(self, model, *, host, port, **kwargs):
                captured["single"] = kwargs

            def start(self):
                return self

            def stop(self):
                pass

        monkeypatch.setattr(service_module, "RecommenderService", FakeService)
        args.workers = 1
        assert _cmd_serve(args, block=False) == 0
        assert captured["single"] == captured["pool"]
        # The argv above really moves every mapped setting off its default.
        assert [
            name for name, value in captured["single"].items()
            if value == defaults[name]
        ] == []

    def test_every_serve_flag_is_mapped_or_process_level(self, library_path):
        import argparse

        from repro.cli import _build_parser, _service_kwargs

        parser = _build_parser()
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        serve = commands.choices["serve"]
        dests = {action.dest for action in serve._actions} - {"help"}
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        args = parser.parse_args(
            ["serve", "--library", str(library_path)], namespace=Recording()
        )
        read.clear()
        _service_kwargs(args)
        assert _PROCESS_FLAGS <= dests
        assert read == dests - _PROCESS_FLAGS


#: Out-of-range ``repro serve`` values, each with the flag its error names.
_BAD_SERVE_VALUES = [
    (["--approx-budget", "0"], "--approx-budget"),
    (["--cache-size", "-1"], "--cache-size"),
    (["--max-inflight", "0"], "--max-inflight"),
    (["--max-queue", "-1"], "--max-queue"),
    (["--queue-timeout", "-1"], "--queue-timeout"),
    (["--slow-log-size", "0"], "--slow-log-size"),
    (["--slow-threshold", "-1"], "--slow-threshold"),
    (["--drift-window", "0"], "--drift-window"),
    (["--drift-threshold", "0"], "--drift-threshold"),
    (["--quality-window", "0"], "--quality-window"),
    (["--slo-availability", "2"], "--slo-availability"),
    (["--slo-latency-ms", "0"], "--slo-latency-ms"),
    (["--slo-latency-target", "0"], "--slo-latency-target"),
    (["--telemetry-sample-rate", "2", "--telemetry-dir", "telemetry"],
     "--telemetry-sample-rate"),
    (["--history-interval", "10s", "--history-window", "5s"],
     "--history-interval"),
    (["--history-interval", "0"], "--history-interval"),
    (["--workers", "0"], "--workers"),
    (["--max-inflight", "many"], "--max-inflight"),
]


class TestServeBadValues:
    """A bad value exits 2 with one ``error:`` line naming its flag, before
    the library loads or a worker forks."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "argv, flag", _BAD_SERVE_VALUES,
        ids=[" ".join(argv) for argv, _ in _BAD_SERVE_VALUES],
    )
    def test_exits_2_naming_the_flag(
        self, library_path, capsys, monkeypatch, workers, argv, flag
    ):
        import repro.cli
        from repro.serving import workers as pool

        def unreachable(*_args, **_kwargs):
            raise AssertionError("a bad value reached the serve start")

        monkeypatch.setattr(
            repro.cli.IncrementalGoalModel, "from_library", unreachable
        )
        monkeypatch.setattr(pool, "run_worker_pool", unreachable)
        try:
            code = main([
                "serve", "--library", str(library_path), "--port", "0",
                "--workers", workers, *argv,
            ])
        except SystemExit as exc:  # the parser's usage error
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0], err
        assert "Traceback" not in err

    def test_pool_mode_forks_no_worker(self, library_path):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import multiprocessing, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[2:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(len(multiprocessing.active_children()))\n"
            "sys.exit(code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, str(src), "serve",
             "--library", str(library_path), "--port", "0",
             "--workers", "2", "--max-inflight", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
        assert result.stdout.split() == ["0"]
        assert "Traceback" not in result.stderr
        assert "worker pool failed" not in result.stderr


class TestReadyBanner:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_banner_lists_the_route_table(self, library_path, workers):
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.service import _ROUTES

        env = {
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            "PATH": "/usr/bin:/bin",
        }
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--library", str(library_path), "--port", "0",
             "--workers", str(workers), "--history-window", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline()
        finally:
            server.send_signal(signal.SIGTERM)
            _, err = server.communicate(timeout=60)
        pool = f"{workers} workers; " if workers > 1 else ""
        endpoints = " ".join(route.endpoint for route in _ROUTES)
        assert re.fullmatch(
            r"serving 4 implementations on http://127\.0\.0\.1:\d+ "
            + re.escape(f"({pool}endpoints: {endpoints})") + "\n",
            banner,
        ), (banner, err)
        assert "/model/implementations" in banner
        assert server.returncode == 0, err


#: Imported by a serve start, it prints every ``repro`` module then loaded.
_SERVE_MODULES_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro import cli
args = cli._build_parser().parse_args(["serve", "--library", sys.argv[2], "--port", "0"])
assert cli._cmd_serve(args, block=False) == 0
print(json.dumps(sorted(sys.modules)))
"""

#: ``repro serve`` on an ephemeral port; with ``block`` first, a
#: ``sys.meta_path`` finder makes every ``scipy`` import raise.
_SCIPY_BLOCKING_SERVE = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
sys.path.insert(0, sys.argv[2])
from repro.cli import main
sys.exit(main(["serve", "--library", sys.argv[3], "--port", "0"]))
"""


def _recommend_from_a_serve(library_path, mode):
    """Start ``repro serve`` in a subprocess, ask it for one
    recommendation, stop it, and return the status and decoded body."""
    import http.client
    import re
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    server = subprocess.Popen(
        [sys.executable, "-c", _SCIPY_BLOCKING_SERVE, mode, str(src),
         str(library_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = server.stdout.readline()
        address = re.search(r"http://([^:/\s]+):(\d+)", banner)
        assert address, (banner, server.stderr.read() if not banner else "")
        conn = http.client.HTTPConnection(
            address.group(1), int(address.group(2)), timeout=30
        )
        conn.request(
            "POST", "/recommend",
            body=json.dumps({"activity": ["potatoes"], "k": 5}),
        )
        response = conn.getresponse()
        result = response.status, json.loads(response.read())
        conn.close()
        return result
    finally:
        server.terminate()
        server.communicate(timeout=30)


class TestServeImports:
    """A serve start loads none of the offline subsystems, and no SciPy."""

    def test_serve_imports_no_offline_module(self, library_path):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", _SERVE_MODULES_PROBE, str(src), str(library_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        loaded = json.loads(result.stdout.splitlines()[-1])
        assert "repro.service" in loaded and "repro.core.vectorized" in loaded
        offline = ("repro.eval", "repro.baselines", "repro.text", "repro.data",
                   "repro.experiments", "scipy")
        assert [
            name for name in loaded
            if any(name == root or name.startswith(root + ".") for root in offline)
        ] == []

    def test_serve_answers_the_same_without_scipy(self, library_path):
        blocked = _recommend_from_a_serve(library_path, "block")
        assert blocked[0] == 200
        assert blocked[1]["recommendations"]
        assert blocked == _recommend_from_a_serve(library_path, "allow")


class TestProfileFlag:
    def test_profile_report_goes_to_stderr(self, library_path, capsys):
        code = main(
            [
                "--profile", "--profile-sort", "tottime",
                "recommend", "--library", str(library_path),
                "--activity", "potatoes", "-k", "3",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "# profiled calls: 1" in captured.err
        assert "tottime" in captured.err
        # stdout still carries the command's own table, uncontaminated.
        assert "profiled calls" not in captured.out

    def test_profile_out_writes_report_file(
        self, library_path, tmp_path, capsys
    ):
        report_path = tmp_path / "deep" / "profile.txt"
        code = main(
            [
                "--profile", "--profile-out", str(report_path),
                "inspect", str(library_path),
            ]
        )
        assert code == 0
        assert report_path.read_text().startswith("# profiled calls: 1")
        assert "wrote profile" in capsys.readouterr().err

    def test_profile_preserves_the_command_exit_code(
        self, library_path, capsys
    ):
        code = main(
            [
                "--profile",
                "recommend", "--library", str(library_path),
                "--activity", "martian",
            ]
        )
        assert code == 1
        assert "# profiled calls: 1" in capsys.readouterr().err
